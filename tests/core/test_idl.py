"""Tests for the IDL parser (paper Figure 2 syntax)."""

import pytest

from repro.core import ProtoSyntaxError, parse_proto

PAPER_EXAMPLE = """
import "netrpc.proto";

message NewGrad {
  netrpc.FPArray tensor = 1;
}
message AgtrGrad {
  netrpc.FPArray tensor = 1;
}
service GradientService {
  rpc Update (NewGrad) returns (AgtrGrad) {} filter "agtr.nf"
}
"""


class TestPaperExample:
    def test_parses(self):
        proto = parse_proto(PAPER_EXAMPLE)
        assert set(proto.messages) == {"NewGrad", "AgtrGrad"}
        assert proto.imports == ["netrpc.proto"]

    def test_service_and_filter_clause(self):
        proto = parse_proto(PAPER_EXAMPLE)
        service = proto.service("GradientService")
        (method,) = [m for m in service.methods if m.name == "Update"]
        assert method.request_type == "NewGrad"
        assert method.reply_type == "AgtrGrad"
        assert method.filter_file == "agtr.nf"

    def test_field_descriptors(self):
        proto = parse_proto(PAPER_EXAMPLE)
        field = proto.message("NewGrad").by_name["tensor"]
        assert field.type_name == "netrpc.FPArray"
        assert field.tag == 1
        assert field.is_iedt


class TestSyntaxVariants:
    def test_comments_ignored(self):
        proto = parse_proto("""
        // leading comment
        message M { int32 x = 1; } // trailing
        """)
        assert "M" in proto.messages

    def test_mixed_scalar_and_iedt_fields(self):
        proto = parse_proto("""
        message MonitorRequest {
          netrpc.STRINTMap kvs = 1;
          string payload = 2;
        }
        """)
        msg = proto.message("MonitorRequest")
        assert msg.by_name["kvs"].is_iedt
        assert not msg.by_name["payload"].is_iedt

    def test_rpc_without_filter(self):
        proto = parse_proto("""
        message A { int32 x = 1; }
        service S { rpc Plain (A) returns (A); }
        """)
        assert proto.service("S").methods[0].filter_file is None

    def test_multiple_rpcs(self):
        proto = parse_proto("""
        message Q { netrpc.STRINTMap kvs = 1; }
        message R { string msg = 1; }
        service MapReduce {
          rpc ReduceByKey (Q) returns (R) {} filter "reduce.nf"
          rpc Query (R) returns (Q) {} filter "query.nf"
        }
        """)
        methods = proto.service("MapReduce").methods
        assert [m.name for m in methods] == ["ReduceByKey", "Query"]

    def test_syntax_declaration_accepted(self):
        proto = parse_proto('syntax = "proto3"; message M { bool b = 1; }')
        assert "M" in proto.messages


class TestErrors:
    def test_unknown_type(self):
        with pytest.raises(ProtoSyntaxError):
            parse_proto("message M { varchar x = 1; }")

    def test_undefined_rpc_message(self):
        with pytest.raises(ProtoSyntaxError, match="undefined message"):
            parse_proto("""
            message A { int32 x = 1; }
            service S { rpc Go (A) returns (Missing); }
            """)

    def test_duplicate_message(self):
        with pytest.raises(ProtoSyntaxError, match="duplicate message"):
            parse_proto("message M { int32 x = 1; } message M { bool b = 1; }")

    def test_missing_semicolon(self):
        with pytest.raises(ProtoSyntaxError):
            parse_proto("message M { int32 x = 1 }")

    def test_bad_tag(self):
        with pytest.raises(ProtoSyntaxError):
            parse_proto("message M { int32 x = abc; }")

    def test_stray_token(self):
        with pytest.raises(ProtoSyntaxError):
            parse_proto("banana")

    def test_unexpected_character(self):
        with pytest.raises(ProtoSyntaxError, match="unexpected character"):
            parse_proto("message M { int32 x = 1; } @")

    def test_unexpected_eof(self):
        with pytest.raises(ProtoSyntaxError):
            parse_proto("message M {")

    def test_lookup_missing_names(self):
        proto = parse_proto("message M { int32 x = 1; }")
        with pytest.raises(KeyError):
            proto.message("Nope")
        with pytest.raises(KeyError):
            proto.service("Nope")
