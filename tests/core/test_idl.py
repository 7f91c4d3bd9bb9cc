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


class TestFieldNumbers:
    """Field tags follow protobuf: 1 .. 2**29 - 1, never 19000-19999, and
    unique per message, like field names; every rejection names the line
    and the field."""

    def test_largest_tag_accepted(self):
        proto = parse_proto("message M { int32 a = 536870911; }")
        assert proto.message("M").fields[0].tag == 2**29 - 1

    def test_tag_above_the_maximum_rejected(self):
        with pytest.raises(ProtoSyntaxError,
                           match=r"line 1: field 'a' of message M: tag "
                                 r"536870912 outside"):
            parse_proto("message M { int32 a = 536870912; }")

    def test_huge_tag_rejected(self):
        with pytest.raises(ProtoSyntaxError, match="line 1: field 'a'"):
            parse_proto("message M { int32 a = 99999999999999999999; }")

    def test_tag_zero_rejected(self):
        with pytest.raises(ProtoSyntaxError, match="line 1: field 'a'"):
            parse_proto("message M { int32 a = 0; }")

    @pytest.mark.parametrize("tag", [19000, 19500, 19999])
    def test_reserved_tag_range_rejected(self, tag):
        with pytest.raises(ProtoSyntaxError,
                           match="line 1: field 'a' .* reserved"):
            parse_proto(f"message M {{ int32 a = {tag}; }}")

    def test_tags_around_the_reserved_range_accepted(self):
        proto = parse_proto("message M { int32 a = 18999; bool b = 20000; }")
        assert [f.tag for f in proto.message("M").fields] == [18999, 20000]

    def test_duplicate_field_name_names_its_line(self):
        with pytest.raises(ProtoSyntaxError,
                           match="line 3: field 'a' of message M: "
                                 "duplicate field name"):
            parse_proto("message M {\n  int32 a = 1;\n  bool a = 2;\n}")

    def test_duplicate_tag_names_its_line(self):
        with pytest.raises(ProtoSyntaxError,
                           match="line 3: field 'b' of message M: tag 1 "
                                 "already used by field 'a'"):
            parse_proto("message M {\n  int32 a = 1;\n  bool b = 1;\n}")
