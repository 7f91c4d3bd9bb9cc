"""Tests for NetFilter parsing (paper Figure 3 and Appendix D examples)."""

import json

import pytest

from repro.core import NetFilterError, parse_netfilter
from repro.protocol import ClearPolicy, ForwardTarget, RetryMode, StreamOp

PAPER_AGTR = """{
  "AppName": "DT-1",
  "Precision": 8,
  "get": "AgtrGrad.tensor",
  "addTo": "NewGrad.tensor",
  "clear": "copy",
  "modify": "nop",
  "CntFwd": {"to": "ALL", "threshold": 2, "key": "ClientID"}
}"""

PAPER_REDUCE = """{
  "AppName": "MR-1",
  "Precision": 0,
  "get": "nop",
  "addTo": "ReduceRequest.kvs",
  "clear": "nop",
  "modify": "nop",
  "CntFwd": {"to": "SRC", "threshold": 0, "key": "NULL"}
}"""

PAPER_LOCK = """{
  "AppName": "LS-1",
  "Precision": 0,
  "get": "nop",
  "addTo": "nop",
  "clear": "nop",
  "modify": "nop",
  "CntFwd": {"to": "SRC", "threshold": 1, "key": "LockRequest.kvs"}
}"""


class TestPaperFilters:
    def test_gradient_filter(self):
        program = parse_netfilter(PAPER_AGTR)
        assert program.app_name == "DT-1"
        assert program.precision == 8
        assert program.get_field == "AgtrGrad.tensor"
        assert program.add_to_field == "NewGrad.tensor"
        assert program.clear is ClearPolicy.COPY
        assert program.cntfwd.target is ForwardTarget.ALL
        assert program.cntfwd.threshold == 2
        assert program.retry is RetryMode.PERSIST

    def test_reduce_filter(self):
        program = parse_netfilter(PAPER_REDUCE)
        assert program.get_field is None
        assert program.add_to_field == "ReduceRequest.kvs"
        assert not program.cntfwd.counts
        assert program.cntfwd.target is ForwardTarget.SRC

    def test_lock_filter_defaults_to_fresh_retry(self):
        program = parse_netfilter(PAPER_LOCK)
        assert program.cntfwd.is_test_and_set
        assert program.retry is RetryMode.FRESH

    def test_dict_input_accepted(self):
        program = parse_netfilter(json.loads(PAPER_AGTR))
        assert program.app_name == "DT-1"


class TestModifyVariants:
    def test_string_with_parameter(self):
        program = parse_netfilter(
            {"AppName": "A", "modify": "add:5"})
        assert program.modify_op is StreamOp.ADD
        assert program.modify_para == 5

    def test_object_form(self):
        program = parse_netfilter(
            {"AppName": "A", "modify": {"op": "shiftl", "para": 2}})
        assert program.modify_op is StreamOp.SHIFTL
        assert program.modify_para == 2

    def test_bad_parameter(self):
        with pytest.raises(NetFilterError):
            parse_netfilter({"AppName": "A", "modify": "add:many"})

    def test_bad_form(self):
        with pytest.raises(NetFilterError):
            parse_netfilter({"AppName": "A", "modify": 5})


class TestValidation:
    def test_missing_app_name(self):
        with pytest.raises(NetFilterError, match="AppName"):
            parse_netfilter({"Precision": 0})

    def test_unknown_keys_rejected(self):
        with pytest.raises(NetFilterError, match="unknown NetFilter keys"):
            parse_netfilter({"AppName": "A", "color": "red"})

    def test_invalid_json(self):
        with pytest.raises(NetFilterError, match="invalid NetFilter JSON"):
            parse_netfilter("{not json")

    def test_field_reference_must_be_dotted(self):
        with pytest.raises(NetFilterError, match="Message.field"):
            parse_netfilter({"AppName": "A", "get": "tensor"})

    def test_bad_clear_policy(self):
        with pytest.raises(NetFilterError, match="clear policy"):
            parse_netfilter({"AppName": "A", "clear": "later"})

    def test_bad_cntfwd_target(self):
        with pytest.raises(NetFilterError, match="CntFwd target"):
            parse_netfilter({"AppName": "A", "CntFwd": {"to": "MARS"}})

    def test_negative_threshold(self):
        with pytest.raises(NetFilterError, match="threshold"):
            parse_netfilter({"AppName": "A",
                             "CntFwd": {"to": "SRC", "threshold": -1}})

    def test_unknown_cntfwd_keys(self):
        with pytest.raises(NetFilterError, match="unknown CntFwd keys"):
            parse_netfilter({"AppName": "A", "CntFwd": {"towards": "SRC"}})

    def test_bad_precision(self):
        with pytest.raises(NetFilterError):
            parse_netfilter({"AppName": "A", "Precision": "high"})

    def test_non_dict_source(self):
        with pytest.raises(NetFilterError):
            parse_netfilter(42)


class TestRoundtrip:
    """A NetFilter parses the same from its JSON text and its dict."""

    def test_json_roundtrip(self):
        program = parse_netfilter(PAPER_AGTR)
        assert parse_netfilter(json.loads(PAPER_AGTR)) == program

    def test_roundtrip_with_modify_parameter(self):
        config = {"AppName": "A", "modify": "bxor:255"}
        program = parse_netfilter(config)
        assert parse_netfilter(json.dumps(config)) == program
        assert program.modify_op is StreamOp.BXOR
        assert program.modify_para == 255
