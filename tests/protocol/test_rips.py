"""Tests for RIP program representation and validation."""

import pytest

from repro.core import NetFilterError, parse_netfilter
from repro.protocol import (
    AggOp,
    ClearPolicy,
    CntFwdSpec,
    ForwardTarget,
    RIPProgram,
    RetryMode,
)


def _compile(**fields):
    return parse_netfilter({"AppName": "A", **fields})


class TestEnumParsing:
    """The NetFilter spellings of the enums: any case, blanks around the
    name ignored, and a rejection naming the field."""

    def test_clear_policy_parse(self):
        assert _compile(clear="copy").clear is ClearPolicy.COPY
        assert _compile(clear=" SHADOW ").clear is ClearPolicy.SHADOW
        assert _compile(clear="lazy").clear is ClearPolicy.LAZY
        assert _compile(clear="nop").clear is ClearPolicy.NOP

    def test_clear_policy_unknown(self):
        with pytest.raises(NetFilterError,
                           match="^clear: unknown clear policy"):
            _compile(clear="sometimes")

    def test_forward_target_parse(self):
        def target(text):
            return _compile(CntFwd={"to": text}).cntfwd.target
        assert target("ALL") is ForwardTarget.ALL
        assert target("src") is ForwardTarget.SRC
        assert target("Server") is ForwardTarget.SERVER

    def test_forward_target_unknown(self):
        with pytest.raises(NetFilterError,
                           match="^CntFwd.to: unknown CntFwd target"):
            _compile(CntFwd={"to": "everyone"})

    def test_retry_mode_parse(self):
        assert _compile(retry="persist").retry is RetryMode.PERSIST
        assert _compile(retry="FRESH").retry is RetryMode.FRESH

    def test_retry_mode_unknown(self):
        with pytest.raises(NetFilterError, match="^retry: unknown retry mode"):
            _compile(retry="maybe")

    def test_agg_op_parse(self):
        assert _compile(agg=" FMax").agg is AggOp.FMAX
        with pytest.raises(NetFilterError, match="^agg: unknown agg op"):
            _compile(agg="mul")


class TestCntFwdSpec:
    def test_threshold_zero_is_unconditional_forward(self):
        spec = CntFwdSpec(threshold=0)
        assert not spec.counts

    def test_positive_threshold_counts(self):
        spec = CntFwdSpec(threshold=2)
        assert spec.counts and not spec.is_test_and_set

    def test_threshold_one_is_test_and_set(self):
        assert CntFwdSpec(threshold=1).is_test_and_set

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            CntFwdSpec(threshold=-1)


class TestRIPProgram:
    def test_minimal_program(self):
        prog = RIPProgram(app_name="app")
        assert not prog.uses_get
        assert not prog.uses_add_to
        assert not prog.uses_map
        assert prog.precision == 0

    def test_gradient_aggregation_program(self):
        # The paper's Figure 3 NetFilter.
        prog = RIPProgram(
            app_name="DT-1", precision=8,
            get_field="AgtrGrad.tensor", add_to_field="NewGrad.tensor",
            clear=ClearPolicy.COPY,
            cntfwd=CntFwdSpec(target=ForwardTarget.ALL, threshold=2,
                              key="ClientID"))
        assert prog.uses_get and prog.uses_add_to and prog.uses_map
        assert prog.precision == 8
        assert prog.cntfwd.counts

    def test_empty_app_name_rejected(self):
        with pytest.raises(ValueError):
            RIPProgram(app_name="")

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError):
            RIPProgram(app_name="a", precision=-1)
        with pytest.raises(ValueError):
            RIPProgram(app_name="a", precision=10)

    def test_cntfwd_only_program_uses_map(self):
        prog = RIPProgram(app_name="lock",
                          cntfwd=CntFwdSpec(threshold=1,
                                            target=ForwardTarget.SRC))
        assert prog.uses_map

    def test_programs_are_immutable(self):
        prog = RIPProgram(app_name="x")
        with pytest.raises(AttributeError):
            prog.precision = 5
