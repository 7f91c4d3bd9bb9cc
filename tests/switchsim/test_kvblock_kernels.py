"""Differential proof of the RegisterFile bulk kernels.

The columnar kernels (``add_block`` / ``get_block`` / ``add_get_block``
/ ``clear_block``) exist purely for speed — each must be bit-identical
to the scalar reference it fused: a per-slot loop over plain
address/value lists calling ``RegisterFile.add`` / ``read`` / ``clear`` exactly the way the
pre-columnar pipeline did.  Hypothesis drives both implementations with
the same random program (slots, selection bitmap, phys-base window,
pre-existing register state including sticky bits) and the final
register state, payload mutations, and overflow flags must agree.

Covered corners, per the scalar contract:

* saturation at both int32 bounds (sticky set, stored value preserved);
* reads of sticky registers returning the ``INT32_MAX`` sentinel;
* bitmap subsets (unselected slots untouched);
* out-of-window addresses under a non-zero phys base (skipped silently);
* zero-result adds evicting the register from the sparse store;
* ``add_get_block`` equivalence to ``add_block`` + ``get_block`` for
  distinct addresses (the linear-packet precondition it is gated on).
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.protocol import INT32_MAX, INT32_MIN, KVBlock
from repro.switchsim import RegisterFile

SEGMENTS = 4
REGS_PER_SEGMENT = 8
CAPACITY = SEGMENTS * REGS_PER_SEGMENT

# Small values for collisions, bound-adjacent values for saturation.
values_st = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.sampled_from([INT32_MAX, INT32_MAX - 1, INT32_MIN, INT32_MIN + 1]),
)
# Beyond-capacity addresses plus shifted bases put slots out of window.
addr_st = st.integers(min_value=0, max_value=CAPACITY + 15)
slots_st = st.lists(st.tuples(addr_st, values_st), min_size=1, max_size=8)
distinct_slots_st = st.lists(st.tuples(addr_st, values_st), min_size=1,
                             max_size=8, unique_by=lambda slot: slot[0])
base_st = st.sampled_from([-8, 0, 8, CAPACITY + 8])
select_st = st.integers(min_value=0, max_value=255)
pre_values_st = st.dictionaries(
    st.integers(min_value=0, max_value=CAPACITY - 1),
    st.one_of(st.integers(min_value=-100, max_value=100).filter(bool),
              st.sampled_from([INT32_MAX, INT32_MIN])),
    max_size=6)
pre_sticky_st = st.sets(st.integers(min_value=0, max_value=CAPACITY - 1),
                        max_size=3)


def seeded_registers(pre_values, pre_sticky):
    """Two identical register files with the given starting state."""
    out = []
    for _ in range(2):
        regs = RegisterFile(segments=SEGMENTS,
                            registers_per_segment=REGS_PER_SEGMENT)
        for addr, value in pre_values.items():
            regs.write(addr, value)
        # Test scaffolding: sticky bits with arbitrary preserved values
        # are not constructible through single public calls.
        regs._sticky_overflow.update(pre_sticky)
        out.append(regs)
    return out


def state(regs):
    return dict(regs._values), set(regs._sticky_overflow)


# ----------------------------------------------------------------------
# Scalar references: the pre-columnar per-kv loops, verbatim semantics.
# ----------------------------------------------------------------------
def scalar_add(regs, addrs, values, select, base):
    overflowed = False
    for index, addr in enumerate(addrs):
        if select >> index & 1:
            local = addr - base
            if 0 <= local < regs.capacity:
                if regs.add(local, values[index]):
                    values[index] = INT32_MAX
                    overflowed = True
    return overflowed


def scalar_get(regs, addrs, values, select, base):
    overflowed = False
    for index, addr in enumerate(addrs):
        if select >> index & 1:
            local = addr - base
            if 0 <= local < regs.capacity:
                if regs.is_sticky(local):
                    overflowed = True
                values[index] = regs.read(local)
    return overflowed


def scalar_clear(regs, addrs, select, offset):
    for index, addr in enumerate(addrs):
        if select == -1 or select >> index & 1:
            local = addr + offset
            if 0 <= local < regs.capacity:
                regs.clear(local)


# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(slots=slots_st, select=select_st, base=base_st,
       pre_values=pre_values_st, pre_sticky=pre_sticky_st)
def test_add_block_matches_scalar_add(slots, select, base, pre_values,
                                      pre_sticky):
    kernel_regs, ref_regs = seeded_registers(pre_values, pre_sticky)
    block = KVBlock.from_columns([addr for addr, _ in slots],
                                 [value for _, value in slots])
    addrs = [addr for addr, _ in slots]
    values = [value for _, value in slots]

    kernel_of = kernel_regs.add_block(block, select, base)
    ref_of = scalar_add(ref_regs, addrs, values, select, base)

    assert kernel_of == ref_of
    assert block.values_list() == values
    assert state(kernel_regs) == state(ref_regs)


@settings(max_examples=200, deadline=None)
@given(slots=slots_st, select=select_st, base=base_st,
       pre_values=pre_values_st, pre_sticky=pre_sticky_st)
def test_get_block_matches_scalar_read(slots, select, base, pre_values,
                                       pre_sticky):
    kernel_regs, ref_regs = seeded_registers(pre_values, pre_sticky)
    block = KVBlock.from_columns([addr for addr, _ in slots],
                                 [value for _, value in slots])
    addrs = [addr for addr, _ in slots]
    values = [value for _, value in slots]

    kernel_of = kernel_regs.get_block(block, select, base)
    ref_of = scalar_get(ref_regs, addrs, values, select, base)

    assert kernel_of == ref_of
    assert block.values_list() == values
    assert state(kernel_regs) == state(ref_regs)   # reads mutate nothing


@settings(max_examples=200, deadline=None)
@given(slots=distinct_slots_st, select=select_st, base=base_st,
       pre_values=pre_values_st, pre_sticky=pre_sticky_st)
def test_add_get_block_matches_two_pass_for_distinct_addrs(
        slots, select, base, pre_values, pre_sticky):
    """The fused kernel's precondition: distinct addresses (linear
    packets).  Under it, fused add+get must equal add_block followed by
    get_block — same payload, same registers, same overflow signal."""
    fused_regs, two_pass_regs = seeded_registers(pre_values, pre_sticky)
    fused = KVBlock.from_columns([addr for addr, _ in slots],
                                 [value for _, value in slots])
    two_pass = fused.copy()

    fused_of = fused_regs.add_get_block(fused, select, base)
    add_of = two_pass_regs.add_block(two_pass, select, base)
    get_of = two_pass_regs.get_block(two_pass, select, base)

    assert fused_of == (add_of or get_of)
    assert fused.values_list() == two_pass.values_list()
    assert state(fused_regs) == state(two_pass_regs)


@settings(max_examples=200, deadline=None)
@given(addrs=st.lists(addr_st, min_size=1, max_size=8),
       select=st.one_of(st.just(-1), select_st),
       offset=st.sampled_from([-8, 0, 8]),
       pre_values=pre_values_st, pre_sticky=pre_sticky_st)
def test_clear_block_matches_scalar_clear(addrs, select, offset,
                                          pre_values, pre_sticky):
    kernel_regs, ref_regs = seeded_registers(pre_values, pre_sticky)
    kernel_regs.clear_block(addrs, select, offset)
    scalar_clear(ref_regs, addrs, select, offset)
    assert state(kernel_regs) == state(ref_regs)


# ----------------------------------------------------------------------
# Deterministic pins for the corners the docstring promises.
# ----------------------------------------------------------------------
def test_saturation_both_bounds_preserves_stored_value():
    regs = RegisterFile(segments=SEGMENTS,
                        registers_per_segment=REGS_PER_SEGMENT)
    block = KVBlock.from_columns([0, 1], [INT32_MAX, INT32_MIN])
    assert not regs.add_block(block, 3)

    # Second add pushes past each bound: sticky set, value preserved,
    # sentinel written into the payload slot.
    again = KVBlock.from_columns([0, 1], [1, -1])
    assert regs.add_block(again, 3)
    assert again.values_list() == [INT32_MAX, INT32_MAX]
    assert regs.read_raw(0) == INT32_MAX
    assert regs.read_raw(1) == INT32_MIN
    assert regs.is_sticky(0) and regs.is_sticky(1)

    # Sticky registers read as the sentinel through the batch kernel too.
    probe = KVBlock.from_columns([0, 1], [0, 0])
    assert regs.get_block(probe, 3)
    assert probe.values_list() == [INT32_MAX, INT32_MAX]


def test_zero_result_add_evicts_register():
    regs = RegisterFile(segments=SEGMENTS,
                        registers_per_segment=REGS_PER_SEGMENT)
    regs.add_block(KVBlock.from_columns([5], [7]), 1)
    assert regs.occupied == 1
    regs.add_block(KVBlock.from_columns([5], [-7]), 1)
    assert regs.occupied == 0
    assert regs.read(5) == 0


def test_out_of_window_slots_are_skipped():
    regs = RegisterFile(segments=SEGMENTS,
                        registers_per_segment=REGS_PER_SEGMENT)
    base = CAPACITY  # second switch in a chain: addrs below are foreign
    block = KVBlock.from_columns([0, CAPACITY, CAPACITY + 1], [9, 9, 9])
    assert not regs.add_block(block, 7, base)
    assert regs.occupied_addrs() == [0, 1]
    regs.clear_block(block.addrs, -1, -base)
    assert regs.occupied == 0


def test_read_and_clear_still_raises_per_address():
    """server_agent failover relies on the pre-clear IndexError."""
    regs = RegisterFile(segments=SEGMENTS,
                        registers_per_segment=REGS_PER_SEGMENT)
    regs.write(3, 42)
    with pytest.raises(IndexError):
        regs.read_and_clear([3, CAPACITY])
    # The failed bulk read must not have cleared the valid address.
    assert regs.read_raw(3) == 42
    assert regs.read_and_clear([3]) == [(3, 42, False)]
    assert regs.occupied == 0
