"""Differential proof of the RegisterFile bulk kernels.

The columnar kernels (``add_block`` / ``get_block`` / ``add_get_block``
/ ``clear_block``) exist purely for speed — each must be bit-identical
to the scalar reference it fused: a per-slot loop over plain
address/value lists calling ``RegisterFile.add`` / ``read`` / ``clear`` exactly the way the
pre-columnar pipeline did.  Hypothesis drives both implementations with
the same random program (slots, selection bitmap, phys-base window,
pre-existing register state including sticky bits) and the final
register state, payload mutations, and the returned masks (the
unapplied slots of an add, the sticky slots of a get) must agree.

Covered corners, per the scalar contract:

* saturation at both int32 bounds (sticky set, stored value preserved);
* reads of sticky registers returning the ``INT32_MAX`` sentinel;
* bitmap subsets (unselected slots untouched);
* out-of-window addresses under a non-zero phys base (skipped silently);
* zero-result adds leaving the register zero and out of ``occupied``;
* ``add_get_block`` equivalence to ``add_block`` + ``get_block`` for
  distinct addresses (the linear-packet precondition it is gated on);
* ``combine_block`` under the integer codec's ``add_bits`` equal to
  ``add_block``: the generic kernel the fp ops run and the integer fast
  kernel are one arithmetic;
* whole-row blocks — a ``range`` address column, as dense linear chunks
  carry — at aligned and unaligned starts, in and out of window, with
  sticky registers present and sums past either int32 bound, under 4
  and 32 segments: the same results as the scalar reference, and the
  row path taken exactly when its preconditions hold; an ``array`` of
  the same row's addresses in permuted order walks the slots.

Register state is read through the public API only (``occupied_addrs``,
``read_raw``, ``is_sticky``), so the proof holds for any storage layout.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.protocol import INT32_MAX, INT32_MIN, KVBlock, Quantizer
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


def make_sticky(regs, addr):
    """Set ``addr``'s sticky bit, keeping its stored value: the one add
    that lands just past the int32 bound on its side of zero."""
    value = regs.read_raw(addr)
    delta = INT32_MAX + 1 - value if value >= 0 else INT32_MIN - 1 - value
    assert regs.add(addr, delta) and regs.read_raw(addr) == value


def seeded_registers(pre_values, pre_sticky, segments=SEGMENTS,
                     registers_per_segment=REGS_PER_SEGMENT):
    """Two identical register files with the given starting state."""
    out = []
    for _ in range(2):
        regs = RegisterFile(segments=segments,
                            registers_per_segment=registers_per_segment)
        for addr, value in pre_values.items():
            regs.write(addr, value)
        for addr in sorted(pre_sticky):
            make_sticky(regs, addr)
        out.append(regs)
    return out


def state(regs):
    """Register contents through the public API only: the non-zero
    registers with their exact values, and the sticky addresses."""
    return ({addr: regs.read_raw(addr) for addr in regs.occupied_addrs()},
            {addr for addr in range(regs.capacity) if regs.is_sticky(addr)})


# ----------------------------------------------------------------------
# Scalar references: the pre-columnar per-kv loops, verbatim semantics.
# ----------------------------------------------------------------------
def scalar_add(regs, addrs, values, select, base):
    """The mask of the slots the adds did not apply."""
    unapplied = 0
    for index, addr in enumerate(addrs):
        if select >> index & 1:
            local = addr - base
            if 0 <= local < regs.capacity:
                if regs.add(local, values[index]):
                    values[index] = INT32_MAX
                    unapplied |= 1 << index
    return unapplied


def scalar_get(regs, addrs, values, select, base):
    """The mask of the slots that read sticky."""
    sticky = 0
    for index, addr in enumerate(addrs):
        if select >> index & 1:
            local = addr - base
            if 0 <= local < regs.capacity:
                if regs.is_sticky(local):
                    sticky |= 1 << index
                values[index] = regs.read(local)
    return sticky


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

    # Distinct addresses: a slot reads sticky exactly when its add was
    # refused.
    assert fused_of == add_of == get_of
    assert fused.values_list() == two_pass.values_list()
    assert state(fused_regs) == state(two_pass_regs)


@settings(max_examples=200, deadline=None)
@given(slots=slots_st, select=select_st, base=base_st,
       pre_values=pre_values_st, pre_sticky=pre_sticky_st)
def test_combine_block_under_the_integer_add_equals_add_block(
        slots, select, base, pre_values, pre_sticky):
    """``add_block`` is ``combine_block`` specialised to
    ``Quantizer.add_bits``: values, sticky set and unapplied mask agree
    slot for slot."""
    combine_regs, add_regs = seeded_registers(pre_values, pre_sticky)
    combined = KVBlock.from_columns([addr for addr, _ in slots],
                                    [value for _, value in slots])
    added = combined.copy()

    combine_mask = combine_regs.combine_block(combined, select, base,
                                              Quantizer.add_bits)
    add_mask = add_regs.add_block(added, select, base)

    assert combine_mask == add_mask
    assert combined.values_list() == added.values_list()
    assert state(combine_regs) == state(add_regs)


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
    assert len(regs.occupied_addrs()) == 1
    regs.add_block(KVBlock.from_columns([5], [-7]), 1)
    assert len(regs.occupied_addrs()) == 0
    assert regs.read(5) == 0


def test_out_of_window_slots_are_skipped():
    regs = RegisterFile(segments=SEGMENTS,
                        registers_per_segment=REGS_PER_SEGMENT)
    base = CAPACITY  # second switch in a chain: addrs below are foreign
    block = KVBlock.from_columns([0, CAPACITY, CAPACITY + 1], [9, 9, 9])
    assert not regs.add_block(block, 7, base)
    assert regs.occupied_addrs() == [0, 1]
    regs.clear_block(block.addrs, -1, -base)
    assert len(regs.occupied_addrs()) == 0


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
    assert len(regs.occupied_addrs()) == 0


# ----------------------------------------------------------------------
# Whole-row blocks: range address columns against the scalar reference.
# ----------------------------------------------------------------------
GEOMETRIES = [(4, 8), (32, 4)]       # (segments, registers per segment)
SLOT_KERNELS = ("_add_slots", "_get_slots", "_clear_slots")


def spy_slot_paths(regs):
    """Count the per-slot fallbacks ``regs`` takes from here on."""
    calls = []
    for name in SLOT_KERNELS:
        method = getattr(regs, name)

        def spy(*args, _method=method, _name=name):
            calls.append(_name)
            return _method(*args)
        setattr(regs, name, spy)
    return calls


@st.composite
def row_programs(draw):
    segments, per_segment = draw(st.sampled_from(GEOMETRIES))
    capacity = segments * per_segment
    base = draw(st.sampled_from([-segments, 0, 8, capacity + 8]))
    # Mostly in-window aligned rows; one row either side of the window
    # and off-boundary starts for the rest.
    row = draw(st.one_of(st.integers(0, per_segment - 1),
                         st.sampled_from([-1, per_segment])))
    shift = draw(st.sampled_from([0, 0, 0, 1, segments - 1]))
    count = draw(st.one_of(st.just(segments),
                           st.integers(min_value=1, max_value=segments)))
    start = base + row * segments + shift
    values = draw(st.lists(values_st, min_size=count, max_size=count))
    full = (1 << count) - 1
    select = full if draw(st.sampled_from([True, True, True, False])) \
        else draw(st.integers(0, full))
    pre_value_st = st.one_of(
        st.integers(min_value=-100, max_value=100).filter(bool),
        st.sampled_from([INT32_MAX, INT32_MIN]))
    pre_values = draw(st.dictionaries(
        st.integers(min_value=0, max_value=capacity - 1), pre_value_st,
        max_size=6))
    # Registers under the block itself, so that sums cross int32.
    local = start - base
    pre_values.update(
        (local + slot, value) for slot, value in draw(st.dictionaries(
            st.integers(0, count - 1), pre_value_st, max_size=4)).items()
        if 0 <= local + slot < capacity)
    pre_sticky = set() if draw(st.sampled_from([True, True, False])) \
        else draw(st.sets(st.integers(0, capacity - 1), min_size=1,
                          max_size=2))
    return (segments, per_segment, base, range(start, start + count),
            values, select, pre_values, pre_sticky)


def takes_row_path(regs, addrs, select, base, values=None):
    """The whole-row preconditions, spelled out independently."""
    local = addrs.start - base
    if local % regs.segments or not 0 <= local < regs.capacity or \
            len(addrs) > regs.segments or \
            select != (1 << len(addrs)) - 1 or \
            any(regs.is_sticky(a) for a in range(regs.capacity)):
        return False
    return values is None or all(
        INT32_MIN <= regs.read_raw(addr - base) + value <= INT32_MAX
        for addr, value in zip(addrs, values))


@settings(max_examples=300, deadline=None)
@given(program=row_programs(),
       kernel=st.sampled_from(["add", "get", "add_get", "clear"]))
def test_range_blocks_match_scalar_reference(program, kernel):
    segments, per_segment, base, addrs, values, select, pre_values, \
        pre_sticky = program
    kernel_regs, ref_regs = seeded_registers(pre_values, pre_sticky,
                                             segments, per_segment)
    block = KVBlock.from_columns(addrs, values)
    assert block.addrs is addrs                  # the fact rides the type
    ref_values = list(values)
    row_path = takes_row_path(kernel_regs, addrs, select, base,
                              values if kernel in ("add", "add_get")
                              else None)
    calls = spy_slot_paths(kernel_regs)

    if kernel == "clear":
        kernel_regs.clear_block(addrs, select, -base)
        scalar_clear(ref_regs, list(addrs), select, -base)
        kernel_of = ref_of = 0
    elif kernel == "add":
        kernel_of = kernel_regs.add_block(block, select, base)
        ref_of = scalar_add(ref_regs, list(addrs), ref_values, select, base)
    elif kernel == "get":
        kernel_of = kernel_regs.get_block(block, select, base)
        ref_of = scalar_get(ref_regs, list(addrs), ref_values, select, base)
    else:
        kernel_of = kernel_regs.add_get_block(block, select, base)
        ref_of = scalar_add(ref_regs, list(addrs), ref_values, select, base)
        assert scalar_get(ref_regs, list(addrs), ref_values, select,
                          base) == ref_of

    assert kernel_of == ref_of
    assert block.values_list() == ref_values
    assert state(kernel_regs) == state(ref_regs)
    assert len(kernel_regs.occupied_addrs()) == len(ref_regs.occupied_addrs())
    if row_path:
        assert calls == []
    else:
        assert len(calls) == 1


@settings(max_examples=100, deadline=None)
@given(geometry=st.sampled_from(GEOMETRIES), data=st.data())
def test_permuted_row_in_an_array_walks_the_slots(geometry, data):
    # The same addresses as a whole aligned row, out of order and in an
    # array: not a range, so the per-slot kernels run — and still agree
    # with the scalar reference.
    segments, per_segment = geometry
    row = data.draw(st.integers(0, per_segment - 1))
    addrs = data.draw(st.permutations(
        range(row * segments, (row + 1) * segments)))
    values = data.draw(st.lists(values_st, min_size=segments,
                                max_size=segments))
    kernel_regs, ref_regs = seeded_registers({}, set(), segments,
                                             per_segment)
    block = KVBlock.from_columns(addrs, values)
    calls = spy_slot_paths(kernel_regs)
    full = (1 << segments) - 1
    ref_values = list(values)
    kernel_of = kernel_regs.add_get_block(block, full)
    ref_of = scalar_add(ref_regs, addrs, ref_values, full, 0)
    assert scalar_get(ref_regs, addrs, ref_values, full, 0) == ref_of
    assert kernel_of == ref_of
    assert block.values_list() == ref_values
    assert state(kernel_regs) == state(ref_regs)
    kernel_regs.clear_block(block.addrs)
    assert calls == ["_add_slots", "_clear_slots"]
    assert len(kernel_regs.occupied_addrs()) == 0


def test_overflowing_row_falls_back_to_per_slot_sticky_semantics():
    kernel_regs, ref_regs = seeded_registers({5: INT32_MAX, 6: 3}, set())
    block = KVBlock.from_columns(range(4, 8), [1, 1, 1, 1])
    ref_values = [1, 1, 1, 1]
    assert kernel_regs.add_get_block(block, 0b1111)
    scalar_add(ref_regs, list(range(4, 8)), ref_values, 0b1111, 0)
    scalar_get(ref_regs, list(range(4, 8)), ref_values, 0b1111, 0)
    assert block.values_list() == ref_values == [1, INT32_MAX, 4, 1]
    assert state(kernel_regs) == state(ref_regs)
    assert kernel_regs.read_raw(5) == INT32_MAX and kernel_regs.is_sticky(5)


def test_row_diagnostics_count_nonzero_registers_only():
    regs = RegisterFile(segments=SEGMENTS,
                        registers_per_segment=REGS_PER_SEGMENT)
    block = KVBlock.from_columns(range(4, 8), [3, 0, -2, 0])
    assert not regs.add_get_block(block, 0b1111)
    assert block.values_list() == [3, 0, -2, 0]
    assert len(regs.occupied_addrs()) == 2
    assert regs.occupied_addrs() == [4, 6]
    # A partial row from its first register; the rest stays as it was.
    regs.add_block(KVBlock.from_columns(range(4, 6), [1, 9]), 0b11)
    assert regs.occupied_addrs() == [4, 5, 6]
    assert [regs.read(a) for a in range(4, 8)] == [4, 9, -2, 0]
    probe = KVBlock.from_columns(range(4, 7), [7, 7, 7])
    assert not regs.get_block(probe, 0b111)
    assert probe.values_list() == [4, 9, -2]
    # Cleared registers inside a live row leave the count.
    regs.clear_block(range(4, 6))
    assert regs.occupied_addrs() == [6]
    # read_and_clear reports exact values and drops them.
    regs.write(12, 5)
    assert regs.read_and_clear(range(4, 8)) == \
        [(4, 0, False), (5, 0, False), (6, -2, False), (7, 0, False)]
    assert regs.occupied_addrs() == [12]
    regs.clear_block(range(12, 16))               # a whole row goes
    assert len(regs.occupied_addrs()) == 0 and regs.occupied_addrs() == []


def test_power_cycle_forgets_rows_and_sticky_bits():
    regs = RegisterFile(segments=SEGMENTS,
                        registers_per_segment=REGS_PER_SEGMENT)
    regs.add_get_block(KVBlock.from_columns(range(8, 12), [1, 2, 3, 4]),
                       0b1111)
    regs.write(30, 7)
    make_sticky(regs, 30)
    assert len(regs.occupied_addrs()) == 5 and regs.is_sticky(30)
    regs.power_cycle()
    assert len(regs.occupied_addrs()) == 0 and not regs.is_sticky(30)
    assert [regs.read(a) for a in (8, 11, 30)] == [0, 0, 0]
