"""Tests for the flip-bit retransmission protocol (paper §5.1).

Includes a property-based check of the induction invariant the paper
proves: under the sender window discipline, a packet's first appearance
is always processed and every retransmission is always skipped.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.switchsim import FlowStateTable


def flip_of(seq, w_max):
    return (seq // w_max) % 2


class TestAllocation:
    def test_slots_allocate_sequentially(self):
        table = FlowStateTable(slots=4)
        assert [table.allocate() for _ in range(4)] == [0, 1, 2, 3]

    def test_exhaustion_raises(self):
        table = FlowStateTable(slots=1)
        table.allocate()
        with pytest.raises(RuntimeError):
            table.allocate()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FlowStateTable(slots=0)
        with pytest.raises(ValueError):
            FlowStateTable(w_max=0)


class TestFlipBitProtocol:
    def test_first_appearance_is_new(self):
        table = FlowStateTable(w_max=8)
        slot = table.allocate()
        assert not table.check_and_update(slot, 0, flip_of(0, 8))

    def test_retransmission_detected(self):
        table = FlowStateTable(w_max=8)
        slot = table.allocate()
        table.check_and_update(slot, 0, 0)
        assert table.check_and_update(slot, 0, 0)

    def test_multiple_retransmissions_all_detected(self):
        table = FlowStateTable(w_max=8)
        slot = table.allocate()
        table.check_and_update(slot, 3, 0)
        for _ in range(5):
            assert table.check_and_update(slot, 3, 0)

    def test_next_window_same_index_is_new(self):
        w = 8
        table = FlowStateTable(w_max=w)
        slot = table.allocate()
        assert not table.check_and_update(slot, 0, flip_of(0, w))
        # seq w maps to the same bit with the opposite flip.
        assert not table.check_and_update(slot, w, flip_of(w, w))

    def test_full_window_then_next(self):
        w = 8
        table = FlowStateTable(w_max=w)
        slot = table.allocate()
        for seq in range(w):
            assert not table.check_and_update(slot, seq, flip_of(seq, w))
        for seq in range(w, 2 * w):
            assert not table.check_and_update(slot, seq, flip_of(seq, w))

    def test_independent_slots(self):
        table = FlowStateTable(w_max=8)
        a, b = table.allocate(), table.allocate()
        table.check_and_update(a, 0, 0)
        assert not table.check_and_update(b, 0, 0)

    def test_validates_inputs(self):
        table = FlowStateTable(w_max=8)
        slot = table.allocate()
        with pytest.raises(ValueError):
            table.check_and_update(slot, -1, 0)
        with pytest.raises(ValueError):
            table.check_and_update(slot, 0, 2)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=4),  # retransmit count per packet
       st.integers(min_value=2, max_value=16),  # w_max
       st.integers(min_value=20, max_value=80),  # number of packets
       st.randoms(use_true_random=False))
def test_idempotence_invariant_under_window_discipline(retx, w_max, n, rnd):
    """Property: with the sender window invariant (packet i of window t is
    sent only after packet i of window t-1 was processed), every first
    appearance is NEW and every retransmission is RETRANSMIT — for any
    interleaving of retransmissions within the window.
    """
    table = FlowStateTable(w_max=w_max)
    slot = table.allocate()
    # Model: process packets seq=0..n-1 in order (the window discipline
    # guarantees order across windows), but between a packet's first
    # appearance and seq+w_max, inject random duplicate deliveries of any
    # packet in the current window.
    for seq in range(n):
        flip = flip_of(seq, w_max)
        assert table.check_and_update(slot, seq, flip) is False, \
            f"first appearance of {seq} misdetected as retransmission"
        # Duplicates of any packet still inside the current window.
        window_start = max(0, seq - w_max + 1)
        for _ in range(rnd.randint(0, retx)):
            dup = rnd.randint(window_start, seq)
            assert table.check_and_update(slot, dup, flip_of(dup, w_max)), \
                f"duplicate of {dup} treated as new"
