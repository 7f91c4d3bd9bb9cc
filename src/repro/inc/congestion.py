"""ECN-driven AIMD congestion control (paper §5.1).

Traditional RTT/dup-ACK signals are useless under CntFwd (the switch
intentionally holds packets until the slowest sender arrives), so
NetRPC reacts only to explicit congestion marks echoed by the switch:

* an ECN-marked ACK/result triggers one multiplicative decrease per
  round-trip;
* clean ACKs grow the window additively (``aimd_increase`` packets per
  RTT, implemented as the standard per-ACK ``increase/cwnd`` ramp);
* a retransmission timeout collapses the window to the minimum.

The controller can be disabled (fixed window at ``w_max``) to reproduce
the paper's with/without-congestion-control comparison (Figure 9).
"""

from __future__ import annotations

from repro.netsim import Calibration, DEFAULT_CALIBRATION
from repro.obs.tracer import TRACE

__all__ = ["AIMDController", "DCTCPController", "make_controller"]


class AIMDController:
    """Per-flow congestion window state.

    ``cwnd`` (usable window in packets, always within [min_cwnd, w_max])
    and ``rtt_estimate`` are plain attributes the controller keeps
    current, so the transport reads them per packet without a call.
    """

    def __init__(self, cal: Calibration = DEFAULT_CALIBRATION,
                 enabled: bool = True):
        self.cal = cal
        self.enabled = enabled
        self._set_cwnd(float(cal.initial_cwnd if enabled else cal.w_max))
        self._last_decrease = -1.0
        self._rtt_ewma = 0.0
        self.rtt_estimate = cal.retransmit_timeout_s / 2.0
        self.stats = {"decreases": 0, "timeouts": 0, "acks": 0}

    def _set_cwnd(self, cwnd: float) -> None:
        self._cwnd = cwnd
        self.cwnd = max(self.cal.min_cwnd, min(self.cal.w_max, int(cwnd)))

    # ------------------------------------------------------------------
    def observe_rtt(self, sample_s: float) -> None:
        if sample_s <= 0:
            return
        if self._rtt_ewma == 0.0:
            self._rtt_ewma = sample_s
        else:
            self._rtt_ewma = 0.875 * self._rtt_ewma + 0.125 * sample_s
        self.rtt_estimate = self._rtt_ewma

    def on_ack(self, ecn: bool, now: float) -> None:
        """One packet acknowledged; ``ecn`` is the echoed congestion mark."""
        self.stats["acks"] += 1
        if not self.enabled:
            return
        if ecn:
            # At most one multiplicative decrease per RTT, so a burst of
            # marked ACKs from the same congestion event counts once.
            if now - self._last_decrease >= self.rtt_estimate:
                self._set_cwnd(max(self.cal.min_cwnd,
                                   self._cwnd * self.cal.aimd_decrease))
                self._last_decrease = now
                self.stats["decreases"] += 1
                if TRACE.enabled:
                    TRACE.instant("cc.decrease", now, "cc", (self.cwnd,))
            return
        # The per-ACK ramp, inline (_set_cwnd's clamp; cwnd <= w_max here).
        cal = self.cal
        cwnd = self._cwnd = min(float(cal.w_max),
                                self._cwnd + cal.aimd_increase / self._cwnd)
        self.cwnd = max(cal.min_cwnd, int(cwnd))

    def on_fast_loss(self, now: float) -> None:
        """Loss inferred from out-of-order ACKs.

        Deliberately *not* a congestion signal: under CntFwd a missing
        ACK usually means the switch is waiting for the slowest sender,
        and the paper's design reacts to ECN only (§5.1).  The hole is
        healed by retransmission; the window stays put.
        """
        self.stats["fast_losses"] = self.stats.get("fast_losses", 0) + 1

    def on_timeout(self, now: float) -> None:
        """Retransmission timeout.

        Same rationale as :meth:`on_fast_loss`: timeouts do not reflect
        real congestion in INC primitives (§5.1), so the window is not
        collapsed — ECN alone modulates it.
        """
        self.stats["timeouts"] += 1


class DCTCPController(AIMDController):
    """DCTCP-style proportional window adjustment (the paper's §7 plan).

    Instead of one multiplicative cut per marked round trip, the window
    shrinks in proportion to the observed *fraction* of marked ACKs,
    smoothed with DCTCP's g = 1/16 EWMA:

        alpha <- (1 - g) * alpha + g * marked_fraction
        cwnd  <- cwnd * (1 - alpha / 2)        (once per RTT)

    The paper notes plain DCTCP mis-measures multi-path incast (it would
    need the per-path maximum, not the total fraction); this controller
    is provided as the future-work extension and compared against AIMD
    in ``benchmarks/bench_ablation.py``.
    """

    G = 1.0 / 16.0

    def __init__(self, cal: Calibration = DEFAULT_CALIBRATION,
                 enabled: bool = True):
        super().__init__(cal, enabled)
        self.alpha = 0.0
        self._window_acks = 0
        self._window_marked = 0

    def on_ack(self, ecn: bool, now: float) -> None:
        self.stats["acks"] += 1
        if not self.enabled:
            return
        self._window_acks += 1
        if ecn:
            self._window_marked += 1
        # Close the observation window once per RTT.
        if now - self._last_decrease >= self.rtt_estimate and \
                self._window_acks > 0:
            fraction = self._window_marked / self._window_acks
            self.alpha = (1 - self.G) * self.alpha + self.G * fraction
            if self.alpha > 0:
                self._set_cwnd(max(self.cal.min_cwnd,
                                   self._cwnd * (1 - self.alpha / 2)))
                if fraction > 0:
                    self.stats["decreases"] += 1
                    if TRACE.enabled:
                        TRACE.instant("cc.decrease", now, "cc",
                                      (self.cwnd,))
            self._last_decrease = now
            self._window_acks = 0
            self._window_marked = 0
        if not ecn:
            self._set_cwnd(min(float(self.cal.w_max),
                               self._cwnd + self.cal.aimd_increase
                               / max(1.0, self._cwnd)))


def make_controller(mode: str, cal: Calibration = DEFAULT_CALIBRATION,
                    enabled: bool = True) -> AIMDController:
    """Controller factory: ``aimd`` (the paper's design) or ``dctcp``."""
    if mode == "aimd":
        return AIMDController(cal, enabled=enabled)
    if mode == "dctcp":
        return DCTCPController(cal, enabled=enabled)
    raise ValueError(f"unknown congestion-control mode {mode!r}; "
                     f"expected 'aimd' or 'dctcp'")
