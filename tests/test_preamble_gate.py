"""The delay-profile gate takes the noise-floor median only where it can win.

``PreambleDetector.matches_from_scores`` gates each locked row's delay
profile at ``max(0.25·peak⁺, 3·median|s|)`` but skips the median where
a count proves ``3·median ≤ 0.25·peak⁺``.  These tests compare it field
for field with the oracle's ``match_from_scores``, which takes
``np.median`` of every trace, on stacks built to sit on that boundary:
the median exactly at it or one ulp either side, odd and even lengths,
middle pairs that straddle it, all-zero traces, NaN entries, and
unlocked rows in between.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModemConfig
from repro.errors import PreambleNotFoundError
from repro.modem.preamble import PreambleDetector, _exact_medians
from tests import modem_oracle

CONFIG = ModemConfig()
M = CONFIG.preamble_length


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def oracle_rows(stack: np.ndarray, threshold: float) -> list:
    """Per row, ``(start, score bits, profile bytes)`` or the score bits."""
    rows = []
    for trace in stack:
        try:
            match = modem_oracle.match_from_scores(trace, M, threshold)
        except PreambleNotFoundError as exc:
            rows.append(_bits(exc.score))
            continue
        rows.append(
            (match.start, _bits(match.score), match.delay_profile.tobytes())
        )
    return rows


def kernel_rows(stack: np.ndarray, threshold: float) -> list:
    detector = PreambleDetector(CONFIG, threshold=threshold)
    rows = []
    for match, peak in detector.matches_from_scores(stack):
        if match is None:
            rows.append(_bits(peak))
            continue
        assert _bits(match.score) == _bits(peak)
        rows.append(
            (match.start, _bits(match.score), match.delay_profile.tobytes())
        )
    return rows


def boundary_trace(
    rng: np.random.Generator, n: int, floor: float, shift: int, straddle: bool
) -> np.ndarray:
    """A length-``n`` trace (``n ≥ 3``, even ``n ≥ 4``) on its gate.

    The middle order statistics of ``|s|`` are ``floor`` (both of them
    for an even ``n``), or with ``straddle`` an even ``n``'s middle pair
    is ``floor ∓ floor/2``, of which only the lower passes the count.
    The peak ``p`` makes ``0.25·p`` equal ``fl(3·floor)`` moved by
    ``shift`` ulps.  Right after the peak sit both gate candidates,
    ``0.25·p`` and ``3·median``, and the neighbours of the latter, so
    a profile tells the two gates apart even one ulp away.
    """
    below = (n - 1) // 2
    lows = rng.uniform(0.0, floor / 4.0, below)
    if straddle and n % 2 == 0:
        middle = [floor / 2.0, floor * 1.5]
    else:
        lows[rng.random(below) < 0.3] = floor  # ties from below
        middle = [floor] * (2 - n % 2)
    median = (middle[0] + middle[-1]) / 2.0
    rel = 3.0 * floor
    for _ in range(abs(shift)):
        rel = np.nextafter(rel, np.inf if shift > 0 else -np.inf)
    peak = 4.0 * rel
    gate = 3.0 * median
    highs = n - 1 - below - len(middle)
    probes = [rel, gate]
    probes += [np.nextafter(gate, -np.inf), np.nextafter(gate, np.inf)]
    probes = probes[:highs]
    others = np.concatenate(
        (lows, middle, rng.uniform(2.0 * floor, peak, highs - len(probes)))
    )
    others = rng.permutation(others * rng.choice([-1.0, 1.0], others.size))
    at = rng.integers(0, others.size - len(probes) + 1)
    block = [peak] + probes
    return np.concatenate((others[:at], block, others[at:]))


@st.composite
def stacks(draw):
    """A stack of equal-length traces, each of one random kind."""
    n = draw(st.integers(min_value=1, max_value=90))
    rows = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(rows):
        kind = draw(
            st.sampled_from(["boundary", "zeros", "nan", "noise", "quiet"])
        )
        if kind == "boundary" and n >= 3 + (n + 1) % 2:
            out.append(
                boundary_trace(
                    rng,
                    n,
                    floor=draw(st.floats(1e-3, 1.0 / 12.0)),
                    shift=draw(st.sampled_from([-1, 0, 1])),
                    straddle=draw(st.booleans()),
                )
            )
        elif kind == "zeros":
            out.append(np.zeros(n))
        elif kind == "nan":
            trace = rng.uniform(-1.0, 1.0, n)
            trace[rng.integers(0, n, draw(st.integers(1, 3)))] = np.nan
            out.append(trace)
        elif kind == "quiet":
            # A clear peak over a floor far below it: the count decides.
            trace = rng.uniform(-0.01, 0.01, n)
            trace[rng.integers(0, n)] = draw(st.floats(0.0, 1.0))
            out.append(trace)
        else:
            out.append(rng.uniform(-1.0, 1.0, n))
    return np.stack(out)


THRESHOLDS = st.sampled_from([CONFIG.detection_threshold, 0.0, -0.5, 0.5])


class TestGateAgainstMedianOracle:
    @settings(max_examples=400, deadline=None)
    @given(stack=stacks(), threshold=THRESHOLDS)
    def test_every_field_matches_the_oracle(self, stack, threshold):
        assert kernel_rows(stack, threshold) == oracle_rows(stack, threshold)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 41, 42])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("straddle", [False, True])
    def test_median_on_the_gate(self, n, shift, straddle):
        rng = np.random.default_rng(n * 10 + shift)
        stack = np.stack(
            [
                boundary_trace(rng, n, floor, shift, straddle)
                for floor in (1.0 / 24.0, 0.01, 0.07)
            ]
        )
        threshold = CONFIG.detection_threshold
        assert kernel_rows(stack, threshold) == oracle_rows(stack, threshold)

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_all_zero_traces_lock_at_a_zero_threshold(self, n):
        stack = np.zeros((2, n))
        assert kernel_rows(stack, 0.0) == oracle_rows(stack, 0.0)
        ((match, peak), _) = PreambleDetector(
            CONFIG, threshold=0.0
        ).matches_from_scores(stack)
        assert match is not None and not match.delay_profile.any()

    def test_nan_peak_locks_with_an_empty_profile(self):
        stack = np.full((2, 9), 0.01)
        stack[0, 4] = 0.5
        stack[1, 6] = np.nan
        assert kernel_rows(stack, 0.05) == oracle_rows(stack, 0.05)

    def test_mixed_locked_and_unlocked_rows(self):
        rng = np.random.default_rng(5)
        stack = rng.uniform(-0.04, 0.04, (6, 33))
        stack[::2, 10] = 0.9
        assert kernel_rows(stack, 0.05) == oracle_rows(stack, 0.05)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 4),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    nans=st.integers(0, 3),
)
def test_exact_medians_equal_np_median(rows, n, seed, nans):
    rng = np.random.default_rng(seed)
    # Few distinct values, so middle pairs tie and straddle alike.
    stack = rng.integers(0, 6, (rows, n)) * rng.uniform(0.0, 1.0)
    stack[0, rng.integers(0, n, nans)] = np.nan
    expected = np.median(stack, axis=1)
    assert _exact_medians(stack).tobytes() == expected.tobytes()
