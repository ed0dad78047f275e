"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import ModemConfig
from repro.core.metrics import TailStats
from repro.dsp.correlation import normalized_cross_correlation
from repro.dsp.energy import amplitude_to_spl, spl_to_amplitude
from repro.dsp.fftops import fft_interpolate_rows
from repro.modem.bits import (
    bit_error_rate,
    pack_bits,
    random_bits,
    unpack_bits,
)
from repro.modem.constellation import CONSTELLATIONS
from repro.modem.subchannels import ChannelPlan
from repro.security.hotp import hotp, hotp_token_bits
from repro.security.tokens import bits_to_token, token_to_bits
from repro.sensors.dtw import dtw_distance


bits_arrays = st.lists(st.integers(0, 1), min_size=1, max_size=200).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


class TestBitProperties:
    @given(bits_arrays)
    def test_pack_unpack_roundtrip(self, bits):
        assert np.array_equal(
            unpack_bits(pack_bits(bits), bits.size), bits
        )

    @given(bits_arrays)
    def test_ber_self_is_zero(self, bits):
        assert bit_error_rate(bits, bits.copy()) == 0.0

    @given(bits_arrays)
    def test_ber_complement_is_one(self, bits):
        assert bit_error_rate(bits, 1 - bits) == 1.0

    @given(bits_arrays, bits_arrays)
    def test_ber_symmetric_same_length(self, a, b):
        n = min(a.size, b.size)
        assume(n > 0)
        assert bit_error_rate(a[:n], b[:n]) == bit_error_rate(b[:n], a[:n])


class TestConstellationProperties:
    @given(
        st.sampled_from(sorted(CONSTELLATIONS)),
        st.integers(1, 50),
        st.integers(0, 2**31 - 1),
    )
    def test_map_demap_roundtrip(self, name, n_symbols, seed):
        c = CONSTELLATIONS[name]
        bits = random_bits(n_symbols * c.bits_per_symbol, rng=seed)
        assert np.array_equal(c.demap(c.map(bits)), bits)

    @given(st.sampled_from(sorted(CONSTELLATIONS)))
    def test_unit_energy(self, name):
        pts = np.asarray(CONSTELLATIONS[name].points)
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0)


class TestTokenProperties:
    @given(st.integers(0, 2**31 - 1))
    def test_token_bits_roundtrip(self, token):
        assert bits_to_token(token_to_bits(token, 31)) == token

    @given(st.binary(min_size=1, max_size=64), st.integers(0, 10_000))
    def test_hotp_in_range(self, key, counter):
        assert 0 <= hotp(key, counter) < 2**31

    @given(
        st.binary(min_size=1, max_size=32),
        st.integers(0, 1000),
        st.integers(1, 31),
    )
    def test_hotp_token_fits_width(self, key, counter, width):
        assert hotp_token_bits(key, counter, width) < 2**width


class TestSplProperties:
    @given(st.floats(min_value=-20.0, max_value=120.0))
    def test_spl_roundtrip(self, spl):
        assert amplitude_to_spl(spl_to_amplitude(spl)) == pytest.approx(spl)

    @given(
        st.floats(min_value=-20.0, max_value=100.0),
        st.floats(min_value=0.1, max_value=40.0),
    )
    def test_spl_monotone(self, spl, delta):
        assert spl_to_amplitude(spl + delta) > spl_to_amplitude(spl)


float_series = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=2,
    max_size=40,
).map(np.asarray)


class TestDtwProperties:
    @given(float_series)
    def test_identity(self, x):
        assert dtw_distance(x, x) == pytest.approx(0.0, abs=1e-9)

    @given(float_series, float_series)
    @settings(deadline=None)
    def test_symmetry(self, a, b):
        assert dtw_distance(a, b) == pytest.approx(
            dtw_distance(b, a), rel=1e-9, abs=1e-9
        )

    @given(float_series, float_series)
    @settings(deadline=None)
    def test_nonnegative(self, a, b):
        assert dtw_distance(a, b) >= 0.0

    @given(float_series, st.floats(min_value=-50, max_value=50))
    def test_shift_invariance_of_cost_lower_bound(self, x, c):
        """DTW(x, x+c) <= |c| * path length (each step costs |c|)."""
        shifted = x + c
        bound = abs(c) * (2 * x.size)
        assert dtw_distance(x, shifted) <= bound + 1e-6


class TestCorrelationProperties:
    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=4,
            max_size=64,
        ).map(np.asarray),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariance(self, x, scale):
        assume(float(np.dot(x, x)) > 1e-12)
        a = normalized_cross_correlation(x, x * scale)
        assert a == pytest.approx(1.0, abs=1e-6)


class TestFftInterpolateProperties:
    @given(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=2,
            max_size=32,
        ),
        st.integers(2, 6),
    )
    def test_original_samples_preserved(self, values, factor):
        v = np.asarray(values, dtype=complex)
        out = fft_interpolate_rows(v[None, :], factor)[0]
        assert out.size == v.size * factor
        assert np.allclose(out[::factor], v, atol=1e-8)


class TestSubchannelSelectionProperties:
    @given(st.integers(0, 2**31 - 1), st.integers(0, 5))
    @settings(deadline=None)
    def test_selection_never_picks_the_noisiest_bins(self, seed, n_jam):
        plan = ChannelPlan.from_config(ModemConfig())
        rng = np.random.default_rng(seed)
        noise = np.ones(129)
        candidates = list(plan.candidate_data_channels())
        jammed = rng.choice(
            candidates, size=min(n_jam, len(candidates)), replace=False
        )
        noise[jammed] = 1e6
        new = plan.select_data_channels(noise)
        assert len(new.data) == len(plan.data)
        # With plenty of clean candidates, jammed bins are never chosen.
        if len(candidates) - len(jammed) >= len(plan.data):
            assert not set(jammed) & set(new.data)


class TestTailStatsProperties:
    """``from_counts`` discretizes the same nearest-rank quantile that
    ``from_values`` reads off the sorted samples, so binning can move
    each percentile by at most half a bin width."""

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=0.999),
            min_size=1,
            max_size=200,
        ),
        st.integers(1, 64),
    )
    def test_from_counts_within_half_bin_of_from_values(
        self, values, n_bins
    ):
        lo, hi = 0.0, 1.0
        width = (hi - lo) / n_bins
        counts = np.zeros(n_bins, dtype=np.int64)
        for v in values:
            counts[min(int((v - lo) / width), n_bins - 1)] += 1
        exact = TailStats.from_values(values)
        binned = TailStats.from_counts(counts, lo, hi)
        assert binned.n == exact.n == len(values)
        for q in ("p50", "p95", "p99", "p999"):
            assert abs(getattr(binned, q) - getattr(exact, q)) <= (
                width / 2 + 1e-12
            )

    @given(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0),
            min_size=1,
            max_size=100,
        )
    )
    def test_from_values_percentiles_are_samples(self, values):
        tail = TailStats.from_values(values)
        # Nearest-rank quantiles are always actual observations.
        assert tail.p50 in values
        assert tail.p95 in values
        assert tail.p99 in values
        assert tail.p999 in values
        assert tail.p50 <= tail.p95 <= tail.p99 <= tail.p999
