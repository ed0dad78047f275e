"""Additional property-based tests: plans, HOTP windows, delay spread,
population categorical picks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.multipath import rms_delay_spread
from repro.config import ModemConfig, SecurityConfig
from repro.fleet.population import ARCHETYPES, _categorical_cdf, _categorical_pick
from repro.modem.coding import BlockInterleaver
from repro.modem.bits import random_bits
from repro.modem.subchannels import ChannelPlan
from repro.protocol.events import Timeline
from repro.security.hotp import hotp_token_bits
from repro.security.otp import OtpManager


class TestPlanProperties:
    @given(st.integers(0, 2**31 - 1))
    @settings(deadline=None, max_examples=25)
    def test_selection_output_always_valid_plan(self, seed):
        """Any noise vector produces a structurally valid plan."""
        plan = ChannelPlan.from_config(ModemConfig())
        rng = np.random.default_rng(seed)
        noise = 10.0 ** rng.uniform(-3, 6, size=129)
        new = plan.select_data_channels(noise)
        # Constructor validation ran, so structural invariants hold;
        # double-check the critical ones explicitly.
        assert len(new.data) == len(plan.data)
        assert not set(new.data) & set(new.pilots)
        lo, hi = min(new.pilots), max(new.pilots)
        assert all(lo <= b <= hi for b in new.data)

    def test_near_ultrasound_shift_preserves_structure(self):
        base = ChannelPlan.from_config(ModemConfig())
        shifted = ChannelPlan.from_config(ModemConfig().near_ultrasound())
        assert shifted.pilot_spacing == base.pilot_spacing
        assert len(shifted.data) == len(base.data)
        assert len(shifted.null_channels(0)) == len(base.null_channels(0))


class TestHotpWindowProperties:
    @given(st.integers(0, 200), st.integers(0, 3))
    @settings(deadline=None, max_examples=40)
    def test_window_accepts_exactly_drift_within_lookahead(
        self, start, drift
    ):
        config = SecurityConfig(counter_look_ahead=3)
        mgr = OtpManager(b"key", config=config, initial_counter=start)
        token = hotp_token_bits(b"key", start + drift, mgr.token_bits)
        result = mgr.verify(token)
        assert result.ok
        assert result.matched_counter == start + drift
        # Counter always moves strictly past the matched value.
        assert mgr.counter == start + drift + 1

    @given(st.integers(0, 100))
    @settings(deadline=None, max_examples=20)
    def test_consumed_token_never_replays(self, start):
        mgr = OtpManager(b"key", initial_counter=start)
        token = mgr.generate()
        assert mgr.verify(token).ok
        assert not mgr.verify(token).ok


class TestDelaySpreadProperties:
    # Subnormal taps are excluded: scaling one below the smallest
    # subnormal flushes it to exactly zero, which erases the tap and
    # legitimately changes the spread — not an invariance violation.
    profiles = st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_subnormal=False),
        min_size=1,
        max_size=64,
    ).map(np.asarray)

    @given(profiles)
    def test_nonnegative(self, profile):
        assert rms_delay_spread(profile, 44_100.0) >= 0.0

    @given(profiles, st.floats(min_value=0.1, max_value=100.0))
    def test_scale_invariance(self, profile, scale):
        a = rms_delay_spread(profile, 44_100.0)
        b = rms_delay_spread(profile * scale, 44_100.0)
        assert a == pytest.approx(b, abs=1e-12)

    @given(profiles)
    def test_bounded_by_window(self, profile):
        """τ_rms can never exceed the profile's time extent."""
        tau = rms_delay_spread(profile, 44_100.0)
        assert tau <= profile.size / 44_100.0


class TestInterleaverProperties:
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 400),
        st.integers(0, 2**31 - 1),
    )
    @settings(deadline=None, max_examples=40)
    def test_roundtrip(self, rows, cols, n_bits, seed):
        il = BlockInterleaver(rows, cols)
        bits = random_bits(n_bits, rng=seed)
        if n_bits == 0:
            return
        out = il.deinterleave(il.interleave(bits), n_bits)
        assert np.array_equal(out, bits)

    @given(st.integers(2, 10), st.integers(2, 10))
    @settings(deadline=None, max_examples=20)
    def test_interleaving_is_a_permutation(self, rows, cols):
        il = BlockInterleaver(rows, cols)
        n = rows * cols
        identity = np.arange(n) % 2
        inter = il.interleave(identity.astype(np.uint8))
        assert sorted(inter.tolist()) == sorted(identity.tolist())


class TestTimelineProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0),
            min_size=1,
            max_size=20,
        )
    )
    def test_total_is_sum_of_durations(self, durations):
        tl = Timeline()
        for i, d in enumerate(durations):
            tl.record(f"e{i}", d, "cat")
        assert tl.total == pytest.approx(sum(durations))
        assert tl.by_category()["cat"] == pytest.approx(sum(durations))

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0),
            min_size=2,
            max_size=10,
        )
    )
    def test_events_never_overlap(self, durations):
        tl = Timeline()
        for i, d in enumerate(durations):
            tl.record(f"e{i}", d, "cat")
        events = tl.events
        for a, b in zip(events, events[1:]):
            assert b.start == pytest.approx(a.end)


#: Every weight vector the population draws from: the archetype
#: weights, each archetype's day mix (in the sorted order a profile
#: stores it) and each activity mix.
_POPULATION_WEIGHTS = (
    (tuple(w for _, w, _, _ in ARCHETYPES),)
    + tuple(tuple(w for _, w in sorted(mix.items())) for _, _, mix, _ in ARCHETYPES)
    + tuple(activity for _, _, _, activity in ARCHETYPES)
)


class TestCategoricalPick:
    @given(
        st.sampled_from(_POPULATION_WEIGHTS),
        st.integers(0, 2**63 - 1),
    )
    @settings(deadline=None, max_examples=200)
    def test_pick_is_draw_identical_to_choice(self, weights, seed):
        """The cdf/bisect pick returns what ``Generator.choice`` returns
        and leaves the stream at the same position."""
        w = np.array(weights)
        ours = np.random.default_rng(seed)
        numpy_rng = np.random.default_rng(seed)
        expected = int(numpy_rng.choice(len(weights), p=w / w.sum()))
        assert _categorical_pick(_categorical_cdf(weights), ours) == expected
        assert ours.random() == numpy_rng.random()
