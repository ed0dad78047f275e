"""Pluggable proximity verifiers, fusion policies, and their algebra."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.dsp.energy import SILENCE_FLOOR_SPL_DB, signal_spl
from repro.errors import WearLockError
from repro.protocol.session import (
    SessionConfig,
    UnlockSession,
    ambient_similarity,
)
from repro.security.attacks import (
    CoLocatedAttacker,
    ReplayAttacker,
    legitimate_evidence,
)
from repro.verifiers import (
    FUSION_MODES,
    LEGACY_VERIFIERS,
    VERIFIER_NAMES,
    FusionPolicy,
    ProximityVerifier,
    VerifierResult,
    get_verifier,
    MULTIBAND_MIN_SIMILARITY,
    NOISE_FILTER_MIN_SPL,
    MultibandAmbientVerifier,
    ambient_scores_rows,
    multiband_similarity,
    needs_sensor_pair,
    probe_head_samples,
    resolve_verifier_names,
)
from tests import kernel_oracle as oracle


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_every_verifier_satisfies_the_protocol(self):
        for name in VERIFIER_NAMES:
            verifier = get_verifier(name)
            assert isinstance(verifier, ProximityVerifier)
            assert verifier.name == name

    def test_unknown_and_duplicate_names_rejected(self):
        with pytest.raises(WearLockError):
            get_verifier("bogus")
        with pytest.raises(WearLockError):
            resolve_verifier_names(("ambient", "bogus"))
        with pytest.raises(WearLockError):
            resolve_verifier_names(("ambient", "ambient"))

    def test_legacy_resolution_honours_feature_flags(self):
        assert resolve_verifier_names(None) == LEGACY_VERIFIERS
        assert resolve_verifier_names(None, use_motion_filter=False) == (
            "ambient",
        )
        assert resolve_verifier_names(None, use_noise_filter=False) == (
            "motion-dtw",
        )

    def test_needs_sensor_pair_only_for_motion_domain(self):
        assert needs_sensor_pair(("motion-dtw",))
        assert needs_sensor_pair(("vibration",))
        assert not needs_sensor_pair(("ambient", "multiband"))
        assert not needs_sensor_pair(("motion-dtw",), use_motion_filter=False)


# ---------------------------------------------------------------------------
# Silence semantics (the defined-score regression)
# ---------------------------------------------------------------------------


class TestSilenceSemantics:
    def test_empty_segment_scores_zero(self):
        assert ambient_similarity(np.array([]), np.zeros(4096), 44100.0) == 0.0
        assert ambient_similarity(np.zeros(4096), np.array([]), 44100.0) == 0.0

    def test_all_silence_scores_zero(self):
        """Digital silence is below the SPL floor and carries no evidence."""
        silent = np.zeros(8192)
        assert signal_spl(silent) <= SILENCE_FLOOR_SPL_DB
        assert ambient_similarity(silent, silent, 44100.0) == 0.0

    def test_sub_floor_signal_scores_zero(self):
        rng = np.random.default_rng(0)
        # Amplitude chosen so SPL lands below the -120 dB floor.
        faint = rng.standard_normal(8192) * 1e-12
        assert signal_spl(faint) <= SILENCE_FLOOR_SPL_DB
        assert ambient_similarity(faint, faint, 44100.0) == 0.0

    def test_audible_signal_still_scores(self):
        rng = np.random.default_rng(1)
        loud = rng.standard_normal(8192) * 0.1
        assert ambient_similarity(loud, loud, 44100.0) > 0.9


# ---------------------------------------------------------------------------
# Multi-band verifier: silence gate, scoring, degenerate input, threshold
# ---------------------------------------------------------------------------


def _multiband_ctx(spl=60.0, use_noise_filter=True, staged=None, seed=0):
    """The session-context fields the multi-band verifier reads; its
    score is ``staged`` when given, else what the prefilter's batch
    body scores the recordings at the first verify (:func:`_verify`)."""
    modem = SystemConfig().modem
    rng = np.random.default_rng(seed)
    scene = 0.1 * rng.standard_normal(9000)
    return SimpleNamespace(
        config=SimpleNamespace(use_noise_filter=use_noise_filter),
        noise_spl_estimate=spl,
        verifier_scores={} if staged is None else {"multiband": staged},
        extras={},
        sample_rate=modem.sample_rate,
        system=SimpleNamespace(modem=modem),
        phone_ambient=scene[:4410],
        probe_recording=scene + 0.05 * rng.standard_normal(scene.size),
    )


def _head(ctx):
    return ctx.probe_recording[
        : probe_head_samples(ctx.sample_rate, ctx.system.modem)
    ]


def _verify(ctx):
    """Score the context as the prefilter stage does, then verify."""
    if "multiband" not in ctx.verifier_scores:
        (scores,) = ambient_scores_rows(
            [ctx.phone_ambient], [_head(ctx)], [ctx.sample_rate],
            [("multiband",)],
        )
        ctx.verifier_scores.update(scores)
    return MultibandAmbientVerifier().verify(ctx)


def _live_score(ctx):
    return oracle.multiband_similarity(
        ctx.phone_ambient, _head(ctx), ctx.sample_rate
    )


class TestMultibandVerifier:
    verifier = MultibandAmbientVerifier()

    @pytest.mark.parametrize(
        "spl, use_noise_filter",
        [(NOISE_FILTER_MIN_SPL - 0.1, True), (60.0, False)],
    )
    def test_silence_gate_skips(self, spl, use_noise_filter):
        ctx = _multiband_ctx(spl, use_noise_filter, staged=0.9)
        result = self.verifier.verify(ctx)
        assert result.skipped and result.passed and result.score is None

    def test_gate_opens_at_threshold_spl(self):
        ctx = _multiband_ctx(NOISE_FILTER_MIN_SPL)
        result = _verify(ctx)
        assert not result.skipped
        # One scene heard by both microphones: a co-located pass.
        assert result.score == _live_score(ctx) > 0.5
        assert result.passed

    def test_verify_reads_the_latest_prefilter_score(self):
        ctx = _multiband_ctx(staged=-0.5)
        assert self.verifier.verify(ctx).score == -0.5
        # A re-probe records fresh audio, which its prefilter pass
        # scores afresh.
        ctx.probe_recording = _multiband_ctx(seed=1).probe_recording
        del ctx.verifier_scores["multiband"]
        live = _verify(ctx)
        assert live.score == _live_score(ctx) != -0.5

    def test_unstaged_score_is_live(self):
        ctx = _multiband_ctx()
        assert _verify(ctx).score == _live_score(ctx)

    def test_too_short_recording_scores_zero(self):
        ctx = _multiband_ctx()
        ctx.probe_recording = ctx.probe_recording[:63]
        assert multiband_similarity(
            ctx.phone_ambient, ctx.probe_recording, ctx.sample_rate
        ) == 0.0
        result = _verify(ctx)
        assert result.score == 0.0 and not result.passed

    def test_flat_groups_score_zero(self):
        """Silence has a flat profile: no group carries evidence."""
        ctx = _multiband_ctx()
        ctx.phone_ambient = np.zeros(4410)
        result = _verify(ctx)
        assert result.score == 0.0 and not result.passed

    @pytest.mark.parametrize(
        "sim, passed",
        [
            (MULTIBAND_MIN_SIMILARITY, True),
            (np.nextafter(MULTIBAND_MIN_SIMILARITY, 0.0), False),
            (0.9, True),
            (-0.3, False),
        ],
    )
    def test_pass_threshold(self, sim, passed):
        result = self.verifier.verify(_multiband_ctx(staged=sim))
        assert result.score == sim
        assert result.passed is passed
        assert result.normalized == pytest.approx((sim + 1.0) / 2.0)


# ---------------------------------------------------------------------------
# Fusion algebra (hypothesis)
# ---------------------------------------------------------------------------


def _result_strategy():
    normalized = st.floats(
        min_value=0.0,
        max_value=1.0,
        allow_nan=False,
        allow_subnormal=False,
    )
    return st.builds(
        VerifierResult,
        name=st.sampled_from(VERIFIER_NAMES),
        score=normalized,
        passed=st.booleans(),
        normalized=normalized,
        skipped=st.booleans(),
    )


class TestFusionAlgebra:
    @given(st.lists(_result_strategy(), max_size=6))
    @settings(deadline=None, max_examples=200)
    def test_and_is_stricter_than_or(self, results):
        """Anything AND accepts, OR accepts too (never the reverse)."""
        results = tuple(results)
        and_pass = FusionPolicy(mode="and").combine(results).passed
        or_pass = FusionPolicy(mode="or").combine(results).passed
        if and_pass:
            assert or_pass

    @given(
        st.lists(_result_strategy(), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=5),
        st.floats(
            min_value=0.0,
            max_value=1.0,
            allow_nan=False,
            allow_subnormal=False,
        ),
        st.floats(
            min_value=0.0,
            max_value=1.0,
            allow_nan=False,
            allow_subnormal=False,
        ),
    )
    @settings(deadline=None, max_examples=200)
    def test_score_fusion_monotone_per_verifier(
        self, results, index, raised, threshold
    ):
        """Raising any one normalized score never flips pass -> fail."""
        results = tuple(results)
        index %= len(results)
        target = results[index]
        if target.skipped or target.normalized is None:
            return
        raised = max(raised, target.normalized)
        bumped = results[:index] + (
            dataclasses.replace(target, normalized=raised),
        ) + results[index + 1:]
        policy = FusionPolicy(mode="score", threshold=threshold)
        if policy.combine(results).passed:
            assert policy.combine(bumped).passed

    @given(st.lists(_result_strategy(), max_size=6))
    @settings(deadline=None, max_examples=100)
    def test_link_failure_fails_closed_in_every_mode(self, results):
        dead = VerifierResult(
            name="motion-dtw",
            score=None,
            passed=False,
            link_failed=True,
        )
        for mode in FUSION_MODES:
            decision = FusionPolicy(mode=mode).combine(tuple(results) + (dead,))
            assert not decision.passed
            assert decision.link_failed
            assert decision.abort_reason == "no_wireless_link"

    def test_skipped_results_are_neutral_everywhere(self):
        skipped = tuple(
            VerifierResult(name=n, score=None, passed=True, skipped=True)
            for n in VERIFIER_NAMES
        )
        for mode in FUSION_MODES:
            assert FusionPolicy(mode=mode).combine(skipped).passed

    def test_fusion_spec_parsing(self):
        assert FusionPolicy.from_spec("score:0.7").threshold == 0.7
        assert FusionPolicy.from_spec("or").mode == "or"
        with pytest.raises(WearLockError):
            FusionPolicy.from_spec("xor")
        with pytest.raises(WearLockError):
            FusionPolicy.from_spec("score:1.5")


# ---------------------------------------------------------------------------
# Legacy equivalence: explicit pair + AND == the seed's hardwired chain
# ---------------------------------------------------------------------------


class TestLegacyEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 42, 123])
    def test_explicit_legacy_config_bit_identical(self, seed):
        base = UnlockSession(SessionConfig(seed=seed)).run()
        explicit = UnlockSession(
            SessionConfig(
                seed=seed, verifiers=LEGACY_VERIFIERS, fusion="and"
            )
        ).run()
        assert explicit.unlocked == base.unlocked
        assert explicit.abort_reason == base.abort_reason
        assert explicit.total_delay_s == base.total_delay_s
        assert explicit.raw_ber == base.raw_ber
        assert explicit.motion_score == base.motion_score
        assert explicit.noise_similarity == base.noise_similarity
        assert explicit.watch_energy_j == base.watch_energy_j
        assert explicit.phone_energy_j == base.phone_energy_j

    def test_outcome_exposes_verifier_results(self):
        outcome = UnlockSession(SessionConfig(seed=7)).run()
        names = [r.name for r in outcome.verifier_results]
        assert names == list(LEGACY_VERIFIERS)


# ---------------------------------------------------------------------------
# Four-verifier sessions: determinism and attacker evidence
# ---------------------------------------------------------------------------


class TestFourVerifierSessions:
    def test_score_fusion_session_deterministic(self):
        cfg = dict(
            seed=11,
            verifiers=tuple(VERIFIER_NAMES),
            fusion="score:0.5",
        )
        a = UnlockSession(SessionConfig(**cfg)).run()
        b = UnlockSession(SessionConfig(**cfg)).run()
        assert a.unlocked == b.unlocked
        assert a.total_delay_s == b.total_delay_s
        assert [r.score for r in a.verifier_results] == [
            r.score for r in b.verifier_results
        ]
        assert len(a.verifier_results) == len(VERIFIER_NAMES)

    def test_offline_evidence_separates_honest_from_strangers(self):
        """Across trials, motion-domain verifiers rank honest evidence
        above both attackers' (the matrix experiment's core claim)."""
        for name in ("motion-dtw", "vibration"):
            verifier = get_verifier(name)
            honest, attack = [], []
            for s in range(6):
                honest.append(
                    verifier.score(legitimate_evidence(seed=s)).normalized
                )
                attack.append(
                    verifier.score(
                        CoLocatedAttacker().proximity_evidence(seed=s)
                    ).normalized
                )
                attack.append(
                    verifier.score(
                        ReplayAttacker().proximity_evidence(seed=s)
                    ).normalized
                )
            assert np.mean(honest) > np.mean(attack), name
