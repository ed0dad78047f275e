"""Chaos suite: every fault kind against every Fig. 2 stage.

The contract under fault injection is narrow but absolute:

* a faulted session **never raises** — it unlocks (possibly after
  retries) or aborts with a real :class:`~repro.protocol.session.
  AbortReason`;
* the retry loop **never blows the latency budget** by more than one
  attempt's worth of work;
* everything is **deterministic**: the same seed and the same
  :class:`~repro.faults.FaultPlan` give byte-identical outcomes and
  trace timelines, serially or fanned out over workers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trace import Tracer
from repro.eval.batch import BatchRunner, BatchTask, cell_seed
from repro.faults import (
    FAULT_KINDS,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.protocol.session import (
    AbortReason,
    RetryPolicy,
    SessionConfig,
    UnlockSession,
)
from repro.protocol.stages import UNLOCK_STAGE_NAMES

#: One attempt's worth of slack on top of the policy's latency budget:
#: the budget gates *starting* a retry, so the last attempt may finish
#: past it, but never by more than its own duration.
ATTEMPT_SLACK_S = 6.0


def run_faulted(
    spec: str,
    seed: int = 7,
    distance_m: float = 0.4,
    retry: bool = True,
    tracer=None,
):
    config = SessionConfig(
        seed=seed,
        distance_m=distance_m,
        faults=spec,
        retry=RetryPolicy() if retry else None,
    )
    return UnlockSession(config).run(tracer=tracer)


class TestChaosMatrix:
    """9 fault kinds x 8 stages, with the recovery loop enabled."""

    @pytest.mark.parametrize("stage", UNLOCK_STAGE_NAMES)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_never_raises_and_resolves(self, kind, stage):
        policy = RetryPolicy()
        outcome = run_faulted(f"{kind}@{stage}:severity=2")
        assert isinstance(outcome.unlocked, bool)
        if outcome.unlocked:
            assert outcome.abort_reason is AbortReason.NONE
        else:
            assert outcome.abort_reason is not AbortReason.NONE
        assert (
            outcome.total_delay_s
            <= policy.latency_budget_s + ATTEMPT_SLACK_S
        )

    @pytest.mark.parametrize("stage", UNLOCK_STAGE_NAMES)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_unbounded_hits_still_terminate(self, kind, stage):
        """Even a fault that fires on *every* hook must terminate."""
        policy = RetryPolicy()
        outcome = run_faulted(f"{kind}@{stage}:severity=3,hits=none")
        assert outcome.abort_reason in AbortReason
        assert (
            outcome.total_delay_s
            <= policy.latency_budget_s + ATTEMPT_SLACK_S
        )

    def test_every_kind_has_a_firing_hook(self):
        """Each fault kind fires in at least one stage of the flow."""
        for kind in FAULT_KINDS:
            fired = 0
            for stage in UNLOCK_STAGE_NAMES:
                outcome = run_faulted(f"{kind}@{stage}:hits=none")
                fired += len(outcome.faults_injected)
            assert fired > 0, f"{kind} never fired in any stage"

    def test_wildcard_stage_covers_the_whole_flow(self):
        outcome = run_faulted("latency_spike@*:hits=none,severity=0.1")
        stages_hit = {
            label.split("@", 1)[1].rsplit("#", 1)[0]
            for label in outcome.faults_injected
        }
        assert stages_hit == {"*"} or len(stages_hit) >= 1
        assert len(outcome.faults_injected) >= len(UNLOCK_STAGE_NAMES)


class TestRecoveryRate:
    """The paper's recovery promise for single-frame corruption."""

    @pytest.mark.parametrize(
        "kind", ["burst_noise", "frame_truncation", "snr_collapse"]
    )
    def test_single_frame_corruption_mostly_recovers(self, kind):
        """>=90% of single-shot OTP-frame corruptions still unlock."""
        n = 20
        unlocked = 0
        needed_retry = 0
        for trial in range(n):
            outcome = run_faulted(
                f"{kind}@otp-tx:severity=2",
                seed=cell_seed(101, kind, trial),
            )
            unlocked += outcome.unlocked
            needed_retry += outcome.recovered
        assert unlocked / n >= 0.9
        # The fault is real: at least some runs needed the retry loop.
        assert needed_retry > 0

    def test_without_retry_the_same_faults_fail(self):
        """Control: the corruption actually breaks unreinforced runs."""
        failures = 0
        for trial in range(10):
            outcome = run_faulted(
                "burst_noise@otp-tx:severity=3",
                seed=cell_seed(202, trial),
                retry=False,
            )
            failures += not outcome.unlocked
        assert failures > 0

    def test_retries_exhausted_under_persistent_fault(self):
        outcome = run_faulted("snr_collapse@otp-tx:severity=4,hits=none")
        assert not outcome.unlocked
        assert outcome.abort_reason is AbortReason.RETRIES_EXHAUSTED
        assert outcome.attempts == RetryPolicy().max_attempts

    def test_total_message_loss_reads_as_dead_link(self):
        outcome = run_faulted("msg_drop@sensor-capture:hits=none")
        assert not outcome.unlocked
        assert outcome.abort_reason is AbortReason.NO_WIRELESS_LINK


def _outcome_fingerprint(outcome):
    """Everything observable about an outcome, minus wall-clock."""
    return (
        outcome.unlocked,
        outcome.abort_reason,
        outcome.mode,
        outcome.raw_ber,
        outcome.psnr_db,
        round(outcome.total_delay_s, 12),
        outcome.stages_run,
        outcome.stopped_by,
        outcome.attempts,
        outcome.reprobes,
        outcome.faults_injected,
        round(outcome.watch_energy_j, 12),
        round(outcome.phone_energy_j, 12),
    )


def _trace_fingerprint(trace):
    """Span timeline with simulated time only.

    Wall-clock fields vary run to run, and the ``plane_cache_*``
    counters instrument a process-global cache whose hit pattern
    depends on what other threads computed first — neither is part of
    the session's deterministic behaviour.
    """
    return tuple(
        (
            s.name,
            s.parent,
            s.status,
            round(s.sim_start_s, 12),
            round(s.sim_end_s, 12),
            tuple(sorted(s.tags.items())),
            tuple(
                sorted(
                    (k, round(v, 12))
                    for k, v in s.counters.items()
                    if not k.startswith("plane_cache")
                )
            ),
        )
        for s in trace.spans
    )


def _chaos_cell(spec: str, seed: int):
    tracer = Tracer()
    outcome = run_faulted(spec, seed=seed, tracer=tracer)
    return (
        _outcome_fingerprint(outcome),
        _trace_fingerprint(outcome.trace),
    )


class TestChaosDeterminism:
    """Same seed + FaultPlan => byte-identical outcome and timeline."""

    SPECS = (
        "burst_noise@otp-tx:severity=2",
        "frame_truncation@otp-tx",
        "msg_drop@otp-tx:p=0.5,hits=none",
        "snr_collapse@probe-tx:severity=2",
        "latency_spike@verify;energy_spike@probe-process",
        # The verifier-stage boundary: drop the watch's sensor message
        # (the fused verifiers must fail closed), and charge spikes at
        # the prefilter so verifier latency/energy annotations absorb
        # injected costs deterministically.
        "msg_drop@prefilter:p=0.5,hits=none",
        "latency_spike@prefilter;energy_spike@prefilter",
    )

    def test_back_to_back_runs_identical(self):
        for spec in self.SPECS:
            assert _chaos_cell(spec, 7) == _chaos_cell(spec, 7), spec

    def test_serial_vs_workers_identical(self):
        tasks = [
            BatchTask(
                key=(spec, trial),
                params=dict(
                    spec=spec, seed=cell_seed(55, spec, trial)
                ),
            )
            for spec in self.SPECS
            for trial in range(3)
        ]
        serial = BatchRunner(_chaos_cell, workers=None).run(tasks)
        fanned = BatchRunner(_chaos_cell, workers=4).run(tasks)
        assert [r.key for r in serial] == [r.key for r in fanned]
        for a, b in zip(serial, fanned):
            assert a.value == b.value, a.key

    def test_different_plans_do_not_perturb_each_other(self):
        """Adding an inert fault leaves the original stream untouched.

        Fault streams are keyed by (index, kind@stage), so a spec that
        never fires must not change what another spec's stream draws.
        """
        alone = _chaos_cell("burst_noise@otp-tx:severity=2", 7)
        padded = _chaos_cell(
            "burst_noise@otp-tx:severity=2;burst_noise@wireless-check", 7
        )
        # Same unlock outcome fields that depend on the acoustic draws.
        assert alone[0][:6] == padded[0][:6]

    def test_fault_free_plan_matches_no_plan(self):
        """An empty/inert plan must not consume any session entropy."""
        base_cfg = SessionConfig(seed=7, retry=RetryPolicy())
        base = UnlockSession(base_cfg).run()
        inert = run_faulted("burst_noise@wireless-check", seed=7)
        assert inert.faults_injected == ()
        assert _outcome_fingerprint(base) == _outcome_fingerprint(inert)


class TestInjectorUnit:
    """Direct FaultInjector behaviours the integration tests lean on."""

    def test_probability_and_hits_respected(self):
        plan = FaultPlan.parse("latency_spike@*:p=0.0,hits=none")
        injector = FaultInjector(plan, seed=3)
        for stage in UNLOCK_STAGE_NAMES:
            injector.enter_stage(stage)
            assert injector.stage_spikes() == []
        assert injector.injected == 0

        plan = FaultPlan.parse("latency_spike@*:hits=2")
        injector = FaultInjector(plan, seed=3)
        fired = 0
        for stage in UNLOCK_STAGE_NAMES:
            injector.enter_stage(stage)
            fired += len(injector.stage_spikes())
        assert fired == 2

    def test_spec_roundtrip_through_describe(self):
        text = "burst_noise@otp-tx:p=0.5,severity=2;msg_drop@*"
        plan = FaultPlan.parse(text)
        again = FaultPlan.parse(plan.describe())
        assert plan == again

    def test_observer_sees_every_event(self):
        seen = []
        plan = FaultPlan.parse("latency_spike@*:hits=none")
        injector = FaultInjector(plan, seed=3, observer=seen.append)
        for stage in UNLOCK_STAGE_NAMES:
            injector.enter_stage(stage)
            injector.stage_spikes()
        assert len(seen) == len(UNLOCK_STAGE_NAMES)
        assert seen == injector.events

    def test_restored_replay_continues_like_the_live_injector(self):
        """A probe replayed on a fresh injector and restored into the
        session's own (which already fired at an earlier stage) leaves
        it where running the calls there would: events, observer,
        streams, hit counts and every later draw."""
        import numpy as np

        plan = FaultPlan.parse(
            "latency_spike@*:hits=none;"
            "burst_noise@probe-tx:p=0.5,hits=none;"
            "snr_collapse@*:p=0.5,hits=2"
        )
        seen = []
        live = FaultInjector(plan, seed=5)
        session = FaultInjector(plan, seed=5, observer=seen.append)
        replay = FaultInjector(plan, seed=5)
        for injector in (live, session):
            injector.enter_stage("sensor-capture")
            injector.stage_spikes()
        x = np.ones(400)
        for injector in (live, replay, session):
            injector.enter_stage("probe-tx")
        for injector in (live, replay):
            for _ in range(4):
                injector.apply_recording(injector.apply_signal(x), 8000.0)
        session.restore(replay.snapshot())
        assert session.events == live.events
        assert seen == live.events
        assert dict(session.snapshot().streams) == dict(
            live.snapshot().streams
        )
        assert dict(session.snapshot().hits) == dict(live.snapshot().hits)
        for _ in range(3):
            a = live.apply_recording(live.apply_signal(x), 8000.0)
            b = session.apply_recording(session.apply_signal(x), 8000.0)
            assert np.array_equal(a, b)
        assert session.events == live.events


#: Random 1–3-spec fault plans over every kind (wireless included) and
#: every armable stage.  Each spec fires at most half the time, so some
#: sessions of a small fleet still reach Phase 2.
_FAULT_PLANS = st.lists(
    st.builds(
        FaultSpec,
        kind=st.sampled_from(FAULT_KINDS),
        stage=st.sampled_from(("*",) + UNLOCK_STAGE_NAMES),
        probability=st.sampled_from((0.2, 0.5)),
        max_hits=st.sampled_from((1, None)),
    ),
    min_size=1,
    max_size=3,
).map(FaultPlan.of)


class TestStagedFleetUnderFaults:
    """Fault injection against the fleet's staged fast paths.

    ``staging="otp"`` stages the prefilter, the probe and the OTP waves
    under every fault plan: the probe replay carries each session's own
    injector, and the OTP waves run the ``otp-tx`` stage itself on it,
    in live order.  Every plan must run without raising and stay
    byte-identical to a fully live run — records *and* each session's
    ordered fault labels — with the retry loop and without it (the
    single-shot verify path).
    """

    @staticmethod
    def _run(cfg, staging):
        """``run_shard`` records, each session's ordered fault labels,
        and the rows each acoustic staging primitive saw."""
        from repro.fleet import executor

        labels = {}
        rows = {"prefilter": 0, "probe": 0, "otp": 0}
        record = executor._record
        prefilter = executor.precompute_prefilter
        probe = executor.precompute_probe
        otp = executor.precompute_otp

        def capture(spec, outcome, ann=None):
            key = (spec.user_id, spec.session_index)
            labels[key] = outcome.faults_injected
            return record(spec, outcome, ann)

        def count_prefilter(specs):
            rows["prefilter"] += len(specs)
            return prefilter(specs)

        def count_probe(specs, *args):
            rows["probe"] += len(specs)
            return probe(specs, *args)

        def count_otp(pendings):
            rows["otp"] += len(pendings)
            return otp(pendings)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(executor, "_record", capture)
            m.setattr(executor, "precompute_prefilter", count_prefilter)
            m.setattr(executor, "precompute_probe", count_probe)
            m.setattr(executor, "precompute_otp", count_otp)
            records = executor.run_shard(
                cfg, 0, cfg.n_users, staging=staging
            )
        return records, labels, rows

    def _check_matches_live(self, faults, retry=True):
        from repro.fleet import FleetConfig

        cfg = FleetConfig(
            n_users=3, hours=24.0, seed=11, faults=faults, retry=retry
        )
        live, live_labels, _ = self._run(cfg, "none")
        staged, staged_labels, rows = self._run(cfg, "otp")
        assert staged == live
        assert staged_labels == live_labels
        # Every phase is staged under every plan.
        assert rows["prefilter"] > 0
        assert rows["probe"] > 0
        assert rows["otp"] > 0

    @pytest.mark.parametrize("stage", ("probe-tx", "otp-tx", "verify", "*"))
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_staged_shard_never_raises_and_matches_live(self, kind, stage):
        for retry in (True, False):
            self._check_matches_live(
                f"{kind}@{stage}:p=0.5,hits=none", retry
            )

    @pytest.mark.parametrize(
        "faults",
        (
            "burst_noise@otp-tx;msg_drop@otp-tx",
            "snr_collapse@otp-tx;latency_spike@otp-tx",
            "mic_dropout@probe-tx;msg_drop@otp-tx",
        ),
    )
    def test_mixed_plans_match_live(self, faults):
        for retry in (True, False):
            self._check_matches_live(faults, retry)

    def test_acoustic_levels_degrade_only_when_faulted(self):
        """No fault plan degrades a staging level: ``"none"`` stages no
        phase under any plan, and ``"otp"`` stages the prefilter, the
        probe and the OTP waves under every plan — acoustic or wireless,
        at ``probe-tx``, at ``otp-tx`` or everywhere — and matches live,
        with and without the retry loop."""
        from repro.fleet import FleetConfig

        for faults in (
            None,
            "jammer_onset@probe-tx",
            "burst_noise@probe-tx",
            "mic_dropout@*",
            "msg_drop@otp-tx",
            "msg_late@*",
            "mic_dropout@*;msg_drop@otp-tx",
            "burst_noise@otp-tx",
            "frame_truncation@otp-tx;latency_spike@*",
            "msg_drop@probe-tx;msg_late@verify",
            "energy_spike@*",
        ):
            cfg = FleetConfig(n_users=3, hours=24.0, seed=11, faults=faults)
            _, _, rows = self._run(cfg, "none")
            assert rows == {"prefilter": 0, "probe": 0, "otp": 0}, faults
            for retry in (True, False):
                self._check_matches_live(faults, retry)

    @given(_FAULT_PLANS)
    @settings(max_examples=15, deadline=None)
    def test_random_plans_stage_every_phase_and_match_live(self, plan):
        self._check_matches_live(plan.describe())

    def test_faulted_scheduler_worker_invariance(self):
        """Faulted waves must not break the worker-count contract."""
        import json

        from repro.fleet import FleetConfig, FleetScheduler

        cfg = FleetConfig(
            n_users=4, hours=24.0, seed=11,
            faults="snr_collapse@otp-tx:severity=2,hits=none",
        )

        def doc(workers, shard_users):
            result = FleetScheduler(
                cfg, workers=workers, shard_users=shard_users,
                staging="otp",
            ).run()
            return json.dumps(
                result.aggregate.to_dict(hours=cfg.hours),
                sort_keys=True, indent=2,
            )

        assert doc(1, 4) == doc(4, 1)


class TestFaultPlanValidation:
    """A plan is checked wherever it meets the unlock engine."""

    def test_unknown_stage_parses_but_fails_the_stage_check(self):
        plan = FaultPlan.parse("burst_noise@otp_tx")
        with pytest.raises(FaultError) as err:
            plan.check_stages(UNLOCK_STAGE_NAMES)
        assert "unknown fault stage 'otp_tx'" in str(err.value)
        assert "otp-tx" in str(err.value)  # the message lists the known
        everywhere = FaultPlan.parse("burst_noise@*;msg_drop@verify")
        assert everywhere.check_stages(UNLOCK_STAGE_NAMES) is everywhere

    def test_bad_option_value_is_a_fault_error(self):
        with pytest.raises(FaultError, match="bad value 'x'"):
            FaultPlan.parse("burst_noise@otp-tx:p=x")

    @pytest.mark.parametrize(
        "faults",
        ("burst_noise@otp_tx", FaultPlan.single("burst_noise", "otp_tx")),
    )
    def test_session_config_rejects_unknown_stage(self, faults):
        with pytest.raises(FaultError, match="unknown fault stage"):
            SessionConfig(faults=faults)

    @pytest.mark.parametrize(
        "faults, message",
        (
            ("bogus@otp-tx", "unknown fault kind 'bogus'"),
            ("burst_noise@otp_tx", "unknown fault stage 'otp_tx'"),
            ("burst_noise@otp-tx:p=x", "bad value 'x'"),
            # A NaN severity would crash the latency histogram, an
            # infinite one pile every session into its overflow bin.
            ("latency_spike@verify:severity=nan", "finite and positive"),
            ("latency_spike@verify:severity=inf", "finite and positive"),
        ),
    )
    def test_fleet_config_rejects_bad_plan_at_construction(
        self, faults, message
    ):
        from repro.errors import ConfigurationError
        from repro.fleet import FleetConfig

        with pytest.raises(ConfigurationError) as err:
            FleetConfig(n_users=1, faults=faults)
        assert message in str(err.value)

    def test_cli_rejects_unknown_stage(self, capsys):
        from repro.cli import main

        assert main(["unlock", "--faults", "burst_noise@otp_tx"]) == 2
        assert "unknown fault stage 'otp_tx'" in capsys.readouterr().err
        assert main(
            ["fleet", "run", "--users", "1", "--faults", "msg_drop@verfy"]
        ) == 2
        assert "unknown fault stage 'verfy'" in capsys.readouterr().err

    def test_shard_parses_the_plan_once(self, monkeypatch):
        from repro.fleet import FleetConfig, run_shard

        cfg = FleetConfig(
            n_users=2, hours=24.0, seed=11, faults="burst_noise@otp-tx"
        )
        parse = FaultPlan.parse
        calls = []

        def counting(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(FaultPlan, "parse", staticmethod(counting))
        records = run_shard(cfg, 0, 2, staging="otp")
        assert len(records) > 1
        assert calls == ["burst_noise@otp-tx"]
