"""Stage-graph engine: ordering, aborts, tracing, RNG, regressions.

Covers the generic engine in :mod:`repro.core.stages`, the Fig. 2
unlock stages in :mod:`repro.protocol.stages`, and the refactored
:class:`~repro.protocol.session.UnlockSession` built on top of them.
"""

import numpy as np
import pytest

from repro.core.stages import (
    EnginePause,
    EngineResult,
    SessionContext,
    Stage,
    StageEngine,
    StageResult,
    StageRng,
)
from repro.core.trace import NullTracer, Tracer
from repro.errors import WearLockError
from repro.protocol.session import (
    AbortReason,
    SessionConfig,
    UnlockSession,
    session_link,
)
from repro.protocol.stages import UNLOCK_STAGE_NAMES, build_unlock_stages
from repro.security.otp import OtpManager


class _Recorder:
    """Dummy stage that logs its execution and optionally aborts."""

    def __init__(self, name, log, abort=False):
        self.name = name
        self._log = log
        self._abort = abort

    def run(self, ctx):
        self._log.append(self.name)
        if self._abort:
            return StageResult.abort(f"abort_in_{self.name}")
        return StageResult.proceed()


def _run_session(cfg):
    return UnlockSession(cfg, otp=OtpManager(b"k")).run()


class TestStageEngine:
    def test_runs_stages_in_order(self):
        log = []
        stages = [_Recorder(f"s{i}", log) for i in range(5)]
        result = StageEngine(stages).execute(SessionContext())
        assert log == [f"s{i}" for i in range(5)]
        assert result.completed
        assert result.stages_run == tuple(log)
        assert result.stopped_by is None
        assert result.abort_reason is None

    @pytest.mark.parametrize("abort_at", range(8))
    def test_abort_short_circuits_at_every_position(self, abort_at):
        log = []
        stages = [
            _Recorder(f"s{i}", log, abort=(i == abort_at)) for i in range(8)
        ]
        result = StageEngine(stages).execute(SessionContext())
        # Everything up to and including the aborting stage ran ...
        assert log == [f"s{i}" for i in range(abort_at + 1)]
        # ... and nothing after it.
        assert result.stages_run == tuple(log)
        assert result.stopped_by == f"s{abort_at}"
        assert result.abort_reason == f"abort_in_s{abort_at}"
        assert not result.completed

    def test_rejects_duplicate_stage_names(self):
        log = []
        with pytest.raises(WearLockError):
            StageEngine([_Recorder("a", log), _Recorder("a", log)])

    def test_rejects_empty_pipeline(self):
        with pytest.raises(WearLockError):
            StageEngine([])

    def test_abort_reason_must_be_non_empty(self):
        with pytest.raises(WearLockError):
            StageResult.abort("")

    def test_unlock_stages_satisfy_protocol(self):
        for stage in build_unlock_stages():
            assert isinstance(stage, Stage)
        assert UnlockSession.stage_names == UNLOCK_STAGE_NAMES
        assert len(set(UNLOCK_STAGE_NAMES)) == len(UNLOCK_STAGE_NAMES) == 8


class _RowRecorder(_Recorder):
    """A :class:`_Recorder` with a batch body; ``batches`` logs the
    number of contexts each ``run_rows`` call saw."""

    def __init__(self, name, log, batches, abort=False, retry_to=None):
        super().__init__(name, log, abort)
        self._batches = batches
        self._retry_to = retry_to

    def run_rows(self, ctxs):
        self._batches.append(len(ctxs))
        if self._retry_to is not None:
            return [
                StageResult.retry(self._retry_to, "again") for _ in ctxs
            ]
        return [self.run(ctx) for ctx in ctxs]


class TestStepPaused:
    """``StageEngine.step_paused`` runs one stage for many paused passes."""

    @staticmethod
    def _paused(stages_for, n, before="b", tracer=None):
        passes = []
        for _ in range(n):
            engine = StageEngine(stages_for(), tracer=tracer)
            pause = engine.execute(SessionContext(), pause_before=before)
            assert isinstance(pause, EnginePause)
            passes.append((engine, pause))
        return passes

    def test_one_batch_leaves_each_pass_paused_before_its_next_stage(self):
        log, batches = [], []
        passes = self._paused(
            lambda: [
                _Recorder("a", log),
                _RowRecorder("b", log, batches),
                _Recorder("c", log),
            ],
            3,
        )
        states = StageEngine.step_paused(passes)
        assert batches == [3]
        assert all(isinstance(s, EnginePause) for s in states)
        assert [s.next_stage for s in states] == ["c"] * 3
        for (engine, _), state in zip(passes, states):
            result = engine.resume(state)
            assert result.completed
            assert result.stages_run == ("a", "b", "c")

    def test_abort_and_last_stage_finish_the_pass(self):
        log, batches = [], []
        aborted = StageEngine.step_paused(
            self._paused(
                lambda: [
                    _Recorder("a", log),
                    _RowRecorder("b", log, batches, abort=True),
                ],
                2,
            )
        )
        assert [r.stopped_by for r in aborted] == ["b", "b"]
        assert [r.abort_reason for r in aborted] == ["abort_in_b"] * 2
        done = StageEngine.step_paused(
            self._paused(
                lambda: [_Recorder("a", log), _RowRecorder("b", log, [])], 2
            )
        )
        assert all(isinstance(r, EngineResult) and r.completed for r in done)
        assert done[0].stages_run == ("a", "b")

    def test_retry_edge_is_taken_and_bounded(self):
        log, batches = [], []

        def stages():
            return [
                _Recorder("a", log),
                _RowRecorder("b", log, batches, retry_to="a"),
            ]

        ((engine, _),) = passes = self._paused(stages, 1)
        (state,) = StageEngine.step_paused(passes)
        # Paused before the retry target, with the jump counted.
        assert isinstance(state, EnginePause)
        assert (state.next_stage, state.jumps) == ("a", 1)
        again = engine.resume(state, pause_before="b")
        assert again.stages_run == ["a", "b", "a"]
        engine = StageEngine(stages(), max_jumps=0)
        pause = engine.execute(SessionContext(), pause_before="b")
        (state,) = StageEngine.step_paused([(engine, pause)])
        assert state.abort_reason == "retries_exhausted"
        assert state.jumps == 1

    def test_each_pass_gets_its_own_stage_span(self):
        log, batches = [], []
        tracers = [Tracer(), Tracer()]
        passes = []
        for tracer in tracers:
            engine = StageEngine(
                [_Recorder("a", log), _RowRecorder("b", log, batches)],
                tracer=tracer,
            )
            passes.append(
                (engine, engine.execute(SessionContext(), pause_before="b"))
            )
        StageEngine.step_paused(passes)
        for tracer in tracers:
            assert tracer.report().stage_names() == ["a", "b"]

    def test_rejects_mixed_stages_and_a_shared_tracer(self):
        log = []

        def stages():
            return [
                _Recorder("a", log),
                _RowRecorder("b", log, []),
                _RowRecorder("c", log, []),
            ]

        mixed = self._paused(stages, 1) + self._paused(stages, 1, "c")
        with pytest.raises(WearLockError, match="different stages"):
            StageEngine.step_paused(mixed)
        with pytest.raises(WearLockError, match="tracer"):
            StageEngine.step_paused(self._paused(stages, 2, tracer=Tracer()))
        assert StageEngine.step_paused([]) == []


class TestSessionAborts:
    """Each real abort path stops at its stage, and only there."""

    def _assert_stopped(self, outcome, stage, reason):
        assert outcome.abort_reason is reason
        assert outcome.stopped_by == stage
        assert not outcome.unlocked
        # stages_run is exactly the Fig. 2 prefix ending at the abort.
        idx = UNLOCK_STAGE_NAMES.index(stage)
        assert outcome.stages_run == UNLOCK_STAGE_NAMES[: idx + 1]

    def test_no_wireless_aborts_first(self):
        outcome = _run_session(
            SessionConfig(wireless_connected=False, seed=1)
        )
        self._assert_stopped(
            outcome, "wireless-check", AbortReason.NO_WIRELESS_LINK
        )

    def test_motion_mismatch_aborts_at_prefilter(self):
        outcome = _run_session(
            SessionConfig(environment="office", co_located=False, seed=0)
        )
        self._assert_stopped(
            outcome, "prefilter", AbortReason.MOTION_MISMATCH
        )

    def test_no_feasible_mode_aborts_at_mode_select(self):
        outcome = _run_session(
            SessionConfig(
                environment="office",
                distance_m=3.0,
                seed=5,
                use_motion_filter=False,
            )
        )
        self._assert_stopped(
            outcome, "mode-select", AbortReason.NO_FEASIBLE_MODE
        )

    def test_token_rejected_aborts_at_verify(self):
        outcome = _run_session(
            SessionConfig(
                environment="grocery_store",
                distance_m=0.7,
                seed=1,
                use_motion_filter=False,
            )
        )
        self._assert_stopped(outcome, "verify", AbortReason.TOKEN_REJECTED)

    def test_completed_session_reports_no_stop(self):
        outcome = _run_session(SessionConfig(environment="office", seed=42))
        assert outcome.unlocked
        assert outcome.stopped_by is None
        assert outcome.stages_run == UNLOCK_STAGE_NAMES


class TestTracing:
    def test_trace_spans_match_stages_and_timeline(self):
        tracer = Tracer()
        cfg = SessionConfig(environment="office", seed=42)
        outcome = UnlockSession(cfg, otp=OtpManager(b"k")).run(tracer=tracer)
        trace = outcome.trace
        assert trace is not None
        # One top-level span per executed stage, in execution order.
        assert tuple(trace.stage_names()) == outcome.stages_run

        tops = [s for s in trace.spans if s.parent is None]
        # Simulated time is monotone and contiguous across stages ...
        for a, b in zip(tops, tops[1:]):
            assert b.sim_start_s == pytest.approx(a.sim_end_s)
            assert a.sim_end_s >= a.sim_start_s
        # ... and covers exactly the outcome's total delay.
        assert tops[-1].sim_end_s - tops[0].sim_start_s == pytest.approx(
            outcome.total_delay_s
        )

        # Per-stage energy deltas add up to the session totals.
        assert sum(s.watch_energy_j for s in tops) == pytest.approx(
            outcome.watch_energy_j
        )
        assert sum(s.phone_energy_j for s in tops) == pytest.approx(
            outcome.phone_energy_j
        )

        # The expensive DSP calls appear as children of their stages.
        probe = trace.find("modem.analyze_probe")
        demod = trace.find("modem.demodulate")
        assert probe is not None and probe.parent == "probe-process"
        assert demod is not None and demod.parent == "verify"

    def test_aborting_stage_span_is_marked(self):
        tracer = Tracer()
        cfg = SessionConfig(wireless_connected=False, seed=1)
        outcome = UnlockSession(cfg, otp=OtpManager(b"k")).run(tracer=tracer)
        span = outcome.trace.find("wireless-check")
        assert span.status == "abort"
        assert span.tags["abort_reason"] == "no_wireless_link"

    def test_untraced_session_has_no_trace(self):
        outcome = _run_session(SessionConfig(environment="office", seed=42))
        assert outcome.trace is None

    def test_trace_export_roundtrip(self, tmp_path):
        import json

        tracer = Tracer()
        UnlockSession(
            SessionConfig(environment="office", seed=42), otp=OtpManager(b"k")
        ).run(tracer=tracer)
        path = tmp_path / "trace.json"
        tracer.export_json(path)
        data = json.loads(path.read_text())
        names = [s["name"] for s in data["spans"] if s["parent"] is None]
        assert names == list(UNLOCK_STAGE_NAMES)


class TestStageRng:
    def test_streams_are_stage_isolated(self):
        # Draws on one stage's stream must not perturb another's.
        a = StageRng(seed=99)
        b = StageRng(seed=99)
        a.for_stage("probe-tx").random(1000)  # extra traffic on a
        assert (
            a.for_stage("otp-tx").random(4).tolist()
            == b.for_stage("otp-tx").random(4).tolist()
        )

    def test_seed_for_is_deterministic_and_named(self):
        a, b = StageRng(seed=5), StageRng(seed=5)
        assert a.seed_for("wireless") == b.seed_for("wireless")
        assert a.seed_for("wireless") != a.seed_for("acoustic-link")

    def test_shared_mode_threads_one_stream(self):
        rng = np.random.default_rng(3)
        shared = StageRng(shared=rng)
        assert shared.for_stage("x") is rng
        assert shared.for_stage("y") is rng

    def test_none_seed_is_internally_consistent(self):
        r = StageRng(seed=None)
        # Memoized: the same stage always gets the same generator.
        assert r.for_stage("probe-tx") is r.for_stage("probe-tx")


class TestSessionLinkSeed:
    """``session_link`` derives the link's own seed only when drawn."""

    def test_per_stage_link_derives_its_seed_at_first_own_draw(
        self, monkeypatch
    ):
        asked = []
        real = StageRng.seed_for

        def counted(self, name, bound=2**31):
            asked.append(name)
            return real(self, name, bound)

        monkeypatch.setattr(StageRng, "seed_for", counted)
        link = session_link(SessionConfig(seed=5), StageRng(seed=5))
        assert "acoustic-link" not in asked
        drawn = link.record_ambient(0.01)
        assert asked.count("acoustic-link") == 1
        seed = real(StageRng(seed=5), "acoustic-link")
        assert np.array_equal(
            drawn,
            session_link(SessionConfig(seed=5), StageRng(seed=5))
            .record_ambient(0.01, rng=np.random.default_rng(seed)),
        )

    def test_shared_generator_still_draws_the_seed(self):
        rng, reference = np.random.default_rng(3), np.random.default_rng(3)
        link = session_link(SessionConfig(), StageRng(shared=rng))
        assert link.seed == int(reference.integers(0, 2**31))
        assert rng.bit_generator.state == reference.bit_generator.state


class TestSeededRegression:
    """The refactored session reproduces fixed-seed outcomes exactly.

    The pre-refactor session unlocked with 8PSK in all six of these
    configurations; the stage-graph session must keep doing so, and its
    numeric fields are pinned so future refactors can't silently drift.
    """

    GOLDENS = {
        # key: (config kwargs, ber, psnr_db, delay_s)
        "office-42": (
            dict(environment="office", distance_m=0.4, seed=42),
            0.03225806451612903, 25.08411955667528, 1.3130718221979352,
        ),
        "office-45": (
            dict(environment="office", distance_m=0.4, seed=45),
            0.04516129032258064, 23.88497510326614, 1.5410475778673693,
        ),
        "ultrasound-49": (
            dict(environment="office", distance_m=0.3,
                 band="ultrasound", seed=49),
            0.05161290322580645, 46.31257412123151, 1.468099864488135,
        ),
        "nofilter-13": (
            dict(environment="office", distance_m=0.4, seed=13,
                 use_motion_filter=False, use_noise_filter=False),
            0.06451612903225806, 25.22153988586338, 1.5368077876255977,
        ),
        "quiet-70": (
            dict(environment="quiet_room", distance_m=0.4, seed=70),
            0.05806451612903226, 15.395412481639223, 1.3909884029998143,
        ),
        "grocery-71": (
            dict(environment="grocery_store", distance_m=0.4, seed=71),
            0.17419354838709677, 16.66479292858358, 1.3536452451885101,
        ),
    }

    @pytest.mark.parametrize("key", sorted(GOLDENS))
    def test_seeded_outcome_fields(self, key):
        kwargs, ber, psnr, delay = self.GOLDENS[key]
        outcome = _run_session(SessionConfig(**kwargs))
        assert outcome.unlocked
        assert outcome.abort_reason is AbortReason.NONE
        assert outcome.mode == "8PSK"
        assert outcome.stages_run == UNLOCK_STAGE_NAMES
        assert outcome.raw_ber == pytest.approx(ber, abs=1e-12)
        assert outcome.psnr_db == pytest.approx(psnr, rel=1e-9)
        assert outcome.total_delay_s == pytest.approx(delay, rel=1e-9)

    def test_same_seed_is_bit_identical(self):
        cfg = SessionConfig(environment="office", seed=42)
        a, b = _run_session(cfg), _run_session(cfg)
        assert a.raw_ber == b.raw_ber
        assert a.psnr_db == b.psnr_db
        assert a.total_delay_s == b.total_delay_s
        assert a.watch_energy_j == b.watch_energy_j

    def test_legacy_generator_api_still_works(self):
        cfg = SessionConfig(environment="office")
        a = UnlockSession(cfg, otp=OtpManager(b"k")).run(
            rng=np.random.default_rng(7)
        )
        b = UnlockSession(cfg, otp=OtpManager(b"k")).run(
            rng=np.random.default_rng(7)
        )
        assert a.raw_ber == b.raw_ber
        assert a.unlocked == b.unlocked
