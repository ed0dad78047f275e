"""Bit-identity of the wave-batched Phase-2 OTP transmit/receive.

The fleet's ``staging="otp"`` fast path pauses every session just
before ``otp-tx``, runs that stage for a whole wave block at once
(``OtpTxStage.run_rows``, on each session's own streams, in live
order) and receives the block's frames as stacked batches
(:func:`repro.fleet.executor.precompute_otp`).  These tests pin the
contract at every layer, mirroring
``tests/test_probe_staging_equivalence.py``:

* each batch primitive equals its scalar counterpart bit-for-bit,
  including the generator stream positions it leaves behind; where the
  scalar is the kernel's one-row call, the rows are compared with an
  independent oracle instead — the 1-D bodies in
  ``tests/kernel_oracle.py`` for the channel synthesis, the sequential
  path in ``tests/modem_oracle.py`` for the transmitter and the
  receive chain;
* a staged ``begin``/``precompute_otp``/``feed``/``finish`` session
  equals a live ``run()`` field-for-field, including the ``otp-tx``
  stream position;
* the batch step leaves every context of a mixed, faulted block
  where running the stage one session at a time leaves a twin:
  generator, injector and its ordered events, timeline and meters;
* whole shards and scheduled fleets produce byte-identical aggregates
  at both staging levels and any worker count, under wireless faults
  at ``otp-tx`` too;
* the order-preserving partition the wave driver leans on holds for
  arbitrary inputs, and the staging level alone picks the staged
  phases under any fault plan (hypothesis).
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.multipath import RoomImpulseResponse, convolve_ir_rows
from repro.channel.noise import NoiseScene, tone_jammer
from repro.channel.hardware import SpeakerModel
from repro.config import ModemConfig
from repro.errors import DemodulationError, ModemError
from repro.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.fleet import FleetConfig, FleetScheduler, executor, run_shard
from repro.fleet.executor import (
    STAGING_LEVELS,
    partition_indices,
    precompute_otp,
)
from repro.modem.constellation import QPSK
from repro.modem.frame import frame_layout
from repro.modem.receiver import OfdmReceiver, receive_batch_grouped
from repro.modem.subchannels import ChannelPlan
from repro.modem.synchronizer import Synchronizer, fine_sync_offsets_rows
from repro.modem.transmitter import OfdmTransmitter
from repro.protocol.session import RetryPolicy, SessionConfig, UnlockSession
from repro.protocol.stages import UNLOCK_STAGE_NAMES
from tests import kernel_oracle as oracle
from tests.modem_oracle import (
    reference_fine_sync_offset,
    reference_modulate,
    reference_receive,
)

BANDS = ((0.0, 1200.0, 1.0), (2000.0, 5000.0, 0.6))
FS = 44_100.0


def _frame_recordings(
    config, n_rows, seed, drop_row=None, cut_row=None, mute_row=None
):
    """Equal-length recordings embedding one QPSK frame each."""
    tx = OfdmTransmitter(config, QPSK)
    rng = np.random.default_rng(seed)
    recs = []
    n_bits = 2 * len(tx.plan.data)
    for i in range(n_rows):
        sent = tx.modulate(rng.integers(0, 2, n_bits))
        frame = sent.waveform
        lead = np.zeros(300 + 40 * i)
        rec = np.concatenate([lead, 0.4 * frame, np.zeros(900 - 40 * i)])
        rec += 1e-4 * rng.standard_normal(rec.size)
        if drop_row is not None and i == drop_row:
            rec = 1e-4 * rng.standard_normal(rec.size)  # no frame at all
        if cut_row is not None and i == cut_row:
            # Frame present but truncated: coarse sync locks, the body
            # extraction then runs past the recording end.
            rec = np.concatenate(
                [lead, 0.4 * frame, np.zeros(900 - 40 * i)]
            )[: lead.size + frame.size // 2]
            rec = np.pad(rec, (0, recs[0].size - rec.size))
        if mute_row is not None and i == mute_row:
            # Noise-free preamble, exactly-zero symbols: coarse sync
            # locks, every pilot bin is empty.
            muted = frame.copy()
            muted[sent.layout.first_symbol_offset:] = 0.0
            rec = np.concatenate([lead, 0.4 * muted, np.zeros(900 - 40 * i)])
        recs.append(rec)
    return recs, n_bits


def _assert_same_result(got, want):
    assert np.array_equal(got.bits, want.bits)
    assert got.preamble_score == want.preamble_score
    assert got.psnr_db == want.psnr_db
    assert got.ebn0_db == want.ebn0_db
    assert got.fine_offsets == want.fine_offsets
    assert got.noise_spl == want.noise_spl
    assert np.array_equal(got.delay_profile, want.delay_profile)
    assert np.array_equal(got.equalized_symbols, want.equalized_symbols)


def _reference_outcome(config, rec, n_bits, plan=None):
    """``reference_receive``'s result, or the ModemError it raises."""
    try:
        return reference_receive(config, QPSK, rec, n_bits, plan=plan)
    except ModemError as exc:
        return exc


class TestBatchPrimitives:
    """Each stacked transform equals its scalar counterpart bit-for-bit."""

    def test_modulate_batch_matches_scalar(self):
        tx = OfdmTransmitter(ModemConfig(), QPSK)
        rng = np.random.default_rng(0)
        rows = [rng.integers(0, 2, 96) for _ in range(5)]
        batch = tx.modulate_batch(rows)
        for bits, got in zip(rows, batch):
            want = reference_modulate(ModemConfig(), QPSK, bits)
            assert np.array_equal(got.waveform, want.waveform)
            assert np.array_equal(got.padded_bits, want.padded_bits)
            assert got.n_payload_bits == want.n_payload_bits
            assert got.layout == want.layout

    def test_modulate_batch_rejects_ragged_payloads(self):
        tx = OfdmTransmitter(ModemConfig(), QPSK)
        with pytest.raises(ModemError):
            tx.modulate_batch([np.ones(8, np.uint8), np.ones(9, np.uint8)])

    def test_play_batch_matches_scalar(self):
        speaker = SpeakerModel()
        rng = np.random.default_rng(1)
        signals = 0.2 * rng.standard_normal((4, 3000))
        batch = speaker.play_batch(signals)
        for i in range(signals.shape[0]):
            assert np.array_equal(
                batch[i], oracle.speaker_play(speaker, signals[i])
            )

    def test_convolve_rows_pairwise_matches_apply(self):
        """A ``(k, n)`` signal pairs row by row with the IR stack (the
        OTP frames, each on its own room draw)."""
        room = RoomImpulseResponse()
        rng = np.random.default_rng(2)
        signals = rng.standard_normal((4, 4000))
        irs = np.stack(
            [room.sample(np.random.default_rng(s)) for s in range(4)]
        )
        batch = convolve_ir_rows(signals, irs)
        for s in range(4):
            scalar = room.apply(signals[s], rng=np.random.default_rng(s))
            assert np.array_equal(batch[s], scalar)
            assert np.array_equal(
                batch[s], oracle.convolve(signals[s], irs[s])
            )

    def test_jammed_scene_batch_matches_scalar_and_stream(self):
        scene = NoiseScene(
            spl_db=60.0, bands=BANDS,
            jam_tones_hz=(2500.0, 4100.0), jam_spl_db=55.0,
        )
        gens = [np.random.default_rng(s) for s in (5, 6, 7)]
        batch = scene.sample_batch(4000, gens)
        for i, seed in enumerate((5, 6, 7)):
            mirror = np.random.default_rng(seed)
            assert np.array_equal(
                batch[i], oracle.scene_sample(scene, 4000, mirror)
            )
            assert gens[i].bit_generator.state == mirror.bit_generator.state

    def test_jammed_scene_draws_only_mode_advances_streams(self):
        """``values=False`` must draw the jam phases too — the staged
        caller hands the generators back to live code afterwards."""
        scene = NoiseScene(
            spl_db=60.0, bands=BANDS, jam_tones_hz=(3000.0,),
            jam_spl_db=50.0,
        )
        gens = [np.random.default_rng(s) for s in (8, 9)]
        out = scene.sample_batch(2048, gens, values=False)
        assert not out.any()
        for seed, gen in zip((8, 9), gens):
            mirror = np.random.default_rng(seed)
            oracle.scene_sample(scene, 2048, mirror)
            assert gen.bit_generator.state == mirror.bit_generator.state

    def test_jammer_rejects_more_than_six_tones(self):
        from repro.errors import ChannelError

        with pytest.raises(ChannelError):
            NoiseScene(
                spl_db=60.0, bands=BANDS,
                jam_tones_hz=tuple(500.0 * k for k in range(1, 8)),
                jam_spl_db=50.0,
            )
        with pytest.raises(ChannelError):
            tone_jammer(
                256, FS, tuple(500.0 * k for k in range(1, 8)), 50.0
            )

    def test_fine_sync_rows_matches_per_frame(self):
        config = ModemConfig()
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((6, 6000))
        # Interior anchors, plus one row with a boundary-clipped anchor.
        anchors = rng.integers(100, 5000, size=(6, 4))
        anchors[5, 0] = 2
        rows = fine_sync_offsets_rows(xs, anchors, config, search_range=24)
        for r in range(6):
            want = [
                reference_fine_sync_offset(
                    xs[r], int(a), config, search_range=24
                )
                for a in anchors[r]
            ]
            assert rows[r].tolist() == want, r

    def test_extract_bodies_rows_matches_scalar(self):
        config = ModemConfig()
        recs, _ = _frame_recordings(config, 4, seed=4, drop_row=2)
        sync = Synchronizer(config)
        layout = frame_layout(config, 2)
        matches = [sync.locate(rec) for rec in recs]
        # A row whose coarse sync failed arrives as None; the batch
        # extractor must pass it through untouched.
        matches[2] = None
        results = sync.extract_bodies_rows(np.stack(recs), matches, layout)
        for rec, match, res in zip(recs, matches, results):
            if match is None:
                assert res is None
                continue
            # Oracle: the sequential fine-sync loop, then plain slicing.
            anchors = match.start - layout.preamble_length + (
                layout.symbol_offsets()
            )
            want_offsets = tuple(
                reference_fine_sync_offset(rec, int(a), config, 24)
                for a in anchors
            )
            bodies, offsets = res
            assert offsets == want_offsets
            for body, a, tf in zip(bodies, anchors, want_offsets):
                start = int(a) + tf + layout.cp_length
                assert np.array_equal(
                    body, rec[start: start + layout.fft_size]
                )
            one_row = sync.extract_bodies(rec, match, layout)
            assert np.array_equal(one_row[0], bodies)
            assert one_row[1] == offsets

    def test_extract_bodies_rows_drops_tracebacks(self):
        """A failing row's exception carries no traceback, so it cannot
        pin the callers' frames (and their batch matrices) in a cycle."""
        config = ModemConfig()
        recs, _ = _frame_recordings(config, 3, seed=4)
        sync = Synchronizer(config)
        layout = frame_layout(config, 2)
        matches = [sync.locate(rec) for rec in recs]
        # Anchored near the end: the bodies run past the recording.
        matches[1] = replace(matches[1], start=recs[1].size - 10)
        results = sync.extract_bodies_rows(np.stack(recs), matches, layout)
        assert isinstance(results[1], Exception)
        assert results[1].__traceback__ is None
        with pytest.raises(type(results[1])) as scalar:
            sync.extract_bodies(recs[1], matches[1], layout)
        assert str(scalar.value) == str(results[1])

    def test_receive_batch_matches_scalar(self):
        """One grouped call over a single plan equals the sequential
        reference receiver row for row, failures included."""
        config = ModemConfig()
        recs, n_bits = _frame_recordings(
            config, 5, seed=5, drop_row=1, cut_row=3
        )
        rx = OfdmReceiver(config, QPSK)
        batch = receive_batch_grouped(
            [rx] * len(recs), recs, expected_bits=n_bits
        )
        decoded = 0
        for rec, got in zip(recs, batch):
            want = _reference_outcome(config, rec, n_bits)
            if isinstance(want, ModemError):
                assert type(got) is type(want)
                assert str(got) == str(want)
                continue
            decoded += 1
            _assert_same_result(got, want)
        assert decoded >= 3  # frames actually demodulated, not all failed

    def test_receive_batch_grouped_mixes_plans(self):
        # Two plans with the same geometry (12 data bins, one pilot
        # comb) but different bin assignments: the wave driver's common
        # case, where every session probes its own sub-channels.  The
        # grouped path must still equal the reference receive under
        # each row's own plan.
        config = ModemConfig()
        plan_a = ChannelPlan.from_config(config)
        plan_b = ChannelPlan(
            fft_size=config.fft_size,
            data=(8, 9, 10, 12, 13, 14, 16, 17, 18, 20, 21, 22),
            pilots=plan_a.pilots,
        )
        rng = np.random.default_rng(13)
        rows = []
        n_bits = 2 * len(plan_a.data)
        for i, plan in enumerate([plan_a, plan_b, plan_a, plan_b, plan_a]):
            tx = OfdmTransmitter(config, QPSK, plan=plan)
            frame = tx.modulate(rng.integers(0, 2, n_bits)).waveform
            rec = np.concatenate(
                [np.zeros(300 + 40 * i), 0.4 * frame, np.zeros(900 - 40 * i)]
            )
            rec += 1e-4 * rng.standard_normal(rec.size)
            if i == 2:
                rec = 1e-4 * rng.standard_normal(rec.size)  # no frame
            rows.append((plan, rec))
        receivers = [
            OfdmReceiver(config, QPSK, plan=plan) for plan, _ in rows
        ]
        grouped = receive_batch_grouped(
            receivers, [rec for _, rec in rows], expected_bits=n_bits
        )
        decoded = 0
        for (plan, rec), got in zip(rows, grouped):
            want = _reference_outcome(config, rec, n_bits, plan=plan)
            if isinstance(want, ModemError):
                assert type(got) is type(want)
                continue
            decoded += 1
            _assert_same_result(got, want)
        assert decoded >= 3

    def test_stacked_estimate_failure_reruns_each_frame(self):
        """A locked frame with empty pilots fails the stacked channel
        estimate; every frame then re-runs the tail alone, so only that
        row fails, and the one-row ``receive`` raises the same error."""
        config = ModemConfig()
        recs, n_bits = _frame_recordings(config, 4, seed=9, mute_row=2)
        rx = OfdmReceiver(config, QPSK)
        batch = receive_batch_grouped(
            [rx] * len(recs), recs, expected_bits=n_bits
        )
        assert isinstance(batch[2], DemodulationError)
        with pytest.raises(DemodulationError):
            reference_receive(config, QPSK, recs[2], n_bits)
        for i in (0, 1, 3):
            _assert_same_result(
                batch[i], reference_receive(config, QPSK, recs[i], n_bits)
            )
        with pytest.raises(DemodulationError) as live:
            rx.receive(recs[2], n_bits)
        assert str(live.value) == str(batch[2])

    def test_receive_batch_grouped_rejects_mixed_geometry(self):
        config = ModemConfig()
        recs, n_bits = _frame_recordings(config, 2, seed=6)
        mismatched = [
            OfdmReceiver(config, QPSK),
            OfdmReceiver(config, QPSK, detection_threshold=0.9),
        ]
        with pytest.raises(ModemError):
            receive_batch_grouped(mismatched, recs, expected_bits=n_bits)


class TestStagedSessionEquivalence:
    """begin → precompute_otp → feed → finish equals a live run()."""

    @staticmethod
    def _fingerprint(outcome):
        return (
            outcome.unlocked,
            outcome.abort_reason,
            outcome.mode,
            outcome.raw_ber,
            outcome.total_delay_s,
            outcome.attempts,
            outcome.reprobes,
            outcome.watch_energy_j,
            outcome.phone_energy_j,
            tuple(
                (r.name, r.score, r.passed, r.skipped)
                for r in outcome.verifier_results
            ),
        )

    def _run_staged(self, seed, **config):
        session = UnlockSession(SessionConfig(seed=seed, **config))
        pending = session.begin()
        waves = 0
        while pending.paused:
            precompute_otp([pending])
            waves += 1
            pending.feed()
        return pending, waves

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_staged_session_matches_live(self, seed):
        live_pending = UnlockSession(SessionConfig(seed=seed)).begin(
            pause_before=None
        )
        live = live_pending.finish()
        staged_pending, _ = self._run_staged(seed)
        staged = staged_pending.finish()
        assert self._fingerprint(staged) == self._fingerprint(live)
        if live.mode is not None:
            # Phase 2 ran in both: the staged otp-tx stream must end at
            # exactly the live generator position (a downgrade
            # retransmission would continue from it).
            assert (
                staged_pending.ctx.rng_for("otp-tx").bit_generator.state
                == live_pending.ctx.rng_for("otp-tx").bit_generator.state
            )

    @pytest.mark.parametrize(
        "faults",
        (
            "burst_noise@otp-tx:severity=2",
            "frame_truncation@otp-tx",
            "snr_collapse@otp-tx:severity=3,hits=none",
            "burst_noise@otp-tx;msg_drop@otp-tx",
        ),
    )
    @pytest.mark.parametrize("seed", [7, 11])
    def test_faulted_staged_session_matches_live(self, seed, faults):
        """The batch transmits under the session's own injector, after
        its channel-config message, so it fires the same faults as a
        live transmit, in live order."""
        config = dict(faults=faults, retry=RetryPolicy())
        live = UnlockSession(SessionConfig(seed=seed, **config)).run()
        staged_pending, _ = self._run_staged(seed, **config)
        staged = staged_pending.finish()
        assert self._fingerprint(staged) == self._fingerprint(live)
        assert staged.faults_injected == live.faults_injected

    #: One block's fault plans: fault-free rows next to rows whose
    #: config or stop message drops, whose frame is hit by a burst, and
    #: whose stage is charged a latency spike.
    _BLOCK_PLANS = (
        None,
        "msg_drop@otp-tx:hits=none",
        "burst_noise@otp-tx:severity=2",
        "latency_spike@otp-tx",
        "msg_drop@otp-tx:p=0.5,hits=none;burst_noise@otp-tx:p=0.5",
        None,
        "latency_spike@otp-tx;msg_drop@otp-tx",
    )

    @staticmethod
    def _state(pending):
        ctx = pending.ctx
        faults = None
        if ctx.faults is not None:
            snap = ctx.faults.snapshot()
            faults = (
                dict(snap.streams),
                dict(snap.hits),
                snap.events,
                ctx.faults.stage,
            )
        return (
            pending.paused,
            ctx.rng_for("otp-tx").bit_generator.state,
            faults,
            ctx.timeline.total,
            ctx.watch_meter.total_joules,
            ctx.phone_meter.total_joules,
        )

    @pytest.mark.parametrize("retry", (True, False))
    def test_batch_step_matches_one_row_runs(self, retry):
        """One batch step over a block leaves every context where the
        engine's own loop, running ``otp-tx`` for one session at a
        time, leaves a twin — generator, injector and its ordered
        events, timeline, both meters — and the resumed passes finish
        with the same stages run and outcome."""
        configs = [
            SessionConfig(
                seed=seed,
                faults=faults,
                retry=RetryPolicy() if retry else None,
            )
            for seed in (7, 11, 23)
            for faults in self._BLOCK_PLANS
        ]
        block = [UnlockSession(cfg).begin() for cfg in configs]
        twins = [
            UnlockSession(cfg).begin(pause_before="verify") for cfg in configs
        ]
        keep = [i for i, p in enumerate(block) if p.paused]
        block = [block[i] for i in keep]
        twins = [twins[i] for i in keep]
        assert len(block) >= 10

        precompute_otp(block)
        states = [self._state(p) for p in block]
        assert states == [self._state(t) for t in twins]
        # The block really mixes rows on air with rows that aborted at
        # a dropped message, and faults fired in it.
        assert {state[0] for state in states} == {True, False}
        assert any(state[2] and state[2][2] for state in states)

        for pending, twin in zip(block, twins):
            pending.feed()
            got, want = pending.finish(), twin.finish()
            assert got.stages_run == want.stages_run
            assert self._fingerprint(got) == self._fingerprint(want)
            assert got.faults_injected == want.faults_injected

    def test_some_seed_reaches_phase_two(self):
        reached = []
        for seed in (7, 11, 23):
            pending = UnlockSession(SessionConfig(seed=seed)).begin(
                pause_before=None
            )
            reached.append(pending.finish().mode is not None)
        assert any(reached), "no chosen seed exercises the OTP stage"


def _staged_run(cfg, monkeypatch):
    """``run_shard`` records at ``staging="otp"`` and the rows
    :func:`~repro.fleet.executor.precompute_otp` saw."""
    rows = []

    def counted(pendings):
        rows.append(len(pendings))
        return precompute_otp(pendings)

    with monkeypatch.context() as m:
        m.setattr(executor, "precompute_otp", counted)
        records = run_shard(cfg, 0, cfg.n_users, staging="otp")
    return records, sum(rows)


class TestStagedOtpFleet:
    """Whole-shard and scheduled-fleet identity at ``staging='otp'``."""

    def test_records_identical_across_all_staging_levels(self, monkeypatch):
        # An acoustic fault at probe-tx leaves the OTP waves staged.
        for faults in ("", "mic_dropout@*:p=0.5"):
            cfg = FleetConfig(n_users=5, hours=24.0, seed=9, faults=faults)
            staged, rows = _staged_run(cfg, monkeypatch)
            assert rows > 0
            assert staged == run_shard(cfg, 0, 5, staging="none")

    def test_shard_split_invariance(self):
        """The wave batching must not couple sessions across shard
        boundaries: users [0,6) in one shard equal [0,3)+[3,6)."""
        cfg = FleetConfig(n_users=6, hours=24.0, seed=3)
        whole = run_shard(cfg, 0, 6, staging="otp")
        halves = run_shard(cfg, 0, 3, staging="otp") + run_shard(
            cfg, 3, 6, staging="otp"
        )
        assert whole == halves

    def test_wireless_faulted_shard_stays_staged(self, monkeypatch):
        """A wireless fault at otp-tx keeps the OTP waves staged: the
        batch delivers each config message before its frame goes on
        air, as the live stage does."""
        cfg = FleetConfig(
            n_users=4, hours=24.0, seed=9, faults="msg_drop@otp-tx:p=0.5"
        )
        staged, rows = _staged_run(cfg, monkeypatch)
        assert rows > 0
        assert staged == run_shard(cfg, 0, 4, staging="none")

    def test_scheduler_staging_and_worker_invariance(self):
        cfg = FleetConfig(n_users=8, hours=24.0, seed=4)

        def doc(result):
            return json.dumps(
                result.aggregate.to_dict(hours=cfg.hours),
                sort_keys=True, indent=2,
            )

        base = doc(FleetScheduler(cfg, workers=1, staging="none").run())
        staged = doc(FleetScheduler(cfg, workers=1, staging="otp").run())
        pooled = doc(
            FleetScheduler(
                cfg, workers=4, shard_users=2, staging="otp"
            ).run()
        )
        assert base == staged == pooled


#: Random 1–3-spec fault plans over every kind and every armable stage.
_FAULT_PLANS = st.lists(
    st.builds(
        FaultSpec,
        kind=st.sampled_from(FAULT_KINDS),
        stage=st.sampled_from(("*",) + UNLOCK_STAGE_NAMES),
    ),
    min_size=1,
    max_size=3,
).map(FaultPlan.of)


def _phase_rows(cfg, staging):
    """``run_shard`` records and the rows each staging primitive saw."""
    rows = {"prefilter": 0, "probe": 0, "otp": 0}

    def counted(name, primitive):
        def run(items, *args):
            rows[name] += len(items)
            return primitive(items, *args)

        return run

    with pytest.MonkeyPatch.context() as m:
        for name in rows:
            attr = f"precompute_{name}"
            m.setattr(executor, attr, counted(name, getattr(executor, attr)))
        records = run_shard(cfg, 0, cfg.n_users, staging=staging)
    return records, rows


class TestWaveInvariants:
    """Hypothesis: the invariants the wave driver is built on."""

    @given(st.lists(st.integers(0, 5), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_partition_indices_is_order_preserving_partition(self, keys):
        groups = partition_indices(keys)
        # Keys appear in first-seen order.
        seen = []
        for k in keys:
            if k not in seen:
                seen.append(k)
        assert list(groups) == seen
        # Each position list is strictly ascending and holds exactly
        # the positions of its key; together they partition range(n).
        everything = []
        for key, positions in groups.items():
            assert positions == sorted(positions)
            assert all(keys[p] == key for p in positions)
            everything.extend(positions)
        assert sorted(everything) == list(range(len(keys)))

    @given(st.lists(st.integers(0, 3), max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_splice_back_reproduces_session_order(self, keys):
        """Scattering per-group results through the position lists
        reconstructs the original order — the staged passes' core
        assumption."""
        out = [None] * len(keys)
        for key, positions in partition_indices(keys).items():
            group_result = [(key, p) for p in positions]  # batched work
            for value, p in zip(group_result, positions):
                out[p] = value
        assert out == [(k, i) for i, k in enumerate(keys)]

    @given(
        st.sampled_from(STAGING_LEVELS),
        st.one_of(st.none(), _FAULT_PLANS),
    )
    @settings(max_examples=20, deadline=None)
    def test_staged_phases_follow_the_plan(self, level, plan):
        """The staging level alone picks the staged phases: ``"none"``
        stages nothing, ``"otp"`` stages every phase under any plan
        (every session that sends an OTP was staged first), and the
        records equal a live run."""
        cfg = FleetConfig(
            n_users=2, hours=24.0, seed=5,
            faults=plan.describe() if plan is not None else "",
        )
        records, rows = _phase_rows(cfg, level)
        live = run_shard(cfg, 0, cfg.n_users, staging="none")
        assert records == live
        if level == "none":
            assert rows == {"prefilter": 0, "probe": 0, "otp": 0}
        else:
            assert rows["prefilter"] > 0
            assert rows["probe"] > 0
            if any(r.mode for r in live):
                assert rows["otp"] > 0
