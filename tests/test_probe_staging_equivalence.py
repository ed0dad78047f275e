"""Bit-identity of the shard-batched Phase-1 probe DSP.

The fleet's ``staging="otp"`` fast path replays every session's
probe-tx rng stream out of band and runs the channel synthesis,
synchronizer correlations and pilot receive FFTs as stacked batches.
These tests pin the contract at both layers: every row of each batch
primitive is bit-identical to the independent 1-D bodies in
``tests/kernel_oracle.py`` (the scalar entry points are the kernels'
one-row calls), including the generator stream positions it leaves
behind, and whole shards produce the same session records whether the
probe replay is staged or live.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.hardware import MicrophoneModel
from repro.channel.multipath import RoomImpulseResponse, convolve_ir_rows
from repro.channel.noise import NoiseScene, shaped_noise_batch
from repro.config import ModemConfig, SystemConfig
from repro.core.colocation import AmbientComparator
from repro.dsp.correlation import sliding_normalized_correlation_batch
from repro.dsp.filters import design_bandpass_fir, fir_filter_batch
from repro.dsp.spectrum import welch_psd_batch
from repro.errors import ConfigurationError, ModemError
from repro.fleet import FleetConfig, FleetScheduler, executor, run_shard
from repro.fleet.population import SessionSpec
from repro.modem import probe as probe_module
from repro.modem.frame import demodulate_blocks, frame_layout
from repro.modem.preamble import PreambleDetector
from repro.modem.probe import ChannelProber
from repro.modem.reference import reference_fine_sync_offset
from repro.verifiers import probe_head_samples, resolve_verifier_names
from tests import kernel_oracle as oracle

BANDS = ((0.0, 1200.0, 1.0), (2000.0, 5000.0, 0.6))
FS = 44_100.0


class TestBatchPrimitives:
    """Each row of each stacked transform equals the 1-D oracle
    bit-for-bit."""

    def test_fir_filter_batch_matches_rows(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((5, 3000))
        taps = design_bandpass_fir(800.0, 4000.0, FS, num_taps=257)
        batch = fir_filter_batch(rows, taps)
        for i, row in enumerate(rows):
            assert np.array_equal(batch[i], oracle.fir_filter(row, taps))

    def test_sliding_ncc_batch_matches_rows(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((4, 2048))
        template = rng.standard_normal(300)
        batch = sliding_normalized_correlation_batch(rows, template)
        for i, row in enumerate(rows):
            assert np.array_equal(
                batch[i], oracle.sliding_normalized_correlation(row, template)
            )

    def test_welch_psd_batch_matches_rows(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((3, 5000))
        freqs_b, psds = welch_psd_batch(rows, FS)
        for i, row in enumerate(rows):
            freqs, psd = oracle.welch_psd(row, FS)
            assert np.array_equal(freqs_b, freqs)
            assert np.array_equal(psds[i], psd)

    def test_convolve_ir_rows_matches_apply(self):
        room = RoomImpulseResponse()
        rng = np.random.default_rng(3)
        signal = rng.standard_normal(4000)
        irs = np.stack(
            [room.sample(np.random.default_rng(s)) for s in range(4)]
        )
        batch = convolve_ir_rows(signal, irs)
        for s in range(4):
            scalar = room.apply(signal, rng=np.random.default_rng(s))
            assert np.array_equal(batch[s], scalar)
            assert np.array_equal(batch[s], oracle.convolve(signal, irs[s]))

    def test_shaped_noise_batch_matches_scalar_and_stream(self):
        seeds = (10, 11, 12)
        gens = [np.random.default_rng(s) for s in seeds]
        batch = shaped_noise_batch(4096, 55.0, FS, BANDS, gens)
        for i, seed in enumerate(seeds):
            mirror = np.random.default_rng(seed)
            scalar = oracle.shaped_noise(4096, 55.0, FS, BANDS, mirror)
            assert np.array_equal(batch[i], scalar)
            # The staged path hands the generators back to live code, so
            # the stream must stop at exactly the oracle's position.
            assert gens[i].bit_generator.state == mirror.bit_generator.state

    def test_shaped_noise_batch_draws_only_mode(self):
        """``values=False`` advances the streams identically but skips
        the FIR shaping (the quiet-scene staging shortcut)."""
        gens = [np.random.default_rng(s) for s in (20, 21)]
        out = shaped_noise_batch(2048, 55.0, FS, BANDS, gens, values=False)
        assert not out.any()
        for seed, gen in zip((20, 21), gens):
            mirror = np.random.default_rng(seed)
            oracle.shaped_noise(2048, 55.0, FS, BANDS, mirror)
            assert gen.bit_generator.state == mirror.bit_generator.state

    def test_scene_sample_batch_matches_scalar(self):
        scene = NoiseScene(
            spl_db=60.0, bands=BANDS, jam_tones_hz=(3000.0,),
            jam_spl_db=52.0,
        )
        gens = [np.random.default_rng(s) for s in (30, 31)]
        batch = scene.sample_batch(3000, gens)
        for i, seed in enumerate((30, 31)):
            mirror = np.random.default_rng(seed)
            assert np.array_equal(
                batch[i], oracle.scene_sample(scene, 3000, mirror)
            )
            assert gens[i].bit_generator.state == mirror.bit_generator.state

    def test_record_batch_matches_scalar_and_stream(self):
        mic = MicrophoneModel()
        rng = np.random.default_rng(4)
        signals = 0.1 * rng.standard_normal((3, 4000))
        gens = [np.random.default_rng(s) for s in (40, 41, 42)]
        batch = mic.record_batch(signals, gens)
        for i, seed in enumerate((40, 41, 42)):
            mirror = np.random.default_rng(seed)
            assert np.array_equal(
                batch[i], oracle.mic_record(mic, signals[i], mirror)
            )
            assert gens[i].bit_generator.state == mirror.bit_generator.state

    def test_record_batch_draws_only_mode(self):
        mic = MicrophoneModel()
        signals = np.zeros((2, 1000))
        gens = [np.random.default_rng(s) for s in (50, 51)]
        out = mic.record_batch(signals, gens, values=False)
        assert not out.any()
        for seed, gen in zip((50, 51), gens):
            mirror = np.random.default_rng(seed)
            oracle.mic_record(mic, np.zeros(1000), mirror)
            assert gen.bit_generator.state == mirror.bit_generator.state

    def test_similarity_batch_matches_scalar(self):
        comparator = AmbientComparator()
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 8000))
        b = a + 0.3 * rng.standard_normal((4, 8000))
        batch = comparator.similarity_batch(a, b)
        for i in range(4):
            assert batch[i] == oracle.similarity(comparator, a[i], b[i])

    def test_analyze_batch_matches_scalar(self, monkeypatch):
        """Batch rows equal one-row calls (no row depends on the rows
        batched with it), and the bodies analyzed are the slices the
        sequential fine-sync loop picks."""
        config = ModemConfig()
        prober = ChannelProber(config)
        probe = prober.build_probe()
        rng = np.random.default_rng(6)
        recs = []
        for amp in (0.5, 0.2):
            rec = np.concatenate(
                [np.zeros(400), amp * probe, np.zeros(600)]
            )
            rec += 1e-4 * rng.standard_normal(rec.size)
            recs.append(rec)
        # A probe-free row (at this threshold its noise still locks).
        recs.append(1e-4 * rng.standard_normal(recs[0].size))
        stacked = []

        def capture(cfg, blocks):
            stacked.append(np.array(blocks))
            return demodulate_blocks(cfg, blocks)

        monkeypatch.setattr(probe_module, "demodulate_blocks", capture)
        batch = prober.analyze_batch(np.stack(recs))
        (bodies,) = stacked
        monkeypatch.undo()
        for rec, got in zip(recs, batch):
            try:
                want = prober.analyze(rec)
            except ModemError as exc:
                assert type(got) is type(exc)
                continue
            assert got.detected == want.detected
            assert got.preamble_score == want.preamble_score
            assert got.tau_rms == want.tau_rms
            assert got.noise_spl == want.noise_spl
            assert got.psnr_db == want.psnr_db
            if want.noise_per_bin is None:
                assert got.noise_per_bin is None
            else:
                assert np.array_equal(got.noise_per_bin, want.noise_per_bin)
            if want.recommended_plan is None:
                assert got.recommended_plan is None
            else:
                assert got.recommended_plan.data == want.recommended_plan.data
        assert batch[0].detected and batch[1].detected

        layout = frame_layout(config, 2)
        want_bodies = []
        for rec, report in zip(recs, batch):
            if not report.detected:
                continue
            anchor = PreambleDetector(config).detect(rec).start - (
                layout.preamble_length
            )
            for nominal in layout.symbol_offsets():
                cp_start = anchor + int(nominal)
                start = cp_start + layout.cp_length + (
                    reference_fine_sync_offset(rec, cp_start, config, 24)
                )
                want_bodies.append(rec[start: start + layout.fft_size])
        assert np.array_equal(bodies, np.stack(want_bodies))


class TestStagedAmbientScores:
    """A staged probe group's two ambient fingerprints, row by row."""

    # Near-ultrasound in the cafe: the LOS rows within 2 m detect the
    # probe, the 12 m NLOS rows do not.
    PLACEMENTS = ((0.3, True), (0.8, True), (2.0, True), (12.0, False))
    VERIFIER_SETS = (
        ("ambient", "multiband"),
        ("multiband",),
        None,
        ("multiband", "vibration"),
        ("ambient",),
    )

    def test_precompute_probe_matches_oracle(self, monkeypatch):
        specs = [
            SessionSpec(
                user_id=i, session_index=0, hour=9.0, environment="cafe",
                distance_m=distance, los=los, activity="still",
                co_located=True, band="ultrasound", wireless="bluetooth",
                phone="Nexus 6", watch="Moto 360", seed=500 + i,
                verifiers=self.VERIFIER_SETS[i % len(self.VERIFIER_SETS)],
            )
            for i, (distance, los) in enumerate(self.PLACEMENTS * 3)
        ]
        # The group's two recordings, in draw order: the phone's
        # ambient self-recordings, then the watch's probe captures.
        recordings = []
        record_batch = MicrophoneModel.record_batch

        def record(mic, signals, rngs, values=True):
            out = record_batch(mic, signals, rngs, values=values)
            recordings.append(out.copy())
            return out

        monkeypatch.setattr(MicrophoneModel, "record_batch", record)
        probes, sims, mb_sims = executor.precompute_probe(specs)
        ambients, recorded = recordings

        modem = SystemConfig().modem.near_ultrasound()
        fs = modem.sample_rate
        head_n = probe_head_samples(fs, modem)
        comparator = AmbientComparator(
            sample_rate=fs, high_hz=min(18_000.0, fs / 2.2)
        )
        kinds = set()
        for i, spec in enumerate(specs):
            report = probes[i].report
            detected = report is not None and report.detected
            multiband = "multiband" in resolve_verifier_names(spec.verifiers)
            kinds.add((detected, multiband))
            head = recorded[i, :head_n]
            if not detected:
                assert sims[i] is None and mb_sims[i] is None
                continue
            assert sims[i] == oracle.similarity(comparator, ambients[i], head)
            if multiband:
                assert mb_sims[i] == oracle.multiband_similarity(
                    ambients[i], head, fs
                )
            else:
                assert mb_sims[i] is None
        # Detected and failed rows, each with and without multiband.
        assert kinds == {(d, m) for d in (True, False) for m in (True, False)}


def _staged_run(cfg, monkeypatch):
    """``run_shard`` records at ``staging="otp"`` and the rows
    :func:`~repro.fleet.executor.precompute_probe` saw."""
    rows = []
    probe = executor.precompute_probe

    def counted(specs):
        rows.append(len(specs))
        return probe(specs)

    with monkeypatch.context() as m:
        m.setattr(executor, "precompute_probe", counted)
        records = run_shard(cfg, 0, cfg.n_users, staging="otp")
    return records, sum(rows)


class TestStagedProbeFleet:
    """Whole-shard identity with the probe replay staged or live."""

    def test_records_identical_across_staging_levels(self, monkeypatch):
        # An acoustic fault at probe-tx replays the probe live and keeps
        # the rest staged; either way the records match the oracle.
        for faults, probe_staged in (
            ("", True),
            ("mic_dropout@*:p=0.5", False),
        ):
            cfg = FleetConfig(n_users=5, hours=24.0, seed=13, faults=faults)
            staged, rows = _staged_run(cfg, monkeypatch)
            assert (rows > 0) == probe_staged
            assert staged == run_shard(cfg, 0, 5, staging="none")

    def test_faulted_shard_degrades_but_stays_identical(self, monkeypatch):
        """A wireless fault at otp-tx drops only the OTP waves: the probe
        stays staged, and the records must still match the all-live
        run."""
        cfg = FleetConfig(
            n_users=4, hours=24.0, seed=9, faults="msg_drop@otp-tx:p=0.5"
        )
        staged, rows = _staged_run(cfg, monkeypatch)
        assert rows > 0
        assert staged == run_shard(cfg, 0, 4, staging="none")

    def test_scheduler_staging_and_worker_invariance(self):
        # Probe staged, OTP live (the wireless cap), across workers.
        cfg = FleetConfig(
            n_users=6, hours=24.0, seed=4, faults="msg_drop@otp-tx:p=0.5"
        )

        def doc(result):
            import json

            return json.dumps(
                result.aggregate.to_dict(hours=cfg.hours),
                sort_keys=True, indent=2,
            )

        base = doc(FleetScheduler(cfg, workers=1, staging="none").run())
        staged = doc(FleetScheduler(cfg, workers=1, staging="otp").run())
        pooled = doc(
            FleetScheduler(
                cfg, workers=2, shard_users=2, staging="otp"
            ).run()
        )
        assert base == staged == pooled

    def test_invalid_staging_rejected(self):
        from repro.cli import main

        cfg = FleetConfig(n_users=2, hours=24.0, seed=1)
        # The retired ladder rungs are rejected like any unknown level.
        for level in ("bogus", "dtw", "probe"):
            with pytest.raises(ConfigurationError):
                run_shard(cfg, 0, 2, staging=level)
            with pytest.raises(ConfigurationError):
                FleetScheduler(cfg, staging=level)
            with pytest.raises(SystemExit) as exited:
                main(["fleet", "run", "--users", "1", "--staging", level])
            assert exited.value.code == 2
        with pytest.raises(SystemExit):
            main(["fleet", "run", "--users", "1", "--no-batch"])
