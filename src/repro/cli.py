"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``unlock``       run one unlock attempt and print the outcome
``experiment``   regenerate one of the paper's figures/tables
``fleet``        population-scale simulation (``run``) and report
                 rendering (``report``)
``trials``       the claim-checking harness: ``run`` a tier of the
                 trial matrix, ``judge`` the results against
                 paper-figure envelopes and the perf trajectory,
                 ``report`` the generated results docs, and
                 ``trajectory`` the per-PR bench ledger
``encode``       modulate a payload (hex) into a WAV file
``decode``       demodulate a WAV recording back to a payload
``info``         print the modem configuration and environments

``fleet run`` writes a deterministic aggregate document: for a fixed
``--users/--hours/--seed/--faults`` it is byte-identical for any
``--workers`` value (runtime telemetry goes to stderr, never into the
document) — CI diffs the files to hold the line.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_unlock(args: argparse.Namespace) -> int:
    from .core.system import WearLock
    from .core.trace import Tracer
    from .errors import WearLockError

    tracer = Tracer() if args.trace else None
    retry = None
    if args.retries is not None:
        from .protocol.session import RetryPolicy

        retry = RetryPolicy(max_attempts=max(1, args.retries))
    faults = None
    if args.faults:
        from .faults import FaultPlan
        from .protocol.stages import UNLOCK_STAGE_NAMES

        try:
            faults = FaultPlan.parse(args.faults).check_stages(
                UNLOCK_STAGE_NAMES
            )
        except WearLockError as exc:
            print(f"bad --faults spec: {exc}", file=sys.stderr)
            return 2
        # Fault runs want recovery on unless explicitly disabled.
        if retry is None and not args.no_retry:
            from .protocol.session import RetryPolicy

            retry = RetryPolicy()
    verifiers = None
    if args.verifiers:
        verifiers = tuple(
            name.strip() for name in args.verifiers.split(",") if name.strip()
        )
    wearlock = WearLock.pair(secret=args.secret.encode())
    try:
        outcome = wearlock.unlock_attempt(
            environment=args.environment,
            distance_m=args.distance,
            los=not args.nlos,
            wireless=args.wireless,
            band=args.band,
            seed=args.seed,
            tracer=tracer,
            faults=faults,
            retry=retry,
            verifiers=verifiers,
            fusion=args.fusion,
        )
    except WearLockError as exc:
        print(f"bad --verifiers/--fusion spec: {exc}", file=sys.stderr)
        return 2
    print(f"unlocked:  {outcome.unlocked}")
    print(f"reason:    {outcome.abort_reason.value}")
    print(f"mode:      {outcome.mode}")
    if outcome.raw_ber is not None:
        print(f"raw BER:   {outcome.raw_ber:.4f}")
    if outcome.psnr_db is not None:
        print(f"pilot SNR: {outcome.psnr_db:.1f} dB")
    print(f"delay:     {outcome.total_delay_s:.2f} s")
    if retry is not None or faults is not None:
        print(f"attempts:  {outcome.attempts} (reprobes {outcome.reprobes})")
        if outcome.recovered:
            print("recovered: True")
    if outcome.faults_injected:
        print(f"faults:    {', '.join(outcome.faults_injected)}")
    if (args.verifiers or args.fusion != "and") and outcome.verifier_results:
        for res in outcome.verifier_results:
            state = (
                "skipped"
                if res.skipped
                else ("pass" if res.passed else "FAIL")
            )
            score = "-" if res.score is None else f"{res.score:.3f}"
            print(f"verifier:  {res.name:10s} {state:7s} score={score}")
    if tracer is not None:
        tracer.export_json(args.trace)
        stages = ", ".join(outcome.stages_run)
        print(f"stages:    {stages}", file=sys.stderr)
        print(f"trace:     wrote {args.trace}", file=sys.stderr)
    return 0 if outcome.unlocked else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .eval.runner import EXPERIMENT_REGISTRY, run_all, save_report

    aliases = {
        "fig4": "fig4_propagation",
        "fig5": "fig5_ber_vs_ebn0",
        "fig6": "fig6_offload",
        "fig7": "fig7_range",
        "fig8": "fig8_adaptive",
        "fig9": "fig9_jamming",
        "fig10": "fig10_compute_delay",
        "fig11": "fig11_comm_delay",
        "fig12": "fig12_total_delay",
        "table1": "table1_field_test",
        "table2": "table2_dtw",
        "case-study": "case_study",
        "recovery": "recovery_rate",
        "verifier-fusion": "verifier_fusion_matrix",
    }
    name = aliases.get(args.name, args.name)
    if name != "all" and name not in EXPERIMENT_REGISTRY:
        known = sorted(set(aliases) | set(EXPERIMENT_REGISTRY) | {"all"})
        print(
            f"unknown experiment {args.name!r}; "
            f"choose from {', '.join(known)}",
            file=sys.stderr,
        )
        return 2

    only = None if name == "all" else [name]
    results = run_all(
        only=only,
        progress=lambda n: print(f"running {n}...", file=sys.stderr),
        workers=args.workers,
    )
    if args.out:
        save_report(results, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        import json

        print(json.dumps(results, indent=2))
    return 0


def _fleet_document(config, aggregate) -> str:
    """The canonical fleet JSON document (the byte-identity artifact)."""
    import dataclasses
    import json

    return (
        json.dumps(
            {
                "config": dataclasses.asdict(config),
                "aggregate": aggregate.to_dict(hours=config.hours),
            },
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    import dataclasses

    from .core.trace import Tracer
    from .errors import WearLockError
    from .fleet import FleetConfig, FleetScheduler, render_fleet_report

    tracer = Tracer()
    try:
        config = FleetConfig(
            n_users=args.users,
            hours=args.hours,
            seed=args.seed,
            sessions_per_day=args.sessions_per_day,
            faults=args.faults or "",
            retry=not args.no_retry,
            fusion_mix=args.fusion_mix,
            scene_density=args.contention,
        )
        scheduler = FleetScheduler(
            config,
            workers=args.workers,
            shard_users=args.shard_users,
            tracer=tracer,
            staging=args.staging,
        )
    except WearLockError as exc:
        print(f"bad fleet config: {exc}", file=sys.stderr)
        return 2
    result = scheduler.run()
    payload = _fleet_document(config, result.aggregate)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(payload)
    if args.report:
        markdown = render_fleet_report(
            result.aggregate.to_dict(hours=config.hours),
            dataclasses.asdict(config),
            report_path=args.report,
        )
        with open(args.report, "w") as fh:
            fh.write(markdown)
        print(f"wrote {args.report}", file=sys.stderr)
    totals = tracer.report().counter_totals()
    print(
        f"{result.sessions} sessions / {config.n_users} users / "
        f"{result.shards} dispatched shards in {result.wall_s:.2f} s "
        f"({result.sessions_per_sec:.1f} sessions/s, "
        f"workers={result.workers}, "
        f"pin_fallbacks={totals.get('pin_fallbacks', 0):.0f})",
        file=sys.stderr,
    )
    return 0


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    import json

    from .fleet import render_fleet_report

    with open(getattr(args, "from")) as fh:
        doc = json.load(fh)
    markdown = render_fleet_report(
        doc["aggregate"],
        doc.get("config"),
        report_path=args.out or "docs/FLEET_REPORT.md",
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(markdown)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(markdown)
    return 0


def _trials_results_path(args: argparse.Namespace):
    from .trials.runner import default_results_path

    if getattr(args, "results", None):
        from pathlib import Path

        return Path(args.results)
    return default_results_path(args.tier)


def _cmd_trials_run(args: argparse.Namespace) -> int:
    from .errors import WearLockError
    from .trials.runner import canonical_json, run_tier, save_results

    progress = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    try:
        doc = run_tier(args.tier, only_cell=args.cell, progress=progress)
    except WearLockError as exc:
        print(f"trials run failed: {exc}", file=sys.stderr)
        return 2
    if args.cell and not args.results:
        # A single cell is an ad-hoc probe: print it, don't clobber
        # the committed tier document.
        sys.stdout.write(canonical_json(doc))
        return 0
    path = _trials_results_path(args)
    save_results(doc, path)
    print(
        f"wrote {path} ({len(doc['results'])} cells)", file=sys.stderr
    )
    return 0


def _cmd_trials_judge(args: argparse.Namespace) -> int:
    from .errors import WearLockError
    from .trials.config import cells_for_tier
    from .trials.judges import judge_document
    from .trials.runner import load_results, save_results
    from .trials.trajectory import load_trajectory

    path = _trials_results_path(args)
    try:
        doc = load_results(path)
        trajectory = load_trajectory(args.trajectory)
    except (WearLockError, FileNotFoundError) as exc:
        print(f"trials judge failed: {exc}", file=sys.stderr)
        return 2
    tier = doc.get("tier", args.tier)
    cells = [
        c for c in cells_for_tier(tier)
        if c.cell_id in doc.get("results", {})
        or c.workload == "trajectory"
    ]
    verdicts, all_ok = judge_document(doc, cells, trajectory)
    width = max((len(v.cell_id) for v in verdicts), default=10)
    for v in verdicts:
        state = "pass" if v.passed else "FAIL"
        print(f"{v.cell_id:{width}s}  {v.judge:12s} {state:4s}  "
              f"{v.rationale}")
    doc["verdicts"] = [v.to_dict() for v in verdicts]
    save_results(doc, path)
    print(
        f"{sum(v.passed for v in verdicts)}/{len(verdicts)} verdicts "
        f"passed; wrote {path}",
        file=sys.stderr,
    )
    return 0 if all_ok else 1


def _cmd_trials_report(args: argparse.Namespace) -> int:
    from .trials.report import write_generated_documents

    written = write_generated_documents()
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    if not written:
        print(
            "no artifacts found (run `trials run --tier smoke` first)",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_trials_trajectory(args: argparse.Namespace) -> int:
    from .errors import WearLockError
    from .trials.trajectory import (
        append_point,
        load_trajectory,
        metric_series,
        point_from_benches,
        save_trajectory,
        sparkline,
    )

    try:
        doc = load_trajectory(args.path)
    except WearLockError as exc:
        print(f"bad trajectory file: {exc}", file=sys.stderr)
        return 2
    if args.trajectory_command == "append":
        try:
            metrics = point_from_benches()
        except WearLockError as exc:
            print(f"trajectory append failed: {exc}", file=sys.stderr)
            return 2
        doc = append_point(doc, args.label, metrics, note=args.note)
        save_trajectory(doc, args.path)
        rendered = ", ".join(
            f"{k}={v:.4g}" for k, v in sorted(metrics.items())
        )
        print(f"appended {args.label!r}: {rendered}", file=sys.stderr)
        return 0
    # show
    metrics = sorted(
        {
            key
            for point in doc.get("points", ())
            for key in point.get("metrics", {})
        }
    )
    if not metrics:
        print("trajectory is empty")
        return 0
    for metric in metrics:
        series = metric_series(doc, metric)
        values = [v for _, v in series]
        first_label, first = series[0]
        last_label, last = series[-1]
        print(
            f"{metric:30s} {sparkline(values)}  "
            f"{first:.4g} ({first_label}) -> {last:.4g} ({last_label})"
        )
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    from .config import ModemConfig
    from .modem.bits import unpack_bits
    from .modem.constellation import get_constellation
    from .modem.transmitter import OfdmTransmitter
    from .modem.wavio import write_wav

    config = ModemConfig()
    if args.band == "ultrasound":
        config = config.near_ultrasound()
    payload = bytes.fromhex(args.payload)
    bits = unpack_bits(payload)
    tx = OfdmTransmitter(config, get_constellation(args.mode))
    result = tx.modulate(bits)
    write_wav(args.output, result.waveform, config.sample_rate)
    print(
        f"wrote {args.output}: {bits.size} bits, {args.mode}, "
        f"{result.layout.n_symbols} symbols, "
        f"{result.waveform.size / config.sample_rate * 1e3:.1f} ms"
    )
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    from .config import ModemConfig
    from .errors import WearLockError
    from .modem.bits import pack_bits
    from .modem.constellation import get_constellation
    from .modem.receiver import OfdmReceiver
    from .modem.wavio import read_wav

    config = ModemConfig()
    if args.band == "ultrasound":
        config = config.near_ultrasound()
    samples, rate = read_wav(args.input)
    if abs(rate - config.sample_rate) > 1.0:
        print(
            f"warning: WAV rate {rate:.0f} != modem rate "
            f"{config.sample_rate:.0f}",
            file=sys.stderr,
        )
    rx = OfdmReceiver(config, get_constellation(args.mode))
    try:
        result = rx.receive(samples, expected_bits=args.bits)
    except WearLockError as exc:
        print(f"decode failed: {exc}", file=sys.stderr)
        return 1
    print(pack_bits(result.bits).hex())
    print(
        f"# preamble score {result.preamble_score:.3f}, "
        f"pilot SNR {result.psnr_db:.1f} dB",
        file=sys.stderr,
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .channel.scenarios import ENVIRONMENTS
    from .config import ModemConfig

    config = ModemConfig()
    print("modem defaults (paper §VI):")
    print(f"  sample rate      {config.sample_rate:.0f} Hz")
    print(f"  FFT size         {config.fft_size}")
    print(f"  sub-channel BW   {config.subchannel_bandwidth:.1f} Hz")
    print(f"  CP / guard       {config.cp_length} / {config.guard_length}")
    print(f"  data bins        {config.data_channels}")
    print(f"  pilot bins       {config.pilot_channels}")
    print()
    print("environments:")
    for name, env in ENVIRONMENTS.items():
        print(
            f"  {name:15s} {env.noise.effective_spl():5.1f} dB SPL — "
            f"{env.description}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WearLock reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    unlock = sub.add_parser("unlock", help="run one unlock attempt")
    unlock.add_argument("--environment", default="office")
    unlock.add_argument("--distance", type=float, default=0.4)
    unlock.add_argument("--nlos", action="store_true")
    unlock.add_argument("--wireless", choices=("ble", "wifi"), default="ble")
    unlock.add_argument(
        "--band", choices=("audible", "ultrasound"), default="audible"
    )
    unlock.add_argument("--secret", default="cli-demo-secret")
    unlock.add_argument("--seed", type=int, default=None)
    unlock.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject faults, e.g. 'burst_noise@otp-tx:severity=2;"
        "msg_drop@*:p=0.3' (kind@stage[:k=v,...], ';'-separated)",
    )
    unlock.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="enable the NACK/downgrade recovery loop with N attempts",
    )
    unlock.add_argument(
        "--no-retry",
        action="store_true",
        help="keep recovery off even when --faults is given",
    )
    unlock.add_argument(
        "--verifiers",
        default=None,
        metavar="LIST",
        help="comma-separated proximity verifiers (ambient, motion-dtw, "
        "multiband, vibration); default is the paper's ambient,motion-dtw",
    )
    unlock.add_argument(
        "--fusion",
        default="and",
        metavar="MODE",
        help="fusion policy: and, or, or score[:threshold] "
        "(e.g. 'score:0.6')",
    )
    unlock.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="export the per-stage trace (spans, timings, energy) as JSON",
    )
    unlock.set_defaults(func=_cmd_unlock)

    experiment = sub.add_parser(
        "experiment", help="regenerate a figure/table (or 'all') as JSON"
    )
    experiment.add_argument("name")
    experiment.add_argument(
        "--out", default=None, help="write a JSON report to this path"
    )
    experiment.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan batch-replayable sweeps out over N workers "
        "(results are bit-identical to a serial run)",
    )
    experiment.set_defaults(func=_cmd_experiment)

    fleet = sub.add_parser(
        "fleet", help="population-scale simulation and reporting"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_run = fleet_sub.add_parser(
        "run", help="simulate a user population; emit the aggregate JSON"
    )
    fleet_run.add_argument("--users", type=int, default=200)
    fleet_run.add_argument("--hours", type=float, default=24.0)
    fleet_run.add_argument("--seed", type=int, default=0)
    fleet_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool width; the aggregate document is "
        "byte-identical for any value",
    )
    fleet_run.add_argument(
        "--shard-users",
        type=int,
        default=25,
        help="users per shard: the unit that batched population "
        "seeding, probe/OTP staging and the DTW wavefront amortize over; "
        "with --contention it bounds users with sessions per shard, "
        "packing sparse ranges together (the aggregate document is "
        "byte-identical for any value)",
    )
    fleet_run.add_argument(
        "--sessions-per-day",
        type=float,
        default=4.0,
        help="mean unlock attempts per user per 24 h (at most 1440, "
        "one a minute)",
    )
    fleet_run.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault plan applied to every session (same grammar as "
        "'unlock --faults')",
    )
    fleet_run.add_argument(
        "--no-retry",
        action="store_true",
        help="disable the NACK/downgrade recovery loop",
    )
    fleet_run.add_argument(
        "--fusion-mix",
        choices=("legacy", "score", "archetype"),
        default="legacy",
        help="verifier/fusion assignment across the population: legacy = "
        "ambient+DTW AND for everyone, score = all four verifiers under "
        "score fusion, archetype = per-archetype sets and policies",
    )
    fleet_run.add_argument(
        "--contention",
        type=float,
        default=0.0,
        metavar="DENSITY",
        help="shared-channel contention: target co-channel users per "
        "public scene (scaled per environment by crowding); overlapping "
        "Phase-1 probes contend CSMA-style with deterministic backoff. "
        "0 (the default) reduces bit-for-bit to the independent path",
    )
    fleet_run.add_argument(
        "--staging",
        choices=("none", "otp"),
        default="otp",
        help="shard staging level: none = all-live baseline, otp = batch "
        "the prefilter, the Phase-1 probe and the Phase-2 OTP waves "
        "under any fault plan; the aggregate is byte-identical across "
        "levels",
    )
    fleet_run.add_argument(
        "--out", default=None, help="write the aggregate JSON here"
    )
    fleet_run.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also render the markdown report (e.g. docs/FLEET_REPORT.md)",
    )
    fleet_run.set_defaults(func=_cmd_fleet_run)

    fleet_report = fleet_sub.add_parser(
        "report", help="render a saved aggregate JSON as markdown"
    )
    fleet_report.add_argument(
        "from",
        metavar="AGGREGATE_JSON",
        help="document produced by 'fleet run --out'",
    )
    fleet_report.add_argument(
        "--out", default=None, help="write markdown here (default stdout)"
    )
    fleet_report.set_defaults(func=_cmd_fleet_report)

    trials = sub.add_parser(
        "trials",
        help="claim-checking trial harness (run / judge / report / "
        "trajectory)",
    )
    trials_sub = trials.add_subparsers(dest="trials_command", required=True)

    def _tier_args(p) -> None:
        p.add_argument(
            "--tier",
            choices=("smoke", "nightly", "full-fleet"),
            default="smoke",
            help="trial tier (cumulative: nightly and full-fleet "
            "include the cheaper tiers)",
        )
        p.add_argument(
            "--results",
            default=None,
            metavar="PATH",
            help="results document path "
            "(default: docs/trials/<tier>.json)",
        )

    trials_run = trials_sub.add_parser(
        "run", help="execute a tier of the trial matrix"
    )
    _tier_args(trials_run)
    trials_run.add_argument(
        "--cell",
        default=None,
        metavar="ID",
        help="run a single cell; without --results it prints to stdout "
        "instead of writing the tier document",
    )
    trials_run.set_defaults(func=_cmd_trials_run)

    trials_judge = trials_sub.add_parser(
        "judge",
        help="score a results document; exit 1 on any failed verdict",
    )
    _tier_args(trials_judge)
    trials_judge.add_argument(
        "--trajectory",
        default=None,
        metavar="PATH",
        help="perf ledger for the regression judge "
        "(default: BENCH_trajectory.json)",
    )
    trials_judge.set_defaults(func=_cmd_trials_judge)

    trials_report = trials_sub.add_parser(
        "report",
        help="regenerate docs/TRIALS_REPORT.md, docs/CLAIMS.md and the "
        "EXPERIMENTS.md trial-matrix block from committed artifacts",
    )
    trials_report.set_defaults(func=_cmd_trials_report)

    trials_traj = trials_sub.add_parser(
        "trajectory", help="inspect or append to BENCH_trajectory.json"
    )
    traj_sub = trials_traj.add_subparsers(
        dest="trajectory_command", required=True
    )
    traj_append = traj_sub.add_parser(
        "append",
        help="distill BENCH_*.json into a labeled point (idempotent)",
    )
    traj_append.add_argument("--label", required=True)
    traj_append.add_argument("--note", default="")
    traj_append.add_argument(
        "--path", default=None, help="ledger path (default: repo root)"
    )
    traj_append.set_defaults(func=_cmd_trials_trajectory)
    traj_show = traj_sub.add_parser(
        "show", help="print every metric's trend as sparktext"
    )
    traj_show.add_argument(
        "--path", default=None, help="ledger path (default: repo root)"
    )
    traj_show.set_defaults(func=_cmd_trials_trajectory)

    encode = sub.add_parser("encode", help="modulate hex payload to WAV")
    encode.add_argument("payload", help="payload as hex, e.g. deadbeef")
    encode.add_argument("output")
    encode.add_argument("--mode", default="QPSK")
    encode.add_argument(
        "--band", choices=("audible", "ultrasound"), default="audible"
    )
    encode.set_defaults(func=_cmd_encode)

    decode = sub.add_parser("decode", help="demodulate WAV to hex payload")
    decode.add_argument("input")
    decode.add_argument("--bits", type=int, required=True)
    decode.add_argument("--mode", default="QPSK")
    decode.add_argument(
        "--band", choices=("audible", "ultrasound"), default="audible"
    )
    decode.set_defaults(func=_cmd_decode)

    info = sub.add_parser("info", help="print configuration summary")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
