"""The benchmark's named workloads: one fleet configuration each.

Every workload keeps ``shard_users=200``, ``staging="otp"`` and
``retry=True`` and runs at ``workers=1``; the workload seed (the
``--seed`` argument) becomes :attr:`FleetConfig.seed`, so the seed is
the only input that varies between runs of one workload.

* ``fleet-day`` — the mechanism workload for the batched staging fast
  path: a legacy-fusion, fault-free day.  Each shard hands the
  staging primitives (``precompute_probe``, ``precompute_otp``,
  ``receive_batch_grouped``, the DTW wavefront) fat batches of several
  hundred rows.
* ``faulted-day`` — OTP-path burst noise makes ``effective_staging``
  fall back to ``dtw``, so this workload bypasses the probe/OTP
  primitives.  It runs the sequential Phase-B driver with every Fig. 2
  stage live, all four verifiers and the NACK -> downgrade ->
  retransmit loop.  A staging-primitive change should predict no
  change here.
* ``city-halfhour`` — a large population over half an hour with the
  contention kernel on.  Per-user and per-shard overhead dominate:
  the contention plan's population pass and the shards each synthesize
  every user, while the staging primitives see one or two rows per
  call.  It also carries the constant-memory streaming claim through
  ``peak_rss_mb``.

User counts are scaled down from the workloads' original sizes (300,
120 and 50 000 users) so one benchmark invocation — an all-live
reference pass plus three timed runs — stays near 35 s on a 2-vCPU
Xeon; the intent of each workload is unchanged.  Each keeps at least
~200 sessions, so ``latency_p95_s`` has ten or more samples beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Users per shard for every workload (the fleet benchmark's sweet spot).
SHARD_USERS = 200
#: Staging level of every timed and traced run.
STAGING = "otp"
#: Staging level of the correctness reference: every stage live.
REFERENCE_STAGING = "none"


@dataclass(frozen=True)
class Workload:
    """One named fleet configuration, minus its seed."""

    name: str
    n_users: int
    hours: float
    fusion_mix: str
    scene_density: float = 0.0
    faults: str = ""

    def config(self, seed: int):
        """The :class:`~repro.fleet.population.FleetConfig` for ``seed``."""
        # Imported here: run.py reads the workload table without
        # importing the program, which only its child processes load.
        from repro.fleet import FleetConfig

        return FleetConfig(
            n_users=self.n_users,
            hours=self.hours,
            seed=int(seed),
            retry=True,
            fusion_mix=self.fusion_mix,
            scene_density=self.scene_density,
            faults=self.faults,
        )


def document_digest(config, aggregate) -> str:
    """SHA-256 of the canonical fleet document ``fleet run`` writes."""
    import dataclasses
    import hashlib
    import json

    document = (
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
    return hashlib.sha256(document.encode()).hexdigest()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fleet-day", n_users=130, hours=24.0, fusion_mix="legacy"),
        Workload(
            "faulted-day",
            n_users=70,
            hours=24.0,
            fusion_mix="score",
            faults="burst_noise@otp-tx:p=0.2,severity=2",
        ),
        Workload(
            "city-halfhour",
            n_users=35_000,
            hours=0.5,
            fusion_mix="score",
            scene_density=40.0,
        ),
    )
}
