"""The scalar population walk: the oracle of the batched population.

:func:`repro.fleet.executor.shard_population` derives every user's two
generator states for a block of users at once, skips the users a
vectorized activity filter proves idle, positions one reused generator
per stream at each other user, and skips users without a session after
a draw-only pass.  This module is the walk it replaced: each user in
turn, each stream from its own fresh
``np.random.default_rng(cell_seed(config.seed, tag, user_id))``, every
user materialized whether or not it schedules anything.

It calls only the per-user draw functions,
:func:`~repro.fleet.population.synthesize_user` and
:func:`~repro.fleet.population.user_sessions`, and never the batched
seeding, the filter or the skip it checks
(``tests/test_oracle_independence.py`` enforces that).  The stream tags
are spelled out here rather than imported, so a renamed tag in the
package shows up as a mismatch.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.eval.batch import cell_seed
from repro.fleet.population import (
    FleetConfig,
    SessionSpec,
    UserProfile,
    synthesize_user,
    user_sessions,
)


def user(config: FleetConfig, user_id: int) -> UserProfile:
    """User ``user_id``'s profile, drawn from a fresh generator."""
    rng = np.random.default_rng(cell_seed(config.seed, "user", user_id))
    return synthesize_user(config, user_id, rng)


def sessions(config: FleetConfig, profile: UserProfile) -> List[SessionSpec]:
    """``profile``'s schedule, drawn from a fresh generator."""
    rng = np.random.default_rng(
        cell_seed(config.seed, "schedule", profile.user_id)
    )
    return user_sessions(config, profile, rng)


def population(
    config: FleetConfig, user_lo: int = 0, user_hi: Optional[int] = None
) -> Iterator[Tuple[UserProfile, List[SessionSpec]]]:
    """``(profile, specs)`` of every user in the range, in user-id order.

    Users without a session are included, with an empty schedule.
    """
    hi = config.n_users if user_hi is None else user_hi
    for user_id in range(user_lo, hi):
        profile = user(config, user_id)
        yield profile, sessions(config, profile)


def shard(
    config: FleetConfig, user_lo: int, user_hi: int
) -> List[Tuple[UserProfile, List[SessionSpec]]]:
    """What ``shard_population(config, user_lo, user_hi)`` must return."""
    return [
        (profile, specs)
        for profile, specs in population(config, user_lo, user_hi)
        if specs
    ]


def all_specs(config: FleetConfig) -> Iterator[SessionSpec]:
    """Every session of the population, in ``(user, session)`` order."""
    for _, specs in population(config):
        yield from specs
