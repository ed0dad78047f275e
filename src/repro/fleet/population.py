"""Synthesized user populations: who unlocks, where, when, how often.

A fleet run needs a population whose *distribution* looks like the
paper's field study (Table I environments, three device configs,
sitting/walking/jogging motion) but whose every individual draw is
reproducible.  This module turns ``(seed, user_id)`` into a
:class:`UserProfile` and ``(seed, user_id, session_index)`` into a
:class:`SessionSpec` using the same SHA-256 seed-folding construction
as :func:`repro.eval.batch.cell_seed`, so:

* any worker can synthesize any user without coordination;
* adding users never perturbs existing users' streams;
* the whole population is a pure function of the :class:`FleetConfig`.

Users belong to one of four archetypes (office worker, student,
barista, shopper) that set their daytime environment mix and motion
habits.  Session arrival is an inhomogeneous Poisson process shaped by
:data:`DIURNAL_WEIGHTS` (morning/lunch/evening peaks).  A small
``stranger_rate`` mixes in non-co-located attempts — the false-accept
pressure the motion pre-filter exists to reject.

Most users of a short run schedule nothing.  :func:`active_user_streams`
finds them for a block of users at once: it derives both generator
states of every user in 128-bit array arithmetic and replays only the
draws that decide activity, with guard bands, so it can only ever pass
extra users on to the exact per-user draws (DESIGN.md §14).
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..eval.batch import cell_seed, cell_seeds
from ..faults import FaultError, FaultPlan
from ..protocol.stages import UNLOCK_STAGE_NAMES
from ..sensors.traces import ActivityKind

__all__ = [
    "DIURNAL_WEIGHTS",
    "ARCHETYPES",
    "FUSION_MIXES",
    "MAX_SESSIONS_PER_DAY",
    "FleetConfig",
    "UserProfile",
    "SessionSpec",
    "synthesize_user",
    "user_sessions",
    "has_sessions",
    "default_rng_states",
    "active_user_streams",
    "verifier_assignment",
]


#: Relative unlock propensity per hour of day (index = hour, 0-23).
#: Shaped like published screen-unlock telemetry: near-silent overnight,
#: a morning-commute ramp, lunch and evening peaks, tapering after 22h.
DIURNAL_WEIGHTS: Tuple[float, ...] = (
    0.05, 0.03, 0.02, 0.02, 0.03, 0.10,  # 00-05: overnight trough
    0.35, 0.70, 1.00, 0.90, 0.80, 0.95,  # 06-11: commute + morning
    1.10, 0.95, 0.85, 0.80, 0.90, 1.05,  # 12-17: lunch peak, afternoon
    1.15, 1.00, 0.85, 0.70, 0.45, 0.20,  # 18-23: evening peak, wind-down
)

#: Archetype name → (weight, daytime environment mix, activity mix).
#: Environment mixes apply during "out" hours (8-19); everyone defaults
#: to ``quiet_room`` at home.  Activity mixes weight
#: (SITTING, WALKING, JOGGING).
ARCHETYPES: Tuple[Tuple[str, float, Dict[str, float], Tuple[float, float, float]], ...] = (
    ("office_worker", 0.40, {"office": 0.75, "cafe": 0.15, "grocery_store": 0.10}, (0.80, 0.18, 0.02)),
    ("student", 0.30, {"classroom": 0.60, "cafe": 0.25, "office": 0.15}, (0.65, 0.30, 0.05)),
    ("barista", 0.15, {"cafe": 0.80, "grocery_store": 0.20}, (0.30, 0.65, 0.05)),
    ("shopper", 0.15, {"grocery_store": 0.60, "cafe": 0.25, "office": 0.15}, (0.45, 0.45, 0.10)),
)

_ACTIVITIES = (ActivityKind.SITTING, ActivityKind.WALKING, ActivityKind.JOGGING)


@lru_cache(maxsize=64)
def _categorical_cdf(weights: Tuple[float, ...]) -> Tuple[float, ...]:
    """The cdf ``Generator.choice(n, p=w / w.sum())`` searches, as floats.

    numpy builds it as ``cdf = p.cumsum(); cdf /= cdf[-1]``; computing
    it the same way (once per weight tuple) makes :func:`_categorical_pick`
    return exactly what ``choice`` would.
    """
    w = np.array(weights, dtype=float)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


def _categorical_pick(cdf: Tuple[float, ...], rng: np.random.Generator) -> int:
    """Draw-identical stand-in for ``rng.choice(len(cdf), p=...)``.

    ``choice`` consumes one ``random()`` draw and returns
    ``cdf.searchsorted(u, side="right")``; ``bisect_right`` on the same
    float cdf is that search, without the per-call array set-up.
    """
    return bisect_right(cdf, rng.random())


#: Per-archetype constants of :func:`synthesize_user`, computed once.
_ARCHETYPE_CDF = _categorical_cdf(tuple(w for _, w, _, _ in ARCHETYPES))
_SORTED_DAY_MIX = tuple(tuple(sorted(mix.items())) for _, _, mix, _ in ARCHETYPES)
_MEAN_DIURNAL_WEIGHT = sum(DIURNAL_WEIGHTS) / len(DIURNAL_WEIGHTS)

#: Ceiling on :attr:`FleetConfig.sessions_per_day`: one attempt a
#: minute.  Far above any realistic unlock rate, and low enough that a
#: schedule stays simulable (a runaway rate would otherwise overflow
#: numpy's Poisson sampler or try to build ~1e17 specs).
MAX_SESSIONS_PER_DAY = 1440.0

#: Valid values of :attr:`FleetConfig.fusion_mix`.
FUSION_MIXES = ("legacy", "score", "archetype")

#: ``fusion_mix="archetype"``: each archetype runs the verifier set and
#: fusion policy that suit its habitat.  Office workers keep the
#: conservative legacy AND pair; students add the multi-band matcher
#: under score fusion (classrooms are tonal — AND would over-reject);
#: baristas work in a loud, fingerprint-rich cafe, so the ambient
#: channels plus the vibration channel vote by score; shoppers walk a
#: lot, so any one strong verifier (OR) is allowed to vouch.
_ARCHETYPE_VERIFIERS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "office_worker": (("ambient", "motion-dtw"), "and"),
    "student": (("ambient", "multiband", "motion-dtw"), "score"),
    "barista": (("multiband", "motion-dtw", "vibration"), "score"),
    "shopper": (("ambient", "motion-dtw", "vibration"), "or"),
}


def verifier_assignment(
    fusion_mix: str, archetype: str
) -> Tuple[Optional[Tuple[str, ...]], str]:
    """``(verifiers, fusion)`` for one user — a pure function.

    Deliberately draw-free: the assignment depends only on the mix and
    the archetype, so adding or changing a mix never perturbs the
    population's rng streams (phone model, band, personal rate...) and
    ``fusion_mix="legacy"`` reproduces pre-verifier session outcomes
    bit-identically.
    """
    if fusion_mix == "legacy":
        return None, "and"
    if fusion_mix == "score":
        return ("ambient", "multiband", "motion-dtw", "vibration"), "score"
    return _ARCHETYPE_VERIFIERS[archetype]


@dataclass(frozen=True)
class FleetConfig:
    """Parameters of one fleet run — the *only* input to the population.

    Everything downstream (profiles, session specs, aggregates) is a
    pure function of this config, which is what makes the determinism
    contract checkable: serialize the aggregate, vary ``workers``, and
    the bytes must not move.
    """

    n_users: int = 100
    hours: float = 24.0
    seed: int = 0
    #: Mean unlock attempts per user per 24 h.  Kept well below real
    #: phone-unlock telemetry (~50/day) so a 1 000-user day stays
    #: simulable in seconds; rates scale linearly if you want realism
    #: over speed.  At most :data:`MAX_SESSIONS_PER_DAY`.
    sessions_per_day: float = 4.0
    #: Fraction of users paired with the low-end Galaxy Nexus phone.
    low_end_phone_rate: float = 0.4
    #: Fraction of users who opt into the near-ultrasound band.
    ultrasound_rate: float = 0.1
    #: Probability that a given attempt is a *stranger's* phone (not
    #: co-located with the watch) — exercises the motion pre-filter.
    stranger_rate: float = 0.02
    #: Optional fault-plan spec string applied to every session (the
    #: grammar of :meth:`repro.faults.FaultPlan.parse`), e.g.
    #: ``"burst_noise@otp-tx:p=0.1,severity=2"``.  Validated here, stage
    #: names included, so a malformed plan fails at configuration time.
    faults: str = ""
    #: Enable the NACK → downgrade → retransmit recovery loop.
    retry: bool = True
    #: How verifier sets and fusion policies are assigned across the
    #: population — one of :data:`FUSION_MIXES`.  ``"legacy"`` keeps the
    #: pre-verifier ambient+DTW AND pair for everyone (byte-identical
    #: aggregates to older runs); ``"score"`` runs all four verifiers
    #: under score-weighted fusion; ``"archetype"`` assigns per
    #: archetype via :func:`verifier_assignment`.
    fusion_mix: str = "legacy"
    #: Shared-channel contention: the target number of co-channel users
    #: per public scene (scaled per environment by
    #: :data:`repro.fleet.events.SCENE_CROWDING`).  ``0.0`` (the
    #: default) disables the discrete-event kernel entirely — every
    #: session runs on the independent path, bit-for-bit.
    scene_density: float = 0.0

    def __post_init__(self) -> None:
        for name in ("n_users", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
            # numpy integers lack the int.to_bytes that cell_seed uses.
            object.__setattr__(self, name, int(value))
        if self.n_users <= 0:
            raise ConfigurationError("n_users must be positive")
        # cell_seed packs the fleet seed into 8 signed bytes.
        if not -(2**63) <= self.seed < 2**63:
            raise ConfigurationError("seed must be in [-2**63, 2**63)")
        for name in ("hours", "sessions_per_day", "scene_density"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if self.hours <= 0:
            raise ConfigurationError("hours must be positive")
        if not 0 <= self.sessions_per_day <= MAX_SESSIONS_PER_DAY:
            raise ConfigurationError(
                f"sessions_per_day must be in [0, {MAX_SESSIONS_PER_DAY:g}]"
            )
        for name in ("low_end_phone_rate", "ultrasound_rate", "stranger_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if self.fusion_mix not in FUSION_MIXES:
            raise ConfigurationError(
                f"fusion_mix must be one of {FUSION_MIXES}, "
                f"got {self.fusion_mix!r}"
            )
        if self.scene_density < 0:
            raise ConfigurationError("scene_density must be >= 0")
        if self.faults:
            self.fault_plan()

    def fault_plan(self) -> Optional[FaultPlan]:
        """The parsed :attr:`faults` plan, or ``None`` when fault-free.

        Raises :class:`~repro.errors.ConfigurationError` (carrying the
        :class:`~repro.faults.FaultError` text) for a malformed spec or
        a stage the unlock engine does not have.
        """
        if not self.faults:
            return None
        try:
            return FaultPlan.parse(self.faults).check_stages(
                UNLOCK_STAGE_NAMES
            )
        except FaultError as exc:
            raise ConfigurationError(f"bad faults spec: {exc}") from exc


@dataclass(frozen=True)
class UserProfile:
    """One synthetic user: devices, habits, and environment mix."""

    user_id: int
    archetype: str
    phone: str
    watch: str
    band: str
    wireless: str
    #: Environment name → weight during out-of-home hours (8-19).
    day_mix: Tuple[Tuple[str, float], ...]
    #: Weights over (SITTING, WALKING, JOGGING).
    activity_mix: Tuple[float, float, float]
    #: This user's personal mean attempts per 24 h.
    sessions_per_day: float
    #: Proximity-verifier set (``None`` = legacy ambient+DTW pair) and
    #: fusion policy spec, from :func:`verifier_assignment`.
    verifiers: Optional[Tuple[str, ...]] = None
    fusion: str = "and"


@dataclass(frozen=True)
class SessionSpec:
    """One scheduled unlock attempt, fully determined and picklable.

    Device fields are profile *names* (keys of
    :data:`repro.devices.profiles.DEVICES`), not profile objects, so a
    spec serializes compactly across process boundaries.
    """

    user_id: int
    session_index: int
    hour: float
    environment: str
    distance_m: float
    los: bool
    activity: str
    co_located: bool
    band: str
    wireless: str
    phone: str
    watch: str
    seed: int
    verifiers: Optional[Tuple[str, ...]] = None
    fusion: str = "and"


#: Tags folded into :func:`~repro.eval.batch.cell_seed` for each user's
#: two generators: the profile draws and the session schedule.
_USER_STREAM = "user"
_SCHEDULE_STREAM = "schedule"

#: numpy's ``SeedSequence`` (pool size 4) and PCG64 seeding constants.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: A 128-bit unsigned integer per row, as ``(high, low)`` uint64 words.
_U128 = Tuple[np.ndarray, np.ndarray]


def _hash_stream(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """``SeedSequence``'s uint32 hash with its advancing constant.

    The constant steps once per call whatever the data, so one call
    hashes a word position for every seed of a batch at once.
    """
    const = init

    def step(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return step


def _u128_const(value: int) -> Tuple[np.uint64, np.uint64]:
    return np.uint64(value >> 64 & _MASK64), np.uint64(value & _MASK64)


def _mul64_wide(a: np.ndarray, b) -> _U128:
    """The full 128-bit product of uint64 words, from 32-bit halves."""
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    a_lo, a_hi = a & m32, a >> s32
    b_lo, b_hi = b & m32, b >> s32
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> s32) + (lh & m32) + (hl & m32)
    hi = a_hi * b_hi + (lh >> s32) + (hl >> s32) + (mid >> s32)
    return hi, (mid << s32) | (ll & m32)


def _mul128(a: _U128, b) -> _U128:
    """``a * b mod 2**128`` on uint64 words (``b`` may be scalar words)."""
    hi, lo = _mul64_wide(a[1], b[1])
    return hi + a[1] * b[0] + a[0] * b[1], lo


def _add128(a: _U128, b) -> _U128:
    """``a + b mod 2**128`` on uint64 words."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]).astype(np.uint64), lo


def _pcg64_seed(seeds: Sequence[int]) -> Tuple[_U128, _U128]:
    """``(state, inc)`` of ``np.random.default_rng(s)`` for every seed.

    The ``SeedSequence`` hashing runs as uint32 array ops across all
    seeds at once (its hash constant advances independently of the
    data); PCG64's ``srandom`` then folds the four output words into
    ``(state, inc)`` in 128-bit arithmetic on uint64 word pairs.  Only
    single-word seeds, ``[0, 2**32)``, are supported — every
    :func:`~repro.eval.batch.cell_seed` is one.
    """
    entropy = np.asarray(seeds).reshape(-1)
    if entropy.size and (
        entropy.dtype.kind not in "iu"
        or entropy.min() < 0
        or entropy.max() > _MASK32
    ):
        raise ValueError("PCG64 seeding supports seeds in [0, 2**32)")
    hashmix = _hash_stream(_INIT_A, _MULT_A)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    entropy = entropy.astype(np.uint32)
    zeros = np.zeros_like(entropy)
    pool = [hashmix(entropy)] + [hashmix(zeros) for _ in range(3)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # generate_state(4, uint64): eight uint32 words, paired little-endian.
    output = _hash_stream(_INIT_B, _MULT_B)
    words = [output(pool[i % 4]).astype(np.uint64) for i in range(8)]
    init_hi, init_lo, seq_hi, seq_lo = (
        words[2 * k] | (words[2 * k + 1] << np.uint64(32)) for k in range(4)
    )
    # inc = seq << 1 | 1; state = (inc + initstate) * MULT + inc.
    one = np.uint64(1)
    inc = (seq_hi << one) | (seq_lo >> np.uint64(63)), (seq_lo << one) | one
    state = _mul128(_add128(inc, (init_hi, init_lo)), _u128_const(_PCG64_MULT))
    return _add128(state, inc), inc


def _pcg64_advance(state: _U128, inc: _U128, steps: int) -> _U128:
    """PCG64's state after ``steps`` draws, as one jump.

    ``state * MULT**k + inc * (MULT**(k-1) + ... + 1)`` mod ``2**128``;
    the two constants are folded in Python integers.
    """
    mult, total = 1, 0
    for _ in range(steps):
        total = (total + mult) & _MASK128
        mult = mult * _PCG64_MULT & _MASK128
    return _add128(
        _mul128(state, _u128_const(mult)), _mul128(inc, _u128_const(total))
    )


def _pcg64_output(state: _U128) -> np.ndarray:
    """The uint64 PCG64 emits on stepping *into* ``state``.

    XSL-RR: ``rotr64(high ^ low, high >> 58)``.
    """
    xored = state[0] ^ state[1]
    rot = state[0] >> np.uint64(58)
    return (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))


def default_rng_states(seeds: Sequence[int]) -> List[Dict[str, object]]:
    """``np.random.default_rng(s).bit_generator.state`` for every seed.

    Assigning one of these to a reused ``Generator(PCG64())``'s
    ``bit_generator.state`` positions it exactly where a fresh
    ``default_rng(s)`` starts, at a fraction of the construction cost.
    Only single-word seeds, ``[0, 2**32)``, are supported.
    """
    return _state_dicts(*_pcg64_seed(seeds))


def _take(
    stream: Tuple[_U128, _U128], index
) -> Tuple[_U128, _U128]:
    """Rows ``index`` of a stream's ``(state, inc)`` words."""
    return tuple((high[index], low[index]) for high, low in stream)


def _state_dicts(state: _U128, inc: _U128) -> List[Dict[str, object]]:
    """``bit_generator.state`` dicts of rows of PCG64 words."""
    return [
        {
            "bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        for s_hi, s_lo, i_hi, i_lo in zip(
            state[0].tolist(),
            state[1].tolist(),
            inc[0].tolist(),
            inc[1].tolist(),
        )
    ]


def _profile_draws(
    config: FleetConfig, rng: np.random.Generator
) -> Tuple[int, bool, bool, float]:
    """Every draw of one user's profile stream, in stream order.

    Returns ``(archetype index, low-end phone?, ultrasound band?,
    personal sessions per day)``.  The one copy of this sequence, shared
    by :func:`synthesize_user` and :func:`has_sessions`.
    """
    idx = _categorical_pick(_ARCHETYPE_CDF, rng)
    low_end = rng.random() < config.low_end_phone_rate
    ultrasound = rng.random() < config.ultrasound_rate
    # Personal rate: lognormal spread around the configured mean, so a
    # few heavy users dominate volume the way real telemetry does.
    personal_rate = float(
        config.sessions_per_day * rng.lognormal(mean=-0.125, sigma=0.5)
    )
    return idx, low_end, ultrasound, personal_rate


def _hourly_rate(config: FleetConfig, per_hour: float, h: int) -> float:
    """Poisson mean of wall-clock hour ``h`` (partial last hour scaled).

    The one copy of this product, shared by :func:`user_sessions` and
    :func:`has_sessions`; its operand order is part of the determinism
    contract (pre-folding ``weight / mean * frac`` re-rounds it).
    """
    frac = min(1.0, config.hours - h)
    return per_hour * (DIURNAL_WEIGHTS[h % 24] / _MEAN_DIURNAL_WEIGHT) * frac


def has_sessions(
    config: FleetConfig,
    profile_rng: np.random.Generator,
    schedule_rng: np.random.Generator,
) -> bool:
    """Whether the user whose streams these are schedules any session.

    Draw-only: makes the profile draws, then the hourly Poisson counts
    up to the first non-zero one, and builds no profile or spec.  It
    answers exactly ``bool(user_sessions(config, synthesize_user(...)))``
    for generators at the same positions, because an hour with a zero
    count consumes only its own Poisson draw.  Both generators are left
    advanced.
    """
    per_hour = _profile_draws(config, profile_rng)[3] / 24.0
    for h in range(math.ceil(config.hours)):
        if schedule_rng.poisson(_hourly_rate(config, per_hour, h)):
            return True
    return False


#: numpy's 256-layer ziggurat for the standard normal: the base
#: layer's right edge and the common layer area.  numpy does not export
#: its tables; :func:`_ziggurat_bounds` rebuilds them from these two.
_ZIGGURAT_R = 3.6541528853610088
_ZIGGURAT_V = 0.00492867323399
#: Relative margin on a fast-path normal ``z``: the rebuilt ``wi`` table
#: matches numpy's to within 2e-10.
_Z_RTOL = 1e-8
#: Guard band under the rebuilt ``ki`` table, which matches numpy's to
#: within 2**20 (of values near 2**52).
_KI_GUARD = 2**28
#: Relative margin on a Poisson-mean bound and on ``exp(-mean)``: covers
#: the few roundings of the exact product and of libm's ``exp``.
_RATE_RTOL = 1e-9
#: numpy's Poisson sampler uses the multiplication method below this
#: mean, and PTRS from it on.
_POISSON_MULT_MAX = 10.0
#: Smallest mean bound that proves the exact mean positive.  A mean of
#: exactly 0.0 consumes no draw, which would shift every later hour.
_MIN_RATE = 1e-290
#: Users per call of :func:`_proven_idle`: the array work is paid per
#: block rather than per user, and the block bounds its working arrays.
_ACTIVITY_BLOCK = 4096


@lru_cache(maxsize=1)
def _ziggurat_bounds() -> Tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat ``wi`` table and a lower bound on its ``ki``.

    Marsaglia and Tsang's table construction with 2**52 integer
    scaling, from :data:`_ZIGGURAT_R` and :data:`_ZIGGURAT_V`.  The
    rebuilt tables differ from numpy's compiled ones in the last digits,
    so they serve only as bounds: ``wi`` within :data:`_Z_RTOL`, ``ki``
    lowered by :data:`_KI_GUARD` (layer 1 has no fast path: its ``ki``
    is 0).
    """
    scale = 2.0**52
    edge = prev = _ZIGGURAT_R
    q = _ZIGGURAT_V / math.exp(-0.5 * edge * edge)
    ki = [0.0] * 256
    wi = [0.0] * 256
    ki[0], wi[0], wi[255] = edge / q * scale, q / scale, edge / scale
    for i in range(254, 0, -1):
        edge = math.sqrt(
            -2.0 * math.log(_ZIGGURAT_V / edge + math.exp(-0.5 * edge * edge))
        )
        ki[i + 1] = edge / prev * scale
        prev = edge
        wi[i] = edge / scale
    ki_lo = np.maximum(np.floor(np.array(ki)) - _KI_GUARD, 0.0)
    return np.array(wi), ki_lo.astype(np.uint64)


def _rate_bounds(
    config: FleetConfig, state: _U128, inc: _U128
) -> Tuple[np.ndarray, np.ndarray]:
    """An upper bound on each user's hourly rate, and where it holds.

    ``(state, inc)`` are the words of each user's profile stream.
    Replays the one draw of that stream that sets the personal rate:
    the fourth uint64 (after three uniforms) starts the
    lognormal's normal, and numpy's ziggurat returns
    ``±rabs * wi[layer]`` from it when ``rabs < ki[layer]``.  Returns
    ``(per_hour_hi, proven)``: ``per_hour_hi >= personal_rate / 24``
    wherever ``proven`` (the fast path is certain).
    """
    r = _pcg64_output(_pcg64_advance(state, inc, 4))
    wi, ki_lo = _ziggurat_bounds()
    layer = (r & np.uint64(0xFF)).astype(np.intp)
    rabs = (r >> np.uint64(9)) & np.uint64(2**52 - 1)
    z = rabs.astype(np.float64) * wi[layer]
    z = np.where(r & np.uint64(0x100), -z, z)
    z_hi = z + np.abs(z) * _Z_RTOL
    per_hour_hi = (
        config.sessions_per_day
        * np.exp(-0.125 + 0.5 * z_hi)
        / 24.0
        * (1.0 + _RATE_RTOL)
    )
    return per_hour_hi, rabs < ki_lo[layer]


def _proven_idle(
    config: FleetConfig,
    profile: Tuple[_U128, _U128],
    schedule: Tuple[_U128, _U128],
) -> np.ndarray:
    """Which users of a block provably schedule no session.

    ``profile`` and ``schedule`` are the ``(state, inc)`` words of each
    user's two streams.  A user is marked idle only when guard bands
    prove that :func:`has_sessions` would return False: the fast path
    of the profile stream's normal is certain, every hour's Poisson
    mean has an upper bound in ``(_MIN_RATE, 10)`` (numpy's
    multiplication method, whose first uniform ``u`` gives a zero count
    exactly when ``u <= exp(-mean)``), and every hour's uniform lies
    below the bound's threshold.  Any other user is left for the exact
    scalar path, so a wrong guess can only cost time, never change the
    population.
    """
    n = len(profile[0][0])
    if config.sessions_per_day == 0.0:
        # Every mean is exactly 0.0: no hour draws, no user schedules.
        return np.ones(n, dtype=bool)
    per_hour, proven = _rate_bounds(config, *profile)
    rows = np.flatnonzero(proven)
    per_hour = per_hour[rows]
    state, inc = _take(schedule, rows)
    for h in range(math.ceil(config.hours)):
        if not rows.size:
            break
        rate = per_hour * (
            DIURNAL_WEIGHTS[h % 24]
            / _MEAN_DIURNAL_WEIGHT
            * min(1.0, config.hours - h)
        )
        state = _pcg64_advance(state, inc, 1)
        u = (_pcg64_output(state) >> np.uint64(11)) * 2.0**-53
        keep = np.flatnonzero(
            (rate > _MIN_RATE)
            & (rate < _POISSON_MULT_MAX)
            & (u <= np.exp(-rate) * (1.0 - _RATE_RTOL))
        )
        rows, per_hour = rows[keep], per_hour[keep]
        state, inc = _take((state, inc), keep)
    idle = np.zeros(n, dtype=bool)
    idle[rows] = True
    return idle


def active_user_streams(
    config: FleetConfig, user_lo: int, user_hi: int
) -> Iterator[Tuple[int, Dict[str, object], Dict[str, object]]]:
    """``(user_id, profile state, schedule state)`` of possible actives.

    Every user of ``[user_lo, user_hi)`` that :func:`_proven_idle` does
    not rule out, in user-id order, with the starting states of its two
    generators: bit-identical to ``default_rng(cell_seed(config.seed,
    tag, user))`` for tag ``"user"`` and ``"schedule"``.  Works in
    blocks of :data:`_ACTIVITY_BLOCK` users; the two streams of a block
    share one seeding call.
    """
    for lo in range(user_lo, user_hi, _ACTIVITY_BLOCK):
        user_ids = range(lo, min(lo + _ACTIVITY_BLOCK, user_hi))
        state, inc = _pcg64_seed(
            cell_seeds(config.seed, _USER_STREAM, user_ids)
            + cell_seeds(config.seed, _SCHEDULE_STREAM, user_ids)
        )
        n = len(user_ids)
        profile = _take((state, inc), slice(None, n))
        schedule = _take((state, inc), slice(n, None))
        keep = np.flatnonzero(~_proven_idle(config, profile, schedule))
        yield from zip(
            (lo + keep).tolist(),
            _state_dicts(*_take(profile, keep)),
            _state_dicts(*_take(schedule, keep)),
        )


def synthesize_user(
    config: FleetConfig, user_id: int, rng: np.random.Generator
) -> UserProfile:
    """Materialize user ``user_id`` of the population (order-free).

    ``rng`` is a generator positioned at this user's profile stream
    (see :func:`active_user_streams`).
    """
    idx, low_end, ultrasound, personal_rate = _profile_draws(config, rng)
    name, _, _, activity_mix = ARCHETYPES[idx]
    phone = "Galaxy Nexus" if low_end else "Nexus 6"
    band = "ultrasound" if ultrasound else "audible"
    # Assignment is computed *after* every rng draw above and consumes
    # none itself — see verifier_assignment's purity note.
    verifiers, fusion = verifier_assignment(config.fusion_mix, name)
    return UserProfile(
        user_id=user_id,
        archetype=name,
        phone=phone,
        watch="Moto 360",
        band=band,
        wireless="ble",
        day_mix=_SORTED_DAY_MIX[idx],
        activity_mix=activity_mix,
        sessions_per_day=personal_rate,
        verifiers=verifiers,
        fusion=fusion,
    )


def _environment_for(
    user: UserProfile, hour_of_day: int, rng: np.random.Generator
) -> str:
    if hour_of_day < 8 or hour_of_day >= 19:
        return "quiet_room"
    cdf = _categorical_cdf(tuple(w for _, w in user.day_mix))
    return user.day_mix[_categorical_pick(cdf, rng)][0]


def user_sessions(
    config: FleetConfig, user: UserProfile, rng: np.random.Generator
) -> List[SessionSpec]:
    """Schedule one user's attempts over ``config.hours``.

    Arrival is an inhomogeneous Poisson process: each wall-clock hour
    ``h`` contributes ``Poisson(rate * DIURNAL_WEIGHTS[h % 24])``
    attempts.  The schedule rng is a dedicated per-user stream; each
    *session's* simulation seed is folded separately via
    :func:`~repro.eval.batch.cell_seed` so reordering the schedule
    logic never perturbs session outcomes.  ``rng`` is positioned at
    the user's schedule stream (see :func:`active_user_streams`).
    """
    per_hour = user.sessions_per_day / 24.0
    specs: List[SessionSpec] = []
    n_hours = math.ceil(config.hours)
    activity_cdf = _categorical_cdf(user.activity_mix)
    for h in range(n_hours):
        frac = min(1.0, config.hours - h)
        count = int(rng.poisson(_hourly_rate(config, per_hour, h)))
        for _ in range(count):
            idx = len(specs)
            offset = float(rng.random())
            activity = _ACTIVITIES[_categorical_pick(activity_cdf, rng)]
            specs.append(
                SessionSpec(
                    user_id=user.user_id,
                    session_index=idx,
                    hour=h + offset * frac,
                    environment=_environment_for(user, h % 24, rng),
                    distance_m=float(rng.uniform(0.15, 0.6)),
                    los=bool(rng.random() < 0.9),
                    activity=activity.value,
                    co_located=bool(rng.random() >= config.stranger_rate),
                    band=user.band,
                    wireless=user.wireless,
                    phone=user.phone,
                    watch=user.watch,
                    seed=cell_seed(config.seed, "session", user.user_id, idx),
                    verifiers=user.verifiers,
                    fusion=user.fusion,
                )
            )
    return specs
