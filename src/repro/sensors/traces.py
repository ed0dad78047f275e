"""Synthetic accelerometer traces for the motion pre-filter (§V).

The paper samples 3-axis accelerometers on phone and watch (50-150
samples per window), converts to magnitude, normalizes, and compares
with DTW.  We synthesize physically shaped traces:

* **sitting** — gravity plus small tremor;
* **walking** — ~1.8 Hz gait fundamental with harmonics;
* **jogging** — ~2.8 Hz, larger amplitude, more impact noise;
* co-located device pairs share the same underlying body motion with
  per-device noise, mounting gain, and a small lag (pocket vs wrist);
* "different" pairs draw independent motions — the DTW score the
  filter must reject (paper Table II: 0.20 vs ≈0.02-0.06 co-located).
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple

import numpy as np

from ..errors import WearLockError

#: Standard gravity, the baseline of any accelerometer magnitude trace.
GRAVITY = 9.81


class ActivityKind(str, Enum):
    """Activities evaluated in the paper's Table II."""

    SITTING = "sitting"
    WALKING = "walking"
    JOGGING = "jogging"


#: (fundamental Hz, amplitude m/s^2, tremor m/s^2, gesture m/s^2)
#: per activity.  ``gesture`` is the phone-handling transient: the user
#: just pressed the power button, so both devices ride the same
#: reach-and-hold motion — strongest while sitting (nothing else is
#: moving), still present while walking or jogging.
_ACTIVITY_PARAMS = {
    ActivityKind.SITTING: (0.0, 0.0, 0.10, 1.6),
    ActivityKind.WALKING: (1.8, 2.2, 0.30, 1.1),
    ActivityKind.JOGGING: (2.8, 5.5, 0.80, 1.1),
}


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _body_motion(
    kind: ActivityKind,
    n_samples: int,
    sample_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Latent 1-D body motion signal shared by devices on one body."""
    freq, amp, tremor, gesture_amp = _ACTIVITY_PARAMS[kind]
    t = np.arange(n_samples) / sample_rate
    signal = np.zeros(n_samples)
    if freq > 0:
        phase = rng.uniform(0, 2 * np.pi)
        # Fundamental + first two harmonics with decaying weight, plus
        # mild cycle-to-cycle frequency wander.
        wander = 1.0 + 0.03 * np.cumsum(rng.standard_normal(n_samples)) / np.sqrt(
            np.arange(1, n_samples + 1)
        )
        for h, w in ((1, 1.0), (2, 0.45), (3, 0.18)):
            signal += amp * w * np.sin(
                2 * np.pi * freq * h * t * wander + phase * h
            )
    # The phone-handling gesture: a smooth reach-and-settle transient
    # centered somewhere in the window, with a couple of slow wiggles.
    if gesture_amp > 0:
        center = rng.uniform(0.25, 0.75) * t[-1] if t[-1] > 0 else 0.0
        width = max(0.25, 0.3 * (t[-1] if t[-1] > 0 else 1.0))
        envelope = np.exp(-0.5 * ((t - center) / width) ** 2)
        wiggle_hz = rng.uniform(0.8, 1.6)
        wiggle_phase = rng.uniform(0, 2 * np.pi)
        signal += gesture_amp * envelope * np.sin(
            2 * np.pi * wiggle_hz * t + wiggle_phase
        )
    signal += tremor * rng.standard_normal(n_samples)
    return signal


def accelerometer_trace(
    kind: ActivityKind,
    n_samples: int = 100,
    sample_rate: float = 50.0,
    rng=None,
) -> np.ndarray:
    """One device's 3-axis accelerometer trace, shape ``(n, 3)``."""
    if n_samples < 2:
        raise WearLockError("n_samples must be >= 2")
    generator = _rng(rng)
    motion = _body_motion(kind, n_samples, sample_rate, generator)
    # Distribute the scalar motion across axes with a random (fixed)
    # orientation, add gravity along a random axis direction.
    direction = generator.standard_normal(3)
    direction /= np.linalg.norm(direction)
    gravity_dir = generator.standard_normal(3)
    gravity_dir /= np.linalg.norm(gravity_dir)
    trace = (
        motion[:, None] * direction[None, :]
        + GRAVITY * gravity_dir[None, :]
        + 0.05 * generator.standard_normal((n_samples, 3))
    )
    return trace


def magnitude(trace: np.ndarray) -> np.ndarray:
    """3-axis trace → magnitude: ``sqrt(sx^2 + sy^2 + sz^2)``.

    The paper uses magnitudes because the relative orientation between
    watch and phone is unknowable.
    """
    x = np.asarray(trace, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 3:
        raise WearLockError("trace must have shape (n, 3)")
    return np.sqrt(np.sum(x * x, axis=1))


def normalize_trace(series: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance normalization (constant input → zeros)."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise WearLockError("series must be a non-empty 1-D array")
    centered = x - np.mean(x)
    std = float(np.std(centered))
    if std < 1e-12:
        return np.zeros_like(centered)
    return centered / std


def co_located_pair(
    kind: ActivityKind,
    n_samples: int = 100,
    sample_rate: float = 50.0,
    lag_samples: int = 3,
    device_noise: float = 0.12,
    rng=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Phone and watch traces while carried by the *same* person.

    Both devices observe the same latent body motion; the watch sees it
    slightly lagged (wrist articulation) and each adds its own sensor
    noise and mounting gain.
    Returns ``(phone_xyz, watch_xyz)``, each of shape ``(n, 3)``.
    """
    generator = _rng(rng)
    total = n_samples + abs(lag_samples)
    motion = _body_motion(kind, total, sample_rate, generator)

    def render(latent: np.ndarray, gain: float) -> np.ndarray:
        # The magnitude of (gravity + motion) only preserves the motion
        # when the motion has a component along gravity; for held/worn
        # devices the handling gesture is dominated by vertical motion,
        # so constrain the alignment rather than drawing it uniformly.
        gravity_dir = generator.standard_normal(3)
        gravity_dir /= np.linalg.norm(gravity_dir)
        perp = generator.standard_normal(3)
        perp -= perp.dot(gravity_dir) * gravity_dir
        perp /= np.linalg.norm(perp)
        alignment = generator.uniform(0.65, 0.95)
        direction = (
            alignment * gravity_dir
            + np.sqrt(1.0 - alignment**2) * perp
        )
        return (
            gain * latent[:, None] * direction[None, :]
            + GRAVITY * gravity_dir[None, :]
            + device_noise * generator.standard_normal((latent.size, 3))
        )

    phone = render(motion[:n_samples], gain=1.0)
    start = abs(lag_samples)
    watch = render(motion[start: start + n_samples], gain=0.85)
    return phone, watch


def different_devices_pair(
    kind_a: ActivityKind,
    kind_b: Optional[ActivityKind] = None,
    n_samples: int = 100,
    sample_rate: float = 50.0,
    rng=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Traces from two *different* people (independent motions).

    ``kind_b`` defaults to ``kind_a`` — even the same activity performed
    by another body is uncorrelated in detail, which is what the DTW
    filter exploits.
    """
    generator = _rng(rng)
    a = accelerometer_trace(kind_a, n_samples, sample_rate, rng=generator)
    b = accelerometer_trace(
        kind_b if kind_b is not None else kind_a,
        n_samples,
        sample_rate,
        rng=generator,
    )
    return a, b
