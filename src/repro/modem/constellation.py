"""Constellations: BASK, QASK, BPSK, QPSK, 8PSK, 16QAM with Gray maps.

The paper's modem "supports modulations such as BASK/QASK, BPSK/QPSK,
8PSK and 16QAM" (§III-7) and deploys QASK/QPSK/8PSK as its three
transmission modes.  All constellations here are normalized to unit
average symbol energy so Eb/N0 comparisons across modes are fair, and
all multi-bit constellations are Gray-coded so one symbol error costs
one bit error at moderate SNR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..errors import ModemError
from ..dsp.plane import KeyedCache

#: One read-only complex array per distinct point tuple — rebuilding
#: the lookup table on every map/demap call dominated small payloads.
_POINT_ARRAYS = KeyedCache("modem.constellation", maxsize=64)


def _gray(n: int) -> int:
    """The ``n``-th Gray code."""
    return n ^ (n >> 1)


def _normalize(points: np.ndarray) -> np.ndarray:
    """Scale constellation points to unit average energy."""
    energy = float(np.mean(np.abs(points) ** 2))
    if energy <= 0:
        raise ModemError("constellation has zero energy")
    return points / np.sqrt(energy)


@dataclass(frozen=True)
class Constellation:
    """An M-ary constellation with Gray bit mapping.

    ``points[i]`` is the complex symbol whose *Gray-decoded* integer
    label is ``i``; :meth:`map` and :meth:`demap` handle the
    bits↔symbol conversion.

    ``decision`` selects the demapping rule:

    * ``"euclidean"`` — nearest neighbour in the complex plane, the
      maximum-likelihood rule for AWGN (PSK/QAM);
    * ``"magnitude"`` — envelope decision ``argmin | |r| − |p| |``,
      the classic non-coherent ASK detector.  It ignores phase
      entirely, which is why ASK survives the phone speaker's uneven
      phase response better than PSK (the paper's Fig. 5 finding).
    """

    name: str
    points: Tuple[complex, ...]
    bits_per_symbol: int
    decision: str = "euclidean"

    def __post_init__(self) -> None:
        if len(self.points) != 2 ** self.bits_per_symbol:
            raise ModemError(
                f"{self.name}: need {2 ** self.bits_per_symbol} points, "
                f"got {len(self.points)}"
            )
        if self.decision not in ("euclidean", "magnitude"):
            raise ModemError(
                f"{self.name}: unknown decision rule {self.decision!r}"
            )

    @property
    def order(self) -> int:
        """Modulation order M."""
        return len(self.points)

    def _point_array(self) -> np.ndarray:
        points = self.points

        def build() -> np.ndarray:
            arr = np.asarray(points, dtype=np.complex128)
            arr.setflags(write=False)
            return arr

        return _POINT_ARRAYS.get(points, build)

    def map(self, bits: np.ndarray) -> np.ndarray:
        """Map a bit vector to complex symbols.

        ``len(bits)`` must be a multiple of :attr:`bits_per_symbol`.
        """
        b = np.asarray(bits).astype(np.uint8)
        if b.ndim != 1:
            raise ModemError("bits must be 1-D")
        k = self.bits_per_symbol
        if b.size % k:
            raise ModemError(
                f"{self.name}: bit count {b.size} not a multiple of {k}"
            )
        if b.size == 0:
            return np.zeros(0, dtype=np.complex128)
        groups = b.reshape(-1, k)
        weights = 1 << np.arange(k - 1, -1, -1)
        labels = groups @ weights
        return self._point_array()[labels]

    def demap(self, symbols: np.ndarray) -> np.ndarray:
        """Demap complex symbols to bits using the decision rule."""
        s = np.asarray(symbols, dtype=np.complex128)
        if s.ndim != 1:
            raise ModemError("symbols must be 1-D")
        if s.size == 0:
            return np.zeros(0, dtype=np.uint8)
        pts = self._point_array()
        if self.decision == "magnitude":
            dists = np.abs(
                np.abs(s)[:, None] - np.abs(pts)[None, :]
            )
        else:
            dists = np.abs(s[:, None] - pts[None, :])
        labels = np.argmin(dists, axis=1)
        k = self.bits_per_symbol
        out = np.empty((s.size, k), dtype=np.uint8)
        for j in range(k):
            out[:, j] = (labels >> (k - 1 - j)) & 1
        return out.reshape(-1)

    def min_distance(self) -> float:
        """Minimum Euclidean distance between constellation points."""
        pts = self._point_array()
        dmin = np.inf
        for i in range(pts.size):
            d = np.abs(pts[i] - pts[i + 1:])
            if d.size:
                dmin = min(dmin, float(d.min()))
        return dmin


def _ask(name: str, levels: int) -> Constellation:
    """M-ary amplitude-shift keying on the real axis, Gray-labeled.

    Levels are positive and equally spaced — acoustic speakers cannot
    emit "negative amplitude" reliably with uneven phase response, which
    is exactly why the paper found ASK cheaper than PSK on its hardware.
    Label ordering follows the Gray sequence over amplitude order.
    """
    k = int(np.log2(levels))
    amplitudes = np.arange(1, levels + 1, dtype=np.float64)
    raw = np.zeros(levels, dtype=np.complex128)
    for position, amplitude in enumerate(amplitudes):
        raw[_gray(position)] = amplitude
    pts = _normalize(raw)
    return Constellation(
        name=name,
        points=tuple(pts),
        bits_per_symbol=k,
        decision="magnitude",
    )


def _psk(name: str, order: int, offset: float = 0.0) -> Constellation:
    """M-ary phase-shift keying, Gray-labeled around the circle."""
    k = int(np.log2(order))
    raw = np.zeros(order, dtype=np.complex128)
    for position in range(order):
        angle = 2.0 * np.pi * position / order + offset
        raw[_gray(position)] = np.exp(1j * angle)
    pts = _normalize(raw)
    return Constellation(name=name, points=tuple(pts), bits_per_symbol=k)


def _qam16() -> Constellation:
    """16-QAM with per-axis Gray labeling (2 bits I, 2 bits Q)."""
    levels = np.array([-3.0, -1.0, 1.0, 3.0])
    raw = np.zeros(16, dtype=np.complex128)
    for i_pos in range(4):
        for q_pos in range(4):
            label = (_gray(i_pos) << 2) | _gray(q_pos)
            raw[label] = levels[i_pos] + 1j * levels[q_pos]
    pts = _normalize(raw)
    return Constellation(name="16QAM", points=tuple(pts), bits_per_symbol=4)


#: Binary amplitude-shift keying (1 bit/symbol).
BASK: Constellation = _ask("BASK", 2)
#: Quaternary amplitude-shift keying (2 bits/symbol).
QASK: Constellation = _ask("QASK", 4)
#: Binary phase-shift keying (1 bit/symbol).
BPSK: Constellation = _psk("BPSK", 2)
#: Quaternary phase-shift keying (2 bits/symbol), π/4-offset.
QPSK: Constellation = _psk("QPSK", 4, offset=np.pi / 4)
#: 8-ary phase-shift keying (3 bits/symbol).
PSK8: Constellation = _psk("8PSK", 8)
#: 16-ary quadrature amplitude modulation (4 bits/symbol).
QAM16: Constellation = _qam16()

#: All supported constellations keyed by name.
CONSTELLATIONS: Dict[str, Constellation] = {
    c.name: c for c in (BASK, QASK, BPSK, QPSK, PSK8, QAM16)
}


def get_constellation(name: str) -> Constellation:
    """Look up a constellation by its paper name (e.g. ``"QPSK"``)."""
    try:
        return CONSTELLATIONS[name]
    except KeyError:
        known = ", ".join(sorted(CONSTELLATIONS))
        raise ModemError(
            f"unknown constellation {name!r}; known: {known}"
        ) from None
