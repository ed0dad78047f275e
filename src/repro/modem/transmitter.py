"""The OFDM transmitter: bits → passband samples (paper Fig. 3, TX side).

Pipeline: constellation mapping → serial/parallel onto the data bins →
pilot-tone insertion → IFFT (eq. 1, real part) → cyclic prefix →
preamble insertion → edge fading.  The symbol train is scaled so its
RMS matches the preamble's, keeping the pilot/data power ratio stable
through the link's overall volume normalization.

All symbols of a frame are assembled in one batched
:func:`~repro.modem.frame.modulate_symbols` call (stacked IFFT plus a
single preallocated CP/body/guard write), and the preamble template and
its RMS come from the shared :class:`~repro.modem.context.SignalPlane`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..config import ModemConfig
from ..errors import ModemError
from ..dsp.energy import rms
from ..dsp.windows import fade_edges
from .constellation import Constellation
from .context import SignalPlane, signal_plane
from .frame import assemble_frame, frame_layout, FrameLayout, modulate_symbols
from .subchannels import ChannelPlan


@dataclass(frozen=True)
class TransmitResult:
    """A modulated frame and its bookkeeping."""

    waveform: np.ndarray
    layout: FrameLayout
    padded_bits: np.ndarray
    n_payload_bits: int


class OfdmTransmitter:
    """Modulates bit payloads into acoustic OFDM frames.

    Parameters
    ----------
    config:
        Modem parameters (FFT size, CP, preamble, ...).
    plan:
        Sub-channel plan; defaults to the plan embedded in ``config``.
    constellation:
        Modulation for the data bins (QASK/QPSK/8PSK in deployment).
    hermitian:
        Ablation: use conjugate-symmetric OFDM instead of the paper's
        ``Re(IFFT(X))`` construction.
    plane:
        Pre-built :class:`SignalPlane` to share; when given it supplies
        config/plan/constellation and the other arguments are ignored.
        Without it, the plane for ``(config, plan, constellation)`` is
        fetched from the global cache.
    """

    def __init__(
        self,
        config: Optional[ModemConfig] = None,
        constellation: Optional[Constellation] = None,
        plan: Optional[ChannelPlan] = None,
        hermitian: bool = False,
        plane: Optional[SignalPlane] = None,
    ):
        if plane is None:
            if config is None or constellation is None:
                raise ModemError(
                    "config and constellation are required without a plane"
                )
            plane = signal_plane(config, plan, constellation)
        self._plane = plane
        self._config = plane.config
        self._plan = plane.plan
        self._constellation = plane.constellation
        self._hermitian = hermitian
        self._preamble = plane.preamble

    @property
    def config(self) -> ModemConfig:
        return self._config

    @property
    def plan(self) -> ChannelPlan:
        return self._plan

    @property
    def constellation(self) -> Constellation:
        return self._constellation

    @property
    def bits_per_symbol(self) -> int:
        """Payload bits carried by one OFDM symbol."""
        return len(self._plan.data) * self._constellation.bits_per_symbol

    def symbols_for_bits(self, n_bits: int) -> int:
        """OFDM symbols needed to carry ``n_bits``."""
        if n_bits < 1:
            raise ModemError("payload must contain at least one bit")
        per = self.bits_per_symbol
        return (n_bits + per - 1) // per

    def _finish_frame(self, train: np.ndarray) -> np.ndarray:
        """RMS-match the train to the preamble, frame it, fade it."""
        train_rms = rms(train)
        target = self._plane.preamble_rms
        if train_rms > 0:
            train = train * (target / train_rms)
        waveform = assemble_frame(self._config, self._preamble, train)
        return fade_edges(waveform, fade_samples=32)

    def modulate(self, bits: np.ndarray) -> TransmitResult:
        """Modulate ``bits`` into a complete frame.

        The one-row call of :meth:`modulate_batch`.  The payload is
        zero-padded up to a whole number of OFDM symbols; the receiver
        truncates back using the expected bit count.
        """
        return self.modulate_batch([bits])[0]

    def modulate_batch(self, bit_rows) -> "list[TransmitResult]":
        """Modulate many equal-length payloads in one stacked pass.

        This is the one transmit kernel: the constellation mapping and
        the per-symbol IFFT/CP assembly run on the concatenated symbol
        rows (sharing one plan), and each frame then gets its own tail
        (RMS match, preamble, edge fade), so entry ``i`` does not depend
        on the other rows.  The fleet staging path assembles a whole
        wave's OTP frames at once; :meth:`modulate` is the one-row call.
        All payloads must have the same bit count — that is what lets
        the symbol rows stack — so callers group by coded length first.
        Every value must be a bit (0 or 1); anything else raises
        :class:`~repro.errors.ModemError` before the ``uint8`` cast
        could wrap or truncate it.
        """
        rows = [np.asarray(b) for b in bit_rows]
        if not rows:
            return []
        size = rows[0].size
        for b in rows:
            if b.ndim != 1 or b.size == 0:
                raise ModemError("bits must be a non-empty 1-D array")
            if b.size != size:
                raise ModemError(
                    "modulate_batch needs equal-length payloads; group "
                    f"by bit count first (got {b.size} and {size})"
                )
        raw = np.stack(rows)
        if raw.dtype.kind not in "biuf" or not ((raw == 0) | (raw == 1)).all():
            raise ModemError("bits must be 0 or 1")
        n_symbols = self.symbols_for_bits(size)
        per = self.bits_per_symbol
        padded = np.zeros((len(rows), n_symbols * per), dtype=np.uint8)
        padded[:, :size] = raw

        data_symbols = self._constellation.map(padded.reshape(-1)).reshape(
            len(rows) * n_symbols, -1
        )
        train_all = modulate_symbols(
            self._config, self._plan, data_symbols, hermitian=self._hermitian
        )
        layout = frame_layout(self._config, n_symbols)
        results = []
        for i in range(len(rows)):
            train = train_all[i * n_symbols : (i + 1) * n_symbols].reshape(-1)
            results.append(
                TransmitResult(
                    waveform=self._finish_frame(train),
                    layout=layout,
                    padded_bits=padded[i],
                    n_payload_bits=size,
                )
            )
        return results

    def probe_waveform(self, n_pilot_symbols: int = 1) -> Tuple[np.ndarray, FrameLayout]:
        """Build the RTS channel-probing packet (paper §III-7).

        The probe is the preamble followed by ``n_pilot_symbols``
        *block pilot* symbols: every data bin and every pilot bin of the
        current plan carries a unit-power pilot.  The plan's interspersed
        null bins stay silent so the receiver can measure in-band noise
        (eq. 3) alongside the frequency response.
        """
        if n_pilot_symbols < 1:
            raise ModemError("probe needs at least one pilot symbol")
        ones = np.ones(
            (n_pilot_symbols, len(self._plan.data)), dtype=np.complex128
        )
        train = modulate_symbols(
            self._config, self._plan, ones, hermitian=self._hermitian
        ).reshape(-1)
        waveform = self._finish_frame(train)
        return waveform, frame_layout(self._config, n_pilot_symbols)
