"""The OFDM receiver: recorded samples → bits (paper Fig. 3, RX side).

Pipeline: energy-based silence detection → preamble detection (coarse
sync) → per-symbol fine sync via cyclic prefix → FFT → pilot channel
estimation + equalization → constellation de-mapping.  Alongside the
payload bits the receiver reports the diagnostics the protocol layer
needs: preamble score, pilot SNR, fine-sync offsets, and the preamble
delay profile for NLOS detection.

The demodulation chain has one implementation,
:func:`receive_batch_grouped`, and :meth:`OfdmReceiver.receive` is its
one-row call: all symbol bodies go through one stacked 2-D FFT, one
batched pilot estimate/equalization and one demap call, bit-identical
to the historical per-body loop kept as the test oracle
``tests/modem_oracle.py`` (see ``tests/test_vectorized_equivalence.py``).
Shared templates (preamble, detector, plan index arrays) come from the
:class:`~repro.modem.context.SignalPlane`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..config import ModemConfig
from ..errors import DemodulationError, ModemError, PreambleNotFoundError
from ..dsp.energy import SILENCE_FLOOR_SPL_DB, signal_spl
from .constellation import Constellation
from .context import SignalPlane, signal_plane
from .equalizer import (
    ChannelEstimate,
    equalize_rows,
    estimate_channel_linear_rows,
    estimate_channel_magnitude_rows,
    estimate_channel_rows,
)
from .frame import FrameLayout, demodulate_blocks, frame_layout
from .preamble import PreambleDetector, PreambleMatch
from .snr import ebn0_db_from_psnr, pilot_snr_db_rows
from .subchannels import ChannelPlan
from .synchronizer import Synchronizer


@dataclass(frozen=True)
class ReceiveResult:
    """Everything the receiver learned from one frame."""

    bits: np.ndarray
    preamble_score: float
    psnr_db: float
    ebn0_db: float
    fine_offsets: Tuple[int, ...]
    delay_profile: np.ndarray
    equalized_symbols: np.ndarray
    noise_spl: float

    @property
    def n_bits(self) -> int:
        return int(self.bits.size)


class OfdmReceiver:
    """Demodulates WearLock OFDM frames from microphone recordings.

    Parameters
    ----------
    config:
        Modem parameters (must match the transmitter's).
    constellation:
        Expected data modulation (communicated over the wireless control
        channel in the real system).
    plan:
        Sub-channel plan (also from the control channel).
    fine_sync:
        Enable CP fine synchronization (ablation switch).
    linear_equalizer:
        Ablation: linear pilot interpolation instead of FFT-based.
    plane:
        Pre-built :class:`SignalPlane` to share; when given it supplies
        config/plan/constellation.  Without it, the plane is fetched
        from the global cache.
    """

    def __init__(
        self,
        config: Optional[ModemConfig] = None,
        constellation: Optional[Constellation] = None,
        plan: Optional[ChannelPlan] = None,
        fine_sync: bool = True,
        linear_equalizer: bool = False,
        detection_threshold: Optional[float] = None,
        plane: Optional[SignalPlane] = None,
    ):
        if plane is None:
            if config is None or constellation is None:
                raise DemodulationError(
                    "config and constellation are required without a plane"
                )
            plane = signal_plane(config, plan, constellation)
        self._plane = plane
        self._config = plane.config
        self._plan = plane.plan
        self._constellation = plane.constellation
        # Build the synchronizer exactly once; a custom detection
        # threshold swaps in its own detector around the shared chirp
        # template instead of reconstructing the whole stack.
        detector = plane.detector
        if detection_threshold is not None:
            detector = PreambleDetector(
                self._config, detection_threshold, template=plane.preamble
            )
        self._sync = Synchronizer(
            self._config, fine=fine_sync, detector=detector
        )
        self._linear_eq = linear_equalizer

    @property
    def config(self) -> ModemConfig:
        return self._config

    @property
    def plan(self) -> ChannelPlan:
        return self._plan

    @property
    def constellation(self) -> Constellation:
        return self._constellation

    def _estimate_rows(self, spectra: np.ndarray) -> ChannelEstimate:
        if self._constellation.decision == "magnitude":
            return estimate_channel_magnitude_rows(spectra, self._plan)
        if self._linear_eq:
            return estimate_channel_linear_rows(spectra, self._plan)
        return estimate_channel_rows(spectra, self._plan)

    def n_symbols_for_bits(self, n_bits: int) -> int:
        """Symbols the matching transmitter would have sent for n_bits."""
        per = len(self._plan.data) * self._constellation.bits_per_symbol
        if n_bits < 1:
            raise DemodulationError("n_bits must be >= 1")
        return (n_bits + per - 1) // per

    def receive(
        self,
        recording: np.ndarray,
        expected_bits: int,
    ) -> ReceiveResult:
        """Demodulate a frame carrying ``expected_bits`` payload bits.

        The one-row call of :func:`receive_batch_grouped`.

        Raises
        ------
        PreambleNotFoundError
            If no preamble crosses the detection threshold.
        SynchronizationError
            If the frame runs past the end of the recording.
        DemodulationError
            If the recording is empty or its pilot bins carry nothing.
        """
        res = receive_batch_grouped([self], [recording], expected_bits)[0]
        if isinstance(res, Exception):
            raise res
        return res

    def _finish_rows(
        self,
        spectra: np.ndarray,
        frames: List[Tuple[np.ndarray, PreambleMatch, Tuple[int, ...]]],
        layout: FrameLayout,
        expected_bits: int,
    ) -> List[Union[ReceiveResult, ModemError]]:
        """Plan-dependent tail: pilot SNR, estimate, equalize, demap.

        ``spectra`` holds ``layout.n_symbols`` consecutive rows per
        ``(recording, match, fine_offsets)`` entry of ``frames``, in
        order.  Entry ``i`` of the result is that frame's
        :class:`ReceiveResult`, or the :class:`~repro.errors.ModemError`
        its tail raised.  A frame with dead pilot bins fails the
        *stacked* estimate for everyone, so on a failure each frame
        re-runs the tail alone and gets exactly its own outcome.
        """
        n_symbols = layout.n_symbols
        try:
            psnr_all = pilot_snr_db_rows(
                spectra, self._plan, null_bins=self._plane.quiet_nulls
            )
            estimate = self._estimate_rows(spectra)
            equalized = equalize_rows(spectra, self._plan, estimate)
        except ModemError as exc:
            if len(frames) == 1:
                # Stored without its traceback: the traceback would pin
                # the callers' frames (and their batch matrices) in a
                # reference cycle until the cyclic collector runs.
                return [exc.with_traceback(None)]
            return [
                self._finish_rows(
                    spectra[k * n_symbols: (k + 1) * n_symbols],
                    [frame], layout, expected_bits,
                )[0]
                for k, frame in enumerate(frames)
            ]
        out: List[Union[ReceiveResult, ModemError]] = []
        for k, (x, match, offsets) in enumerate(frames):
            lo = k * n_symbols
            symbols = equalized[lo: lo + n_symbols].reshape(-1)
            bits = self._constellation.demap(symbols)[:expected_bits]
            # Ambient noise SPL from the audio before the preamble — the
            # paper measures noise in the pre-signal portion of the
            # stream.  An empty or all-zero slice has no SPL; clamp to
            # the finite silence floor so downstream SNR arithmetic
            # never sees -inf.
            ambient = x[: max(0, match.start - layout.preamble_length)]
            noise_spl = (
                signal_spl(ambient) if ambient.size else SILENCE_FLOOR_SPL_DB
            )
            if not np.isfinite(noise_spl):
                noise_spl = SILENCE_FLOOR_SPL_DB
            psnr = float(np.mean(psnr_all[lo: lo + n_symbols]))
            out.append(
                ReceiveResult(
                    bits=bits,
                    preamble_score=match.score,
                    psnr_db=psnr,
                    ebn0_db=ebn0_db_from_psnr(
                        psnr, self._config, self._plan, self._constellation
                    ),
                    fine_offsets=offsets,
                    delay_profile=match.delay_profile,
                    equalized_symbols=symbols,
                    noise_spl=noise_spl,
                )
            )
        return out


def receive_batch_grouped(
    receivers: List[OfdmReceiver],
    recordings,
    expected_bits: int,
) -> List[Union[ReceiveResult, ModemError]]:
    """Demodulate equal-length frames that share sync geometry, not a plan.

    Entry ``i`` is the :class:`ReceiveResult` of ``recordings[i]``
    under ``receivers[i]``'s plan, or the
    :class:`~repro.errors.ModemError` instance for a frame that fails
    (no preamble, a frame past the end of the recording, dead pilot
    bins) — returned without its traceback, not raised, so a staged
    caller can abort exactly where the live path would.
    :meth:`OfdmReceiver.receive` is the one-row call and raises it.

    Coarse sync, fine sync and the symbol-body FFT depend only on the
    modem config and the frame geometry, so they run as one stack
    across every plan; only the cheap plan-dependent tail (pilot SNR,
    channel estimate, equalization, demap) runs per distinct plane.
    This matters to the fleet's Phase-2 waves, where nearly every
    session carries its own probe-selected plan: per-plane batching
    would shatter a wave into single-row "stacks".

    Every receiver must agree on config, fine-sync setting, detection
    threshold and the symbol count implied by ``expected_bits``, and
    the recordings must be non-empty, 1-D and of one length;
    mismatches raise :class:`~repro.errors.DemodulationError`.
    """
    if len(receivers) != len(recordings):
        raise DemodulationError("one receiver per recording required")
    recs = [np.asarray(r, dtype=np.float64) for r in recordings]
    if not recs:
        return []
    for x in recs:
        if x.ndim != 1 or x.size == 0:
            raise DemodulationError("recording must be a non-empty 1-D array")
        if x.size != recs[0].size:
            raise DemodulationError(
                "grouped receive requires equal-length recordings"
            )
    r0 = receivers[0]
    n_symbols = r0.n_symbols_for_bits(expected_bits)
    for r in receivers[1:]:
        if (
            r._config != r0._config
            or r._sync._fine != r0._sync._fine
            or r._sync._search_range != r0._sync._search_range
            or r._sync.detector.threshold != r0._sync.detector.threshold
            or r.n_symbols_for_bits(expected_bits) != n_symbols
        ):
            raise DemodulationError(
                "grouped receive requires matching sync geometry"
            )
    layout = frame_layout(r0._config, n_symbols)
    detector = r0._sync.detector
    xs = np.stack(recs)

    out: List[Union[ReceiveResult, ModemError, None]] = [None] * len(recs)
    finished = detector.detect_rows(xs)
    matches = [match for match, _ in finished]
    for i, (match, peak_score) in enumerate(finished):
        if match is None:
            out[i] = PreambleNotFoundError(peak_score, detector.threshold)

    kept: List[int] = []
    frames: List[Tuple[np.ndarray, PreambleMatch, Tuple[int, ...]]] = []
    bodies: List[np.ndarray] = []
    extracted = r0._sync.extract_bodies_rows(xs, matches, layout)
    for i, res in enumerate(extracted):
        if isinstance(res, ModemError):
            out[i] = res  # frame ran past the recording
        elif res is not None:
            kept.append(i)
            frames.append((recs[i], matches[i], res[1]))
            bodies.append(res[0])
    if not kept:
        return out
    spectra = demodulate_blocks(r0._config, np.concatenate(bodies))

    # Plan-dependent tail, once per distinct plane (and equalizer).
    # Each sub-stack is a C-ordered copy of its frames' rows; every
    # transform in the tail is row-wise, so sub-stack rows equal
    # full-stack rows.
    per_frame = spectra.reshape(len(kept), n_symbols, spectra.shape[1])
    groups: dict = {}
    for k, i in enumerate(kept):
        rx = receivers[i]
        groups.setdefault((id(rx._plane), rx._linear_eq), []).append(k)
    for ks in groups.values():
        rx = receivers[kept[ks[0]]]
        tail = rx._finish_rows(
            per_frame[ks].reshape(-1, spectra.shape[1]),
            [frames[k] for k in ks],
            layout,
            expected_bits,
        )
        for k, res in zip(ks, tail):
            out[kept[k]] = res
    return out
