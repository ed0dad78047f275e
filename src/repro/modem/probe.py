"""Channel probing: the RTS/CTS phase of adaptive modulation (§III-7).

The phone sends a probing packet (preamble + block pilot symbol); the
watch analyzes its recording and reports back:

* the preamble's NCC score and RMS delay spread (NLOS filtering),
* per-sub-channel noise power measured from the pre-signal audio
  (long/short-term interferers like a restarting air conditioner),
* the pilot SNR, converted to Eb/N0 for mode selection,
* a re-planned data sub-channel assignment avoiding noisy bins.

All pilot symbols of a probe are analyzed in one batched FFT + SNR
pass, and the transmitter/synchronizer share their templates through
the :class:`~repro.modem.context.SignalPlane`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..config import ModemConfig
from ..errors import DemodulationError, ModemError
from ..dsp.energy import SILENCE_FLOOR_SPL_DB, signal_spl
from ..dsp.spectrum import noise_power_per_bin
from ..channel.multipath import rms_delay_spread
from .constellation import get_constellation
from .context import SignalPlane, signal_plane
from .frame import demodulate_blocks, frame_layout
from .snr import _row_means, ebn0_db_from_psnr, pilot_snr_db_rows
from .subchannels import ChannelPlan
from .synchronizer import Synchronizer
from .transmitter import OfdmTransmitter


@dataclass(frozen=True)
class ProbeReport:
    """The watch's CTS payload after analyzing a probing packet."""

    detected: bool
    preamble_score: float
    tau_rms: float
    noise_spl: float
    psnr_db: float
    noise_per_bin: Optional[np.ndarray]
    recommended_plan: Optional[ChannelPlan]

    def ebn0_db(
        self, config: ModemConfig, plan: ChannelPlan, mode: str
    ) -> float:
        """Eb/N0 this probe predicts for transmitting with ``mode``."""
        return ebn0_db_from_psnr(
            self.psnr_db, config, plan, get_constellation(mode)
        )

    @staticmethod
    def failed(score: float = 0.0) -> "ProbeReport":
        """Report for a probe whose preamble was never detected."""
        return ProbeReport(
            detected=False,
            preamble_score=score,
            tau_rms=float("inf"),
            noise_spl=float("-inf"),
            psnr_db=float("-inf"),
            noise_per_bin=None,
            recommended_plan=None,
        )


class ChannelProber:
    """Builds probing packets and analyzes their recordings.

    Parameters
    ----------
    config:
        Modem configuration.
    plan:
        Current sub-channel plan (defines candidates for re-planning).
    n_pilot_symbols:
        Block-pilot symbols per probe; more symbols average noise better
        at the cost of probe airtime.
    plane:
        Pre-built :class:`SignalPlane` to share; supplies config/plan
        when given.  The probe carries pilots only, so the plane's
        constellation is irrelevant (the cache's QPSK placeholder by
        default, matching the transmitter's bookkeeping).
    """

    def __init__(
        self,
        config: Optional[ModemConfig] = None,
        plan: Optional[ChannelPlan] = None,
        n_pilot_symbols: int = 2,
        plane: Optional[SignalPlane] = None,
    ):
        if plane is None:
            plane = signal_plane(config, plan)
        self._plane = plane
        self._config = plane.config
        self._plan = plane.plan
        self._n_pilot_symbols = n_pilot_symbols
        self._tx = OfdmTransmitter(plane=plane)
        self._sync = Synchronizer(self._config, detector=plane.detector)

    @property
    def plan(self) -> ChannelPlan:
        return self._plan

    def build_probe(self) -> np.ndarray:
        """The RTS probing waveform."""
        waveform, _ = self._tx.probe_waveform(self._n_pilot_symbols)
        return waveform

    def analyze(self, recording: np.ndarray) -> ProbeReport:
        """Analyze the watch-side recording of a probing packet.

        The one-row call of :meth:`analyze_batch`; raises the
        :class:`~repro.errors.ModemError` its row carries.
        """
        x = np.asarray(recording, dtype=np.float64)
        report = self.analyze_batch(x[None, :])[0]
        if isinstance(report, Exception):
            raise report
        return report

    def analyze_batch(
        self, recordings: np.ndarray
    ) -> List[Union[ProbeReport, ModemError]]:
        """Analyze equal-length probe recordings, one per row, in one pass.

        Entry ``i`` is the :class:`ProbeReport` of ``recordings[i]`` (a
        :meth:`ProbeReport.failed` one where no preamble locks), or the
        :class:`~repro.errors.ModemError` instance its analysis raised —
        returned without its traceback, not raised, so a staged caller
        can abort exactly where the live path would.  The preamble
        search runs as one stacked correlation and the pilot receive
        FFTs as one stacked :func:`demodulate_blocks`; the per-recording
        tails (delay spread, ambient noise ranking, SNR rows) run row
        by row.  A probe whose bodies run past the recording is scored
        at zero bodies (``-inf`` pilot SNR) rather than failing.
        """
        xs = np.asarray(recordings, dtype=np.float64)
        if xs.ndim != 2:
            raise DemodulationError("recordings must be 2-D")
        layout = frame_layout(self._config, self._n_pilot_symbols)
        finished = self._sync.detector.detect_rows(xs)
        extracted = self._sync.extract_bodies_rows(
            xs, [match for match, _ in finished], layout
        )
        bodies = [res[0] for res in extracted if isinstance(res, tuple)]
        spectra_all = (
            demodulate_blocks(self._config, np.concatenate(bodies))
            if bodies
            else None
        )

        n = layout.n_symbols
        reports: List[Union[ProbeReport, ModemError]] = []
        k = 0
        for i, (match, peak_score) in enumerate(finished):
            if match is None:
                reports.append(ProbeReport.failed(peak_score))
                continue
            spectra = None
            if isinstance(extracted[i], tuple):
                spectra = spectra_all[k * n: (k + 1) * n]
                k += 1
            try:
                reports.append(self._finish(xs[i], match, layout, spectra))
            except ModemError as exc:
                reports.append(exc.with_traceback(None))
        return reports

    def _finish(
        self, x: np.ndarray, match, layout, spectra: Optional[np.ndarray]
    ) -> ProbeReport:
        """Per-recording report tail of :meth:`analyze_batch`.

        ``spectra`` is the demodulated pilot spectra (``None`` when no
        bodies could be extracted — reported as ``-inf`` pilot SNR).
        """
        tau = rms_delay_spread(
            match.delay_profile, self._config.sample_rate
        )

        noise_end = max(0, match.start - layout.preamble_length)
        ambient = x[:noise_end]
        if ambient.size >= self._config.fft_size:
            per_bin = noise_power_per_bin(
                ambient, self._config.sample_rate, self._config.fft_size
            )
            noise_spl = signal_spl(ambient)
            recommended = self._plan.select_data_channels(per_bin)
        else:
            per_bin = None
            noise_spl = SILENCE_FLOOR_SPL_DB
            recommended = self._plan
        if not np.isfinite(noise_spl):
            noise_spl = SILENCE_FLOOR_SPL_DB

        # Pilot SNR from the block-pilot symbols.  The block symbol
        # activates the plan's own bins, so the plan's *interspersed*
        # null bins stay silent — eq. 3 then compares in-band pilot
        # power against in-band noise, which matters in scenes whose
        # noise is strongly colored (voice/babble).  Immediate
        # neighbours of occupied bins are skipped (timing-error
        # leakage).
        if spectra is None:
            psnr = float("-inf")
        else:
            noise_power = 0.0
            if per_bin is not None:
                band_bins = list(self._plan.pilots) + list(self._plan.data)
                # noise_power_per_bin normalizes by fft_size; rescale to
                # the raw |FFT bin|^2 units of one block.
                noise_power = float(
                    np.mean(per_bin[band_bins]) * self._config.fft_size
                )
            if noise_power > 0:
                # Preferred estimator: compare pilot power against the
                # *ambient* per-bin noise measured before the preamble.
                # The in-frame null bins are contaminated by spectral
                # leakage (fractional timing, phase-ripple echoes) which
                # saturates the estimate at high SNR; the ambient audio
                # has no signal in it at all.
                pw = np.abs(spectra) ** 2
                pilot_power = _row_means(pw[:, list(self._plan.pilots)])
                ratios = np.maximum(pilot_power / noise_power - 1.0, 1e-12)
                psnr_rows = 10.0 * np.log10(ratios)
            else:
                psnr_rows = pilot_snr_db_rows(
                    spectra, self._plan, null_bins=self._plane.quiet_nulls
                )
            psnr = float(np.mean(psnr_rows))

        return ProbeReport(
            detected=True,
            preamble_score=match.score,
            tau_rms=tau,
            noise_spl=noise_spl,
            psnr_db=psnr,
            noise_per_bin=per_bin,
            recommended_plan=recommended,
        )
