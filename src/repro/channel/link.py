"""The composed end-to-end acoustic link.

``AcousticLink`` chains every impairment between the phone's WearLock
controller writing samples to the speaker and the watch's controller
reading samples from its microphone::

    waveform -> SpeakerModel -> RoomImpulseResponse -> spreading loss
             -> (clock skew) -> + ambient NoiseScene -> MicrophoneModel

The link also produces a :class:`LinkBudget` describing the SPL/SNR
arithmetic of the transmission — the numbers Fig. 4 plots and the
adaptive-modulation logic consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ChannelError
from ..dsp.energy import rms, spl_to_amplitude
from ..dsp.plane import KeyedCache
from .acoustics import D0_METERS, received_spl, spreading_loss_db
from .hardware import MicrophoneModel, SpeakerModel
from .multipath import RoomImpulseResponse, convolve_ir_rows
from .noise import NoiseScene

#: NLOS room variants keyed by the parent room's parameters — building
#: one per transmit() call showed up in batch sweeps.
_NLOS_VARIANTS = KeyedCache("channel.nlos_rooms", maxsize=32)


def _nlos_variant(
    room: RoomImpulseResponse, blocking_db: float
) -> RoomImpulseResponse:
    key = (
        room.sample_rate,
        room.rt60,
        room.direct_gain,
        room.reverb_gain,
        room.tail_length,
        room.echo_density,
        blocking_db,
    )
    return _NLOS_VARIANTS.get(key, lambda: room.nlos(blocking_db))


@dataclass(frozen=True)
class LinkBudget:
    """SPL bookkeeping for one transmission."""

    tx_spl: float
    rx_spl: float
    noise_spl: float
    distance_m: float

    @property
    def snr_db(self) -> float:
        """Estimated received SNR: SPL_rx − SPL_noise (paper §III-2)."""
        return self.rx_spl - self.noise_spl


@dataclass
class AcousticLink:
    """Simulated speaker→air→microphone channel.

    Attributes
    ----------
    sample_rate:
        Audio sampling rate (must match the modem's).
    speaker, microphone:
        Hardware models at each end.
    room:
        Room impulse response generator; ``None`` disables multipath.
    noise:
        Ambient noise scene at the receiver; ``None`` means silence.
    distance_m:
        Transmitter-receiver separation.
    los:
        ``False`` applies the room's NLOS variant (body blocking).
    clock_skew_ppm:
        Receiver sampling-clock offset relative to the transmitter.
    leading_silence / trailing_silence:
        Seconds of noise-only audio recorded before/after the signal, so
        receivers must genuinely *detect* the frame.
    seed:
        Seed of the link's own stream, which only calls given no
        ``rng`` draw from.  A zero-argument callable returning the seed
        defers deriving it to the first such draw.
    """

    sample_rate: float = 44_100.0
    speaker: SpeakerModel = field(default_factory=SpeakerModel)
    microphone: MicrophoneModel = field(default_factory=MicrophoneModel)
    room: Optional[RoomImpulseResponse] = field(
        default_factory=RoomImpulseResponse
    )
    noise: Optional[NoiseScene] = None
    distance_m: float = 0.5
    los: bool = True
    clock_skew_ppm: float = 0.0
    leading_silence: float = 0.05
    trailing_silence: float = 0.03
    nlos_blocking_db: float = 18.0
    seed: Union[int, Callable[[], int], None] = None
    #: Optional :class:`repro.faults.FaultInjector`; when set (and a
    #: fault in its plan is armed for the executing stage) transmit()
    #: corrupts the signal/recording accordingly.
    injector: Optional[object] = field(default=None, repr=False)
    _own_rng: Optional[np.random.Generator] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.distance_m <= 0:
            raise ChannelError("distance_m must be positive")
        if self.leading_silence < 0 or self.trailing_silence < 0:
            raise ChannelError("silence durations must be non-negative")

    def _generator(self, rng) -> np.random.Generator:
        if isinstance(rng, np.random.Generator):
            return rng
        if rng is not None:
            return np.random.default_rng(rng)
        # One persistent stream per link: repeated no-``rng`` calls in a
        # session must draw *successive* noise, not re-derive the same
        # samples from ``seed`` every time (a retransmitted frame would
        # otherwise meet bit-identical ambient noise).
        if self._own_rng is None:
            seed = self.seed() if callable(self.seed) else self.seed
            self._own_rng = np.random.default_rng(seed)
        return self._own_rng

    def budget(self, tx_spl: float) -> LinkBudget:
        """Compute the SPL/SNR budget for a given transmit level."""
        noise_spl = (
            self.noise.effective_spl() if self.noise is not None else 0.0
        )
        rx = received_spl(tx_spl, self.distance_m)
        if not self.los:
            rx -= self.nlos_blocking_db
        return LinkBudget(
            tx_spl=tx_spl,
            rx_spl=rx,
            noise_spl=noise_spl,
            distance_m=self.distance_m,
        )

    def effective_room(self) -> Optional[RoomImpulseResponse]:
        """The room IR generator transmissions actually draw from.

        The configured room under LOS, its cached NLOS variant when
        body blocking is active, or ``None`` when multipath is off.
        """
        if self.room is None:
            return None
        return self.room if self.los else _nlos_variant(
            self.room, self.nlos_blocking_db
        )

    def transmit(
        self,
        waveform: np.ndarray,
        tx_spl: float,
        rng=None,
    ) -> Tuple[np.ndarray, LinkBudget]:
        """Send ``waveform`` at ``tx_spl`` and return what the mic records.

        The waveform's own scale is irrelevant: it is renormalized so its
        RMS at the speaker face corresponds to ``tx_spl`` dB SPL, then
        every impairment in the chain is applied.  One-row call of
        :meth:`transmit_rows`.
        """
        generator = self._generator(rng)
        recorded = AcousticLink.transmit_rows(
            [self], [waveform], [tx_spl], [generator]
        )[0]
        return recorded, self.budget(tx_spl)

    def record_ambient(self, duration_s: float, rng=None) -> np.ndarray:
        """Record ``duration_s`` of ambient noise only (no signal).

        Used for the noise-floor measurement in Phase 1 and for the
        ambient-noise similarity filter.  One-row call of
        :meth:`record_ambient_rows`.
        """
        return AcousticLink.record_ambient_rows(
            [self], duration_s, [self._generator(rng)]
        )[0]

    @staticmethod
    def transmit_rows(
        links: Sequence["AcousticLink"],
        waveforms: Sequence[np.ndarray],
        tx_spls: Sequence[float],
        gens: Sequence[np.random.Generator],
    ) -> List[np.ndarray]:
        """Send ``waveforms[i]`` at ``tx_spls[i]`` over ``links[i]``, stacked.

        Row ``i`` is what ``links[i].transmit(waveforms[i], tx_spls[i],
        rng=gens[i])`` records, bit for bit, and leaves ``gens[i]`` and
        ``links[i].injector`` where that call would.  Each step runs for
        every row before the next, in transmit's order: (1) one
        ``play_batch`` per speaker fingerprint and length, rows passing
        the *same* waveform object at the same level sharing a render;
        (2) room IR draws via :func:`~repro.channel.multipath.
        convolve_ir_rows`, spreading loss, no-room NLOS blocking; (3)
        clock skew; (4) ``injector.apply_signal``; (5) the noise bed;
        (6) one ``record_batch`` per microphone fingerprint and width,
        across environments; (7) ``injector.apply_recording``.  Every
        row needs its own generator and injector; widths may differ.
        """
        n = len(links)
        if not len(waveforms) == len(tx_spls) == len(gens) == n:
            raise ChannelError(
                "need one waveform, level and generator per link"
            )

        # 1 — one render per distinct (speaker, waveform object, level),
        # stacked per (speaker fingerprint, length).
        renders = partition_indices(
            (link.speaker.fingerprint(), id(waveform), float(tx_spl))
            for link, waveform, tx_spl in zip(links, waveforms, tx_spls)
        )
        source = [0] * n
        driven = []
        for u, rows in enumerate(renders.values()):
            x = np.asarray(waveforms[rows[0]], dtype=np.float64)
            if x.ndim != 1 or x.size == 0:
                raise ChannelError("waveform must be a non-empty 1-D array")
            level = rms(x)
            if level <= 0.0:
                raise ChannelError("waveform has zero energy")
            driven.append(x * (spl_to_amplitude(tx_spls[rows[0]]) / level))
            for i in rows:
                source[i] = u
        firsts = [rows[0] for rows in renders.values()]
        emitted: List[np.ndarray] = [None] * len(driven)
        for us in partition_indices(
            (links[i].speaker.fingerprint(), x.size)
            for i, x in zip(firsts, driven)
        ).values():
            played = links[firsts[us[0]]].speaker.play_batch(
                np.stack([driven[u] for u in us])
            )
            for u, row in zip(us, played):
                emitted[u] = row

        # 2 — room IR draws, convolved per (signal length, IR length):
        # one broadcast spectrum when the rows share a render.  The
        # IR's direct tap is unit gain; NLOS attenuation of the direct
        # path is inside the IR, so only spreading loss follows.
        irs = [
            None if room is None else room.sample(gen)
            for room, gen in zip((ln.effective_room() for ln in links), gens)
        ]
        propagated: List[np.ndarray] = [None] * n
        roomed = [i for i in range(n) if irs[i] is not None]
        for group in partition_indices(
            (emitted[source[i]].size, irs[i].size) for i in roomed
        ).values():
            rows = [roomed[j] for j in group]
            us = [source[i] for i in rows]
            signals = (
                emitted[us[0]][None, :]
                if len(set(us)) == 1
                else np.stack([emitted[u] for u in us])
            )
            convolved = convolve_ir_rows(
                signals, np.stack([irs[i] for i in rows])
            )
            for i, row in zip(rows, convolved):
                propagated[i] = row
        for i, link in enumerate(links):
            row = propagated[i]
            if row is None:
                row = emitted[source[i]]
                if not link.los:
                    row = row * 10.0 ** (-link.nlos_blocking_db / 20.0)
            loss_db = spreading_loss_db(link.distance_m, d0=D0_METERS)
            row = row * 10.0 ** (-loss_db / 20.0)
            # 3, 4 — clock skew, then signal-only faults (SNR collapse),
            # before the noise is mixed in so a collapse degrades SNR.
            if link.clock_skew_ppm:
                # Imported here: only skewed links (never a fleet's)
                # resample, so fleet start-up does not load it.
                from ..dsp.resample import apply_clock_skew

                row = apply_clock_skew(row, link.clock_skew_ppm)
            if link.injector is not None:
                row = link.injector.apply_signal(row)
            propagated[i] = row

        # 5, 6 — the noise bed around the signal, then the microphone.
        leads = [int(ln.leading_silence * ln.sample_rate) for ln in links]
        widths = [
            lead + row.size + int(ln.trailing_silence * ln.sample_rate)
            for ln, row, lead in zip(links, propagated, leads)
        ]
        recorded = _capture(links, gens, widths, propagated, leads)

        # 7 — recording-level faults (bursts, truncation, jamming,
        # dropouts) draw from the injector's own derived streams, so
        # enabling one never perturbs the channel's noise sequence.
        return [
            row
            if link.injector is None
            else link.injector.apply_recording(row, link.sample_rate)
            for link, row in zip(links, recorded)
        ]

    @staticmethod
    def record_ambient_rows(
        links: Sequence["AcousticLink"],
        duration_s: float,
        gens: Sequence[np.random.Generator],
        values: bool = True,
    ) -> List[np.ndarray]:
        """Record ``duration_s`` of ambient noise on every link, stacked.

        Row ``i`` is ``links[i].record_ambient(duration_s,
        rng=gens[i])``, generator state included (steps 5 and 6 of
        :meth:`transmit_rows`).  ``values=False`` advances every
        generator exactly as a capture would but skips the DSP; the
        returned samples must not be read then.
        """
        if duration_s <= 0:
            raise ChannelError("duration must be positive")
        widths = [int(duration_s * link.sample_rate) for link in links]
        return _capture(links, gens, widths, values=values)


def partition_indices(keys) -> Dict[object, List[int]]:
    """Order-preserving partition of positions by key.

    Returns ``{key: [positions]}`` with keys in first-seen order and
    every position list strictly ascending.  The stacked paths (here
    and in the fleet executor) lean on the induced invariant:
    scattering per-group results back through the position lists
    reproduces the original sequence order exactly, for *any* grouping
    key — the property ``tests/test_otp_staging_equivalence.py``
    checks.
    """
    groups: Dict[object, List[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _capture(
    links: Sequence[AcousticLink],
    gens: Sequence[np.random.Generator],
    widths: Sequence[int],
    signals: Optional[Sequence[np.ndarray]] = None,
    leads: Optional[Sequence[int]] = None,
    values: bool = True,
) -> List[np.ndarray]:
    """Each row's noise bed (plus ``signals[i]`` at ``leads[i]``), then
    its microphone: one ``record_batch`` per (microphone fingerprint,
    width), its beds drawn by one ``sample_batch`` per scene."""
    out: List[np.ndarray] = [None] * len(links)
    for rows in partition_indices(
        (link.microphone.fingerprint(), width)
        for link, width in zip(links, widths)
    ).values():
        width = widths[rows[0]]
        scenes = partition_indices(id(links[i].noise) for i in rows)
        beds = np.empty((len(rows), width)) if len(scenes) > 1 else None
        for picks in scenes.values():
            noise = links[rows[picks[0]]].noise
            block = (
                np.zeros((len(picks), width))
                if noise is None
                else noise.sample_batch(
                    width, [gens[rows[j]] for j in picks], values=values
                )
            )
            if beds is None:
                beds = block
            else:
                beds[picks] = block
        for j, i in enumerate(rows if signals is not None else ()):
            span = slice(leads[i], leads[i] + signals[i].size)
            if links[i].noise is None:
                beds[j, span] = signals[i]
            else:
                # ``bed + row`` is commutative bit for bit, and the
                # silence padding contributes nothing.
                beds[j, span] += signals[i]
        captured = links[rows[0]].microphone.record_batch(
            beds, [gens[i] for i in rows], values=values
        )
        for i, row in zip(rows, captured):
            out[i] = row
    return out
