"""Typed protocol messages exchanged over the wireless control channel.

The wireless channel is the *secure* channel (paper threat model): it
carries the acoustic-channel configuration (pilot/data/null sub-channel
assignments), sensor windows, recording control, and the watch's
recorded audio for offloaded processing.  These dataclasses give the
controllers a typed vocabulary and let tests assert on exact payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np


class MessageType(str, Enum):
    """Wire message kinds of the WearLock protocol."""

    RTS = "rts"
    CTS = "cts"
    CHANNEL_CONFIG = "channel_config"
    SENSOR_DATA = "sensor_data"
    AUDIO_FILE = "audio_file"
    STOP_RECORDING = "stop_recording"


@dataclass(frozen=True)
class Message:
    """Base class: every message knows its type and payload size."""

    @property
    def type(self) -> MessageType:
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Approximate wire size, used by the latency models."""
        return 32


@dataclass(frozen=True)
class RtsMessage(Message):
    """Phone → watch: protocol start; begin recording."""

    session_id: int = 0

    @property
    def type(self) -> MessageType:
        return MessageType.RTS

    def size_bytes(self) -> int:
        return 24


@dataclass(frozen=True)
class CtsMessage(Message):
    """Watch → phone: probe analysis results (clear to send).

    Carries the pilot-SNR estimate, the preamble score, the measured
    noise SPL and delay spread — everything the phone needs to pick the
    volume, the modulation mode, and the sub-channel plan.
    """

    session_id: int = 0
    psnr_db: float = 0.0
    preamble_score: float = 0.0
    noise_spl: float = 0.0
    tau_rms: float = 0.0
    detected: bool = True

    @property
    def type(self) -> MessageType:
        return MessageType.CTS

    def size_bytes(self) -> int:
        return 64


@dataclass(frozen=True)
class ChannelConfigMessage(Message):
    """Phone → watch: acoustic channel configuration for Phase 2."""

    session_id: int = 0
    mode: str = "QPSK"
    data_channels: Tuple[int, ...] = ()
    pilot_channels: Tuple[int, ...] = ()
    n_bits: int = 31

    @property
    def type(self) -> MessageType:
        return MessageType.CHANNEL_CONFIG

    def size_bytes(self) -> int:
        return 48 + 2 * (len(self.data_channels) + len(self.pilot_channels))


@dataclass(frozen=True)
class SensorDataMessage(Message):
    """Watch → phone: accelerometer window for the motion filter."""

    session_id: int = 0
    samples: Optional[np.ndarray] = None

    @property
    def type(self) -> MessageType:
        return MessageType.SENSOR_DATA

    def size_bytes(self) -> int:
        n = 0 if self.samples is None else int(np.asarray(self.samples).size)
        return 24 + 4 * n


@dataclass(frozen=True)
class AudioFileMessage(Message):
    """Watch → phone: recorded audio clip for offloaded processing."""

    session_id: int = 0
    n_samples: int = 0
    sample_width: int = 2

    @property
    def type(self) -> MessageType:
        return MessageType.AUDIO_FILE

    def size_bytes(self) -> int:
        return 44 + self.n_samples * self.sample_width


@dataclass(frozen=True)
class StopRecordingMessage(Message):
    """Phone → watch: acoustic transmission finished, stop recording."""

    session_id: int = 0

    @property
    def type(self) -> MessageType:
        return MessageType.STOP_RECORDING

    def size_bytes(self) -> int:
        return 16
