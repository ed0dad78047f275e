"""The WearLock acoustic OFDM modem (paper §III).

A pure-software modem: constellation mapping, OFDM framing with chirp
preamble and cyclic prefix, time synchronization, pilot-based channel
estimation/equalization, pilot-SNR estimation, adaptive modulation and
sub-channel selection.  Mirrors the paper's block diagram (Fig. 3).
"""

from .bits import (
    pack_bits,
    unpack_bits,
    random_bits,
    prbs_bits,
    bit_errors,
    bit_error_rate,
)
from .constellation import (
    Constellation,
    BASK,
    QASK,
    BPSK,
    QPSK,
    PSK8,
    QAM16,
    get_constellation,
    CONSTELLATIONS,
)
from .subchannels import ChannelPlan
from .preamble import PreambleDetector, build_preamble, preamble_template
from .context import (
    SignalPlane,
    signal_plane,
    plane_cache_stats,
    clear_plane_cache,
)
from .frame import (
    modulate_symbol,
    modulate_symbols,
    demodulate_block,
    demodulate_blocks,
    frame_layout,
    FrameLayout,
)
from .transmitter import OfdmTransmitter
from .synchronizer import Synchronizer
from .equalizer import estimate_channel_rows, equalize_rows
from .receiver import OfdmReceiver, ReceiveResult
from .snr import (
    pilot_snr_db_rows,
    ebn0_db_from_psnr,
    data_rate,
)
from .adaptive import BerModel, AdaptiveModulator, TRANSMISSION_MODES
from .probe import ChannelProber, ProbeReport
from .coding import (
    Code,
    RepetitionCode,
    HammingCode,
    ConvolutionalCode,
    BlockInterleaver,
    get_code,
)
from .wavio import read_wav, write_wav

__all__ = [
    "pack_bits",
    "unpack_bits",
    "random_bits",
    "prbs_bits",
    "bit_errors",
    "bit_error_rate",
    "Constellation",
    "BASK",
    "QASK",
    "BPSK",
    "QPSK",
    "PSK8",
    "QAM16",
    "get_constellation",
    "CONSTELLATIONS",
    "ChannelPlan",
    "PreambleDetector",
    "build_preamble",
    "preamble_template",
    "SignalPlane",
    "signal_plane",
    "plane_cache_stats",
    "clear_plane_cache",
    "modulate_symbol",
    "modulate_symbols",
    "demodulate_block",
    "demodulate_blocks",
    "frame_layout",
    "FrameLayout",
    "OfdmTransmitter",
    "Synchronizer",
    "estimate_channel_rows",
    "equalize_rows",
    "OfdmReceiver",
    "ReceiveResult",
    "pilot_snr_db_rows",
    "ebn0_db_from_psnr",
    "data_rate",
    "BerModel",
    "AdaptiveModulator",
    "TRANSMISSION_MODES",
    "ChannelProber",
    "ProbeReport",
    "Code",
    "RepetitionCode",
    "HammingCode",
    "ConvolutionalCode",
    "BlockInterleaver",
    "get_code",
    "read_wav",
    "write_wav",
]
