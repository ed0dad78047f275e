"""The WearLock acoustic OFDM modem (paper §III).

A pure-software modem: constellation mapping, OFDM framing with chirp
preamble and cyclic prefix, time synchronization, pilot-based channel
estimation/equalization, pilot-SNR estimation, adaptive modulation and
sub-channel selection.  Mirrors the paper's block diagram (Fig. 3).
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "pack_bits": (".bits", "pack_bits"),
        "unpack_bits": (".bits", "unpack_bits"),
        "random_bits": (".bits", "random_bits"),
        "prbs_bits": (".bits", "prbs_bits"),
        "bit_errors": (".bits", "bit_errors"),
        "bit_error_rate": (".bits", "bit_error_rate"),
        "Constellation": (".constellation", "Constellation"),
        "BASK": (".constellation", "BASK"),
        "QASK": (".constellation", "QASK"),
        "BPSK": (".constellation", "BPSK"),
        "QPSK": (".constellation", "QPSK"),
        "PSK8": (".constellation", "PSK8"),
        "QAM16": (".constellation", "QAM16"),
        "get_constellation": (".constellation", "get_constellation"),
        "CONSTELLATIONS": (".constellation", "CONSTELLATIONS"),
        "ChannelPlan": (".subchannels", "ChannelPlan"),
        "PreambleDetector": (".preamble", "PreambleDetector"),
        "build_preamble": (".preamble", "build_preamble"),
        "preamble_template": (".preamble", "preamble_template"),
        "SignalPlane": (".context", "SignalPlane"),
        "signal_plane": (".context", "signal_plane"),
        "plane_cache_stats": (".context", "plane_cache_stats"),
        "clear_plane_cache": (".context", "clear_plane_cache"),
        "modulate_symbol": (".frame", "modulate_symbol"),
        "modulate_symbols": (".frame", "modulate_symbols"),
        "demodulate_block": (".frame", "demodulate_block"),
        "demodulate_blocks": (".frame", "demodulate_blocks"),
        "frame_layout": (".frame", "frame_layout"),
        "FrameLayout": (".frame", "FrameLayout"),
        "OfdmTransmitter": (".transmitter", "OfdmTransmitter"),
        "Synchronizer": (".synchronizer", "Synchronizer"),
        "estimate_channel_rows": (".equalizer", "estimate_channel_rows"),
        "equalize_rows": (".equalizer", "equalize_rows"),
        "OfdmReceiver": (".receiver", "OfdmReceiver"),
        "ReceiveResult": (".receiver", "ReceiveResult"),
        "pilot_snr_db_rows": (".snr", "pilot_snr_db_rows"),
        "ebn0_db_from_psnr": (".snr", "ebn0_db_from_psnr"),
        "data_rate": (".snr", "data_rate"),
        "BerModel": (".adaptive", "BerModel"),
        "AdaptiveModulator": (".adaptive", "AdaptiveModulator"),
        "TRANSMISSION_MODES": (".adaptive", "TRANSMISSION_MODES"),
        "ChannelProber": (".probe", "ChannelProber"),
        "ProbeReport": (".probe", "ProbeReport"),
        "Code": (".coding", "Code"),
        "RepetitionCode": (".coding", "RepetitionCode"),
        "HammingCode": (".coding", "HammingCode"),
        "ConvolutionalCode": (".coding", "ConvolutionalCode"),
        "BlockInterleaver": (".coding", "BlockInterleaver"),
        "get_code": (".coding", "get_code"),
        "read_wav": (".wavio", "read_wav"),
        "write_wav": (".wavio", "write_wav"),
    },
)
