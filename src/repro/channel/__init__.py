"""Acoustic world simulator.

Replaces the paper's physical testbed (COTS phone speaker → air → watch
microphone, in real rooms) with a calibrated simulation:

* :mod:`repro.channel.acoustics` — spherical spreading loss and SPL math;
* :mod:`repro.channel.noise` — ambient noise scenes and tone jammers;
* :mod:`repro.channel.multipath` — room impulse responses, LOS/NLOS;
* :mod:`repro.channel.hardware` — speaker rise/ringing, mic low-pass;
* :mod:`repro.channel.link` — the composed end-to-end channel;
* :mod:`repro.channel.scenarios` — the named environments of the paper's
  field test (office, classroom, cafe, grocery store, quiet room).
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "spreading_loss_db": (".acoustics", "spreading_loss_db"),
        "received_spl": (".acoustics", "received_spl"),
        "required_tx_spl": (".acoustics", "required_tx_spl"),
        "VolumeControl": (".acoustics", "VolumeControl"),
        "white_noise": (".noise", "white_noise"),
        "pink_noise": (".noise", "pink_noise"),
        "shaped_noise": (".noise", "shaped_noise"),
        "tone_jammer": (".noise", "tone_jammer"),
        "NoiseScene": (".noise", "NoiseScene"),
        "RoomImpulseResponse": (".multipath", "RoomImpulseResponse"),
        "rms_delay_spread": (".multipath", "rms_delay_spread"),
        "SpeakerModel": (".hardware", "SpeakerModel"),
        "MicrophoneModel": (".hardware", "MicrophoneModel"),
        "AcousticLink": (".link", "AcousticLink"),
        "LinkBudget": (".link", "LinkBudget"),
        "Environment": (".scenarios", "Environment"),
        "ENVIRONMENTS": (".scenarios", "ENVIRONMENTS"),
        "get_environment": (".scenarios", "get_environment"),
    },
)
