"""Wireless control-channel substrate (Bluetooth LE / WiFi models)."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "BleLink": (".radio", "BleLink"),
        "WifiLink": (".radio", "WifiLink"),
        "WirelessLink": (".radio", "WirelessLink"),
        "TransferStats": (".radio", "TransferStats"),
        "Message": (".messages", "Message"),
        "MessageType": (".messages", "MessageType"),
        "RtsMessage": (".messages", "RtsMessage"),
        "CtsMessage": (".messages", "CtsMessage"),
        "ChannelConfigMessage": (".messages", "ChannelConfigMessage"),
        "SensorDataMessage": (".messages", "SensorDataMessage"),
        "AudioFileMessage": (".messages", "AudioFileMessage"),
        "StopRecordingMessage": (".messages", "StopRecordingMessage"),
    },
)
