"""Secure unlocking (paper §IV): OTP tokens, replay defenses, NLOS gate.

The acoustic channel is assumed eavesdroppable; the wireless link is the
trusted control channel.  Security rests on:

* counter-based one-time passwords (HOTP, RFC 4226) — nothing secret
  ever crosses the acoustic channel;
* a three-strike lockout against brute force;
* a timing window bounding the acoustic round trip (record-and-replay
  adds delay);
* the RMS-delay-spread NLOS gate (a covered/blocked phone both degrades
  legitimately and resists co-located attackers).
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "hotp": (".hotp", "hotp"),
        "hotp_digits": (".hotp", "hotp_digits"),
        "hotp_token_bits": (".hotp", "hotp_token_bits"),
        "dynamic_truncation": (".hotp", "dynamic_truncation"),
        "OtpManager": (".otp", "OtpManager"),
        "OtpVerification": (".otp", "OtpVerification"),
        "token_to_bits": (".tokens", "token_to_bits"),
        "bits_to_token": (".tokens", "bits_to_token"),
        "TimingGuard": (".timing", "TimingGuard"),
        "TimingObservation": (".timing", "TimingObservation"),
        "NlosDetector": (".nlos", "NlosDetector"),
        "NlosVerdict": (".nlos", "NlosVerdict"),
        "AttackOutcome": (".attacks", "AttackOutcome"),
        "BruteForceAttacker": (".attacks", "BruteForceAttacker"),
        "CoLocatedAttacker": (".attacks", "CoLocatedAttacker"),
        "ReplayAttacker": (".attacks", "ReplayAttacker"),
        "RelayAttacker": (".attacks", "RelayAttacker"),
        "HardwareFingerprint": (".fingerprint", "HardwareFingerprint"),
        "phase_signature": (".fingerprint", "phase_signature"),
        "probe_spectrum": (".fingerprint", "probe_spectrum"),
        "signature_distance": (".fingerprint", "signature_distance"),
    },
)
