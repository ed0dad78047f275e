"""The WearLock facade: pair a phone and a watch, then unlock.

This is the entry point a downstream application would use::

    from repro import WearLock

    wl = WearLock.pair(secret=b"...")
    outcome = wl.unlock_attempt(environment="office", distance_m=0.4)
    if outcome.unlocked:
        ...

Each :meth:`unlock_attempt` runs the full two-phase protocol against
the simulated world; OTP counters, keyguard state and lockout persist
across attempts exactly as they would on a real pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..config import SystemConfig
from ..errors import WearLockError
from ..offload.planner import Placement
from ..protocol.controllers import PhoneController
from ..protocol.session import SessionConfig, UnlockOutcome, UnlockSession
from ..security.otp import OtpManager
from ..sensors.traces import ActivityKind


@dataclass(frozen=True)
class PairingInfo:
    """Metadata of a phone-watch pairing."""

    token_bits: int
    counter: int
    failures: int
    locked_out: bool


class WearLock:
    """A paired phone + watch with persistent security state."""

    def __init__(
        self,
        otp: OtpManager,
        system: Optional[SystemConfig] = None,
        repetition: int = 5,
        code=None,
    ):
        self._system = system if system is not None else SystemConfig()
        self._otp = otp
        self._phone = PhoneController(
            self._system, otp, repetition=repetition, code=code
        )
        self._repetition = repetition
        self._history: List[UnlockOutcome] = []

    @classmethod
    def pair(
        cls,
        secret: bytes,
        system: Optional[SystemConfig] = None,
        initial_counter: int = 0,
        repetition: int = 5,
        code=None,
    ) -> "WearLock":
        """Create a pairing from a shared secret (wireless-negotiated).

        ``code`` optionally replaces the default 5× repetition coding
        of the token with any :class:`repro.modem.coding.Code` (e.g.
        ``ConvolutionalCode()`` for shorter Phase-2 airtime).
        """
        if not secret:
            raise WearLockError("pairing secret must be non-empty")
        sys_cfg = system if system is not None else SystemConfig()
        otp = OtpManager(
            secret, config=sys_cfg.security, initial_counter=initial_counter
        )
        return cls(otp, system=sys_cfg, repetition=repetition, code=code)

    @property
    def pairing(self) -> PairingInfo:
        """Current pairing/security state."""
        return PairingInfo(
            token_bits=self._otp.token_bits,
            counter=self._otp.counter,
            failures=self._otp.failures,
            locked_out=self._otp.locked_out,
        )

    @property
    def keyguard(self):
        """The phone's keyguard (lock state, PIN fallback)."""
        return self._phone.keyguard

    @property
    def history(self) -> List[UnlockOutcome]:
        """All outcomes produced by this pairing."""
        return list(self._history)

    def pin_unlock(self) -> None:
        """Manual fallback: clears lockout on keyguard and OTP."""
        self._phone.keyguard.pin_unlock()
        self._otp.unlock_with_pin()

    def lock(self) -> None:
        """Relock the phone (screen off)."""
        self._phone.keyguard.lock()

    def unlock_attempt(
        self,
        environment: str = "office",
        distance_m: float = 0.4,
        los: bool = True,
        wireless: str = "ble",
        band: str = "audible",
        activity: ActivityKind = ActivityKind.SITTING,
        co_located: bool = True,
        offload: Optional[Placement] = None,
        max_ber: Optional[float] = None,
        nlos_blocking_db: float = 18.0,
        rng=None,
        seed: Optional[int] = None,
        tracer=None,
        faults=None,
        retry=None,
        verifiers=None,
        fusion: str = "and",
    ) -> UnlockOutcome:
        """Run one unlock attempt in the described situation.

        Security state (OTP counter, failures, keyguard lockout)
        persists across calls on the same pairing.  Pass a
        :class:`repro.core.trace.Tracer` to get a per-stage span
        timeline on ``outcome.trace``.  ``faults`` takes a
        :class:`repro.faults.FaultPlan` (or its spec-string form, e.g.
        ``"burst_noise@otp-tx:severity=2"``); ``retry`` takes a
        :class:`repro.protocol.session.RetryPolicy` to enable the
        NACK → downgrade → retransmit recovery loop.  ``verifiers`` /
        ``fusion`` select the proximity-verifier set and fusion policy
        (see :mod:`repro.verifiers`); the defaults keep the paper's
        ambient + motion-DTW AND behaviour.
        """
        session_config = SessionConfig(
            system=self._system,
            environment=environment,
            distance_m=distance_m,
            los=los,
            nlos_blocking_db=nlos_blocking_db,
            wireless=wireless,
            band=band,
            activity=activity,
            co_located=co_located,
            offload=offload,
            max_ber=max_ber,
            seed=seed,
            faults=faults,
            retry=retry,
            verifiers=verifiers,
            fusion=fusion,
        )
        session = UnlockSession(
            session_config, otp=self._otp, phone=self._phone
        )
        outcome = session.run(rng=rng, tracer=tracer)
        self._history.append(outcome)
        return outcome

    def success_rate(self) -> float:
        """Fraction of unlocked attempts in this pairing's history."""
        if not self._history:
            return 0.0
        return sum(o.unlocked for o in self._history) / len(self._history)
