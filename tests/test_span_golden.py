"""Pinned span trees of traced unlock sessions.

Each case runs one seeded session under a :class:`~repro.core.trace.
Tracer` and compares every finished span — name, parent, order,
status, tags, counters, simulated duration and per-device energy —
with ``span_golden.json``.  Wall times are excluded, and so are the
plane-cache counters (they depend on what earlier sessions in the
process left in the cache).  The cases cover an unlock, a NACK
retransmit, a re-probe, a budget-bound retry loop, dropped messages
and early aborts, so a change to how the engine opens, tags or closes
stage spans shows here.

Regenerate the golden (only when a change is meant to move a span)::

    PYTHONPATH=src python tests/test_span_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.trace import Tracer
from repro.protocol.session import RetryPolicy, SessionConfig, UnlockSession
from repro.security.otp import OtpManager

GOLDEN = Path(__file__).with_name("span_golden.json")

#: ``name -> SessionConfig`` keyword arguments of each traced session.
CASES = {
    "unlock": dict(environment="office", seed=42),
    "nack-retransmit": dict(
        seed=11, faults="frame_truncation@otp-tx", retry=RetryPolicy()
    ),
    "reprobe": dict(
        seed=7,
        faults="burst_noise@otp-tx:severity=3,hits=3",
        retry=RetryPolicy(max_attempts=4),
    ),
    "retry-bound": dict(
        seed=11,
        faults="burst_noise@otp-tx:severity=3,hits=none",
        retry=RetryPolicy(max_attempts=4),
    ),
    "msg-drop": dict(
        seed=7, faults="msg_drop@probe-process:p=0.5", retry=RetryPolicy()
    ),
    "abort-wireless": dict(wireless_connected=False, seed=1),
    "abort-prefilter": dict(co_located=False, seed=0),
    "abort-verify-link": dict(
        seed=7,
        faults="msg_drop@verify:hits=none",
        retry=RetryPolicy(),
    ),
}


def span_tree(kwargs) -> list:
    """The traced session's spans, in finish order, without wall time."""
    tracer = Tracer()
    outcome = UnlockSession(
        SessionConfig(**kwargs), otp=OtpManager(b"span-golden")
    ).run(tracer=tracer)
    spans = []
    for span in outcome.trace.spans:
        spans.append(
            {
                "name": span.name,
                "parent": span.parent,
                "status": span.status,
                "tags": dict(span.tags),
                "counters": {
                    k: v
                    for k, v in span.counters.items()
                    if not k.startswith("plane_cache")
                },
                "sim_s": span.sim_s,
                "watch_energy_j": span.watch_energy_j,
                "phone_energy_j": span.phone_energy_j,
            }
        )
    return spans


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_span_tree_matches_golden(case):
    want = _golden()[case]
    got = span_tree(CASES[case])
    assert [s["name"] for s in got] == [s["name"] for s in want]
    for g, w in zip(got, want):
        for key in ("parent", "status", "tags", "counters"):
            assert g[key] == w[key], (g["name"], key)
        for key in ("sim_s", "watch_energy_j", "phone_energy_j"):
            assert g[key] == pytest.approx(w[key], rel=1e-9, abs=1e-15), (
                g["name"],
                key,
            )


def test_cases_cover_retries_and_aborts():
    """The golden really holds a NACK, a re-probe and early aborts."""
    golden = _golden()
    stage_names = {
        case: [s["name"] for s in spans if s["parent"] is None]
        for case, spans in golden.items()
    }
    retry_to = {
        case: [
            s["tags"]["retry_to"] for s in spans if s["status"] == "retry"
        ]
        for case, spans in golden.items()
    }
    assert "otp-tx" in retry_to["nack-retransmit"]
    assert "probe-tx" in retry_to["reprobe"]
    assert stage_names["abort-wireless"] == ["wireless-check"]
    assert golden["abort-prefilter"][-1]["status"] == "abort"
    assert stage_names["abort-prefilter"][-1] == "prefilter"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {case: span_tree(kwargs) for case, kwargs in CASES.items()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
