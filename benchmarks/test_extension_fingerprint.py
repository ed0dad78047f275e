"""Extension bench — hardware fingerprinting vs the relay attack.

The paper's §IV names fingerprinting of the acoustic hardware as the
countermeasure to the (otherwise unaddressed) live relay attack.  This
extension measures the detector: enrollment on the genuine speaker,
then verification trials against (a) the genuine device, (b) a relay
chain, (c) a different physical device.
"""

import numpy as np

from repro.channel.hardware import SpeakerModel
from repro.config import ModemConfig
from repro.eval.reporting import format_table
from repro.modem.subchannels import ChannelPlan
from repro.security.attacks import RelayAttacker
from repro.security.fingerprint import HardwareFingerprint, probe_spectrum


def test_extension_fingerprint_vs_relay(benchmark):
    config = ModemConfig()
    plan = ChannelPlan.from_config(config)

    def run():
        enroll = [probe_spectrum(config, s) for s in range(4)]
        fp = HardwareFingerprint.enroll(enroll, plan)
        relay = RelayAttacker(extra_phase_ripple_rad=0.5)
        other = SpeakerModel(device_seed=4242)

        results = {"genuine": [], "relay": [], "other_device": []}
        for trial in range(6):
            ok, d = fp.verify(probe_spectrum(config, 100 + trial), plan)
            results["genuine"].append((ok, d))
            ok, d = fp.verify(
                probe_spectrum(
                    config,
                    200 + trial,
                    distort=lambda r: relay.distort(
                        r, config.sample_rate
                    ),
                ),
                plan,
            )
            results["relay"].append((ok, d))
            ok, d = fp.verify(
                probe_spectrum(config, 300 + trial, speaker=other), plan
            )
            results["other_device"].append((ok, d))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label, trials in results.items():
        accepted = sum(ok for ok, _ in trials)
        mean_d = float(np.mean([d for _, d in trials]))
        rows.append([label, f"{accepted}/{len(trials)}", f"{mean_d:.3f}"])
    print()
    print(
        format_table(
            "Extension — hardware fingerprinting (threshold 0.08 rad/bin)",
            ["source", "accepted", "mean distance"],
            rows,
        )
    )

    genuine_ok = sum(ok for ok, _ in results["genuine"])
    relay_ok = sum(ok for ok, _ in results["relay"])
    other_ok = sum(ok for ok, _ in results["other_device"])

    assert genuine_ok >= 5        # genuine device almost always passes
    assert relay_ok == 0          # the relay never does
    assert other_ok == 0          # nor does a different device
