"""Tests for radio models, device profiles, compute model, offloading."""

import numpy as np
import pytest

from repro.devices.battery import EnergyMeter
from repro.devices.compute import (
    Workload,
    correlation_workload,
    demodulation_workload,
    dtw_workload,
    probe_processing_workload,
)
from repro.devices.profiles import DEVICES, GALAXY_NEXUS, MOTO360, NEXUS6
from repro.errors import ConfigurationError, WearLockError
from repro.faults import FaultInjector
from repro.faults.plan import FaultPlan
from repro.offload.executor import OffloadExecutor
from repro.offload.planner import OffloadPlanner, Placement
from repro.protocol.stages import MSG_RESEND_LIMIT
from repro.wireless.messages import (
    AudioFileMessage,
    ChannelConfigMessage,
    CtsMessage,
    MessageType,
    RtsMessage,
)
from repro.wireless.radio import BleLink, WifiLink, WirelessLink


def _always_drop() -> FaultInjector:
    """An injector whose every wireless verdict is a drop."""
    return FaultInjector(FaultPlan.parse("msg_drop:p=1,hits=none"), seed=0)


class _ScriptedInjector:
    """Stands in for a FaultInjector with a fixed verdict sequence."""

    def __init__(self, *verdicts):
        self._verdicts = list(verdicts)

    def wireless_verdict(self):
        if self._verdicts:
            return self._verdicts.pop(0)
        return None, 1.0


class TestRadio:
    def test_wifi_faster_than_bt_messages(self):
        bt = BleLink(seed=0)
        wifi = WifiLink(seed=0)
        bt_times = [bt.send_message().seconds for _ in range(50)]
        wifi_times = [wifi.send_message().seconds for _ in range(50)]
        assert np.median(wifi_times) < np.median(bt_times) / 2

    def test_wifi_much_faster_for_files(self):
        bt = BleLink(seed=1)
        wifi = WifiLink(seed=1)
        n = 30_000
        bt_t = np.median([bt.send_file(n).seconds for _ in range(30)])
        wifi_t = np.median([wifi.send_file(n).seconds for _ in range(30)])
        assert wifi_t < bt_t / 4

    def test_file_time_scales_with_size(self):
        bt = BleLink(seed=2)
        small = np.median([bt.send_file(1000).seconds for _ in range(30)])
        large = np.median([bt.send_file(100_000).seconds for _ in range(30)])
        assert large > 5 * small

    def test_disconnected_link_raises(self):
        bt = BleLink(connected=False)
        with pytest.raises(WearLockError):
            bt.send_message()

    def test_round_trip_is_two_messages(self):
        wifi = WifiLink(seed=3)
        rt = wifi.round_trip()
        assert rt.seconds > 0
        assert rt.n_bytes == 128

    def test_rejects_zero_byte_file(self):
        with pytest.raises(WearLockError):
            WifiLink().send_file(0)


class TestDeliverySemantics:
    """The wireless-seam fixes: drop flags, timeouts, one jitter draw."""

    def _link(self, seed=11, sigma=0.3):
        return WirelessLink(
            "test", message_latency=0.02, throughput_bps=1.0e6,
            jitter_sigma=sigma, seed=seed,
        )

    def test_dropped_file_charges_timeout_and_clears_flag(self):
        link = self._link()
        link.injector = _always_drop()
        stats = link.send_file(30_000)
        assert not stats.delivered
        assert stats.seconds == pytest.approx(
            link.message_latency * WirelessLink.DROP_TIMEOUT_FACTOR
        )

    def test_round_trip_dropped_request_skips_return_leg(self):
        link = self._link()
        link.injector = _ScriptedInjector(("drop", 1.0))
        rt = link.round_trip()
        assert not rt.delivered
        assert rt.n_bytes == 128
        # Only the request timeout is charged: no response was ever
        # sent, so no return-leg latency (and no jitter draw) follows.
        assert rt.seconds == pytest.approx(
            link.message_latency * WirelessLink.DROP_TIMEOUT_FACTOR
        )

    def test_round_trip_dropped_response_clears_delivered(self):
        link = self._link()
        link.injector = _ScriptedInjector((None, 1.0), ("drop", 1.0))
        rt = link.round_trip()
        assert not rt.delivered
        assert rt.seconds > link.message_latency * (
            WirelessLink.DROP_TIMEOUT_FACTOR - 1.0
        )

    def test_round_trip_clean_is_delivered(self):
        rt = self._link().round_trip()
        assert rt.delivered

    def test_send_file_draws_one_jitter_factor(self):
        """Regression for the double-draw bug: a file transfer applies
        a single lognormal factor to latency and payload alike, so its
        median matches the planner's deterministic estimate."""
        sigma, n = 0.3, 30_000
        link = self._link(seed=11, sigma=sigma)
        mirror = np.random.default_rng(11)
        for _ in range(5):
            jitter = float(np.exp(mirror.normal(0.0, sigma)))
            expected = (
                link.message_latency * jitter
                + 8.0 * n * jitter / link.throughput_bps
            )
            assert link.send_file(n).seconds == pytest.approx(
                expected, rel=1e-12
            )
        # Five transfers consumed exactly five draws: the streams agree
        # on the very next normal variate.
        assert link._jitter() == pytest.approx(
            float(np.exp(mirror.normal(0.0, sigma))), rel=1e-12
        )


class TestMessages:
    def test_types(self):
        assert RtsMessage().type is MessageType.RTS
        assert CtsMessage().type is MessageType.CTS
        assert ChannelConfigMessage().type is MessageType.CHANNEL_CONFIG

    def test_audio_file_size_scales(self):
        small = AudioFileMessage(n_samples=100).size_bytes()
        large = AudioFileMessage(n_samples=10_000).size_bytes()
        assert large > small

    def test_channel_config_carries_plan(self):
        msg = ChannelConfigMessage(
            mode="QPSK", data_channels=(16, 17), pilot_channels=(7, 11),
            n_bits=155,
        )
        assert msg.mode == "QPSK"
        assert msg.size_bytes() > 48


class TestDeviceProfiles:
    def test_speed_ordering(self):
        assert NEXUS6.mops > GALAXY_NEXUS.mops > MOTO360.mops

    def test_watch_is_wearable(self):
        assert MOTO360.is_wearable
        assert not NEXUS6.is_wearable

    def test_compute_seconds_inverse_speed(self):
        work = 100.0
        assert NEXUS6.compute_seconds(work) < MOTO360.compute_seconds(work)

    def test_energy_is_power_times_time(self):
        e = MOTO360.compute_energy_j(60.0)
        assert e == pytest.approx(
            MOTO360.compute_seconds(60.0) * MOTO360.active_power_w
        )

    def test_battery_fraction(self):
        frac = MOTO360.battery_fraction(MOTO360.battery_mwh * 3.6)
        assert frac == pytest.approx(1.0)

    def test_registry(self):
        assert set(DEVICES) == {"Nexus 6", "Galaxy Nexus", "Moto 360"}

    def test_rejects_negative_work(self):
        with pytest.raises(ConfigurationError):
            NEXUS6.compute_seconds(-1.0)


class TestComputeModel:
    def test_correlation_superlinear_in_length(self):
        small = correlation_workload(10_000, 256).mops
        large = correlation_workload(40_000, 256).mops
        assert large > 3.9 * small

    def test_demodulation_linear_in_symbols(self):
        one = demodulation_workload(1, 256, 12, 8).mops
        seven = demodulation_workload(7, 256, 12, 8).mops
        assert seven == pytest.approx(7 * one)

    def test_probe_processing_includes_correlation(self):
        total = probe_processing_workload(20_000, 256, 256).mops
        corr = correlation_workload(20_000, 256).mops
        assert total > corr
        # The phone's FFT pads to a power of two: 6 · (3·5·N·log2 N +
        # 4·20000) / 1e6 with N = 32768, whatever length the host uses.
        assert corr == 44.7168

    def test_dtw_cost_matches_paper_scale(self):
        """Paper Table II: ~46 ms on-device at 50-150 samples."""
        ms = 1e3 * MOTO360.compute_seconds(dtw_workload(100, 100).mops)
        assert 1.0 < ms < 100.0

    def test_workload_addition(self):
        w = Workload("a", 1.0) + Workload("b", 2.0)
        assert w.mops == pytest.approx(3.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            demodulation_workload(0, 256, 12, 8)


class TestEnergyMeter:
    def test_categories_accumulate(self):
        meter = EnergyMeter(device=MOTO360)
        meter.record_compute(30.0)
        meter.record_radio(0.5)
        meter.record_audio(0.3)
        meter.record_idle(1.0)
        summary = meter.summary()
        assert set(summary) == {"compute", "radio", "audio", "idle", "total"}
        assert summary["total"] == pytest.approx(
            sum(v for k, v in summary.items() if k != "total")
        )

    def test_compute_returns_duration(self):
        meter = EnergyMeter(device=MOTO360)
        seconds = meter.record_compute(60.0)
        assert seconds == pytest.approx(1.0)

    def test_rejects_negative_time(self):
        meter = EnergyMeter(device=MOTO360)
        with pytest.raises(ConfigurationError):
            meter.record_audio(-1.0)


class TestOffload:
    def _work(self):
        return probe_processing_workload(15_000, 256, 256)

    def test_planner_prefers_offload_over_wifi(self):
        planner = OffloadPlanner(MOTO360, NEXUS6, WifiLink(seed=4))
        plan = planner.plan(self._work(), 30_000)
        assert plan.placement is Placement.PHONE_OFFLOAD

    def test_forced_local(self):
        planner = OffloadPlanner(
            MOTO360, NEXUS6, WifiLink(seed=5), prefer=Placement.WATCH_LOCAL
        )
        plan = planner.plan(self._work(), 30_000)
        assert plan.placement is Placement.WATCH_LOCAL
        assert plan.transfer_bytes == 0

    def test_offload_saves_watch_energy(self):
        """The paper's Fig. 6 claim, at the planner level."""
        link = BleLink(seed=6)
        planner_off = OffloadPlanner(
            MOTO360, NEXUS6, link, prefer=Placement.PHONE_OFFLOAD
        )
        planner_loc = OffloadPlanner(
            MOTO360, NEXUS6, link, prefer=Placement.WATCH_LOCAL
        )
        work = self._work()
        off = planner_off.plan(work, 30_000)
        loc = planner_loc.plan(work, 30_000)
        assert off.predicted_watch_energy_j < loc.predicted_watch_energy_j

    def test_planner_rejects_non_wearable_watch(self):
        with pytest.raises(ConfigurationError):
            OffloadPlanner(NEXUS6, GALAXY_NEXUS, WifiLink())

    def test_executor_local_charges_watch_only(self):
        ex = OffloadExecutor(MOTO360, NEXUS6, BleLink(seed=7))
        planner = OffloadPlanner(
            MOTO360, NEXUS6, BleLink(seed=7), prefer=Placement.WATCH_LOCAL
        )
        report = ex.execute(planner.plan(self._work(), 30_000), self._work())
        assert report.watch_energy_j > 0
        assert report.phone_energy_j == 0
        assert ex.phone_meter.total_joules == 0

    def test_executor_exhausted_resends_fall_back_to_local(self):
        """A clip the phone never receives is processed on the watch."""
        link = BleLink(seed=9)
        link.injector = _always_drop()
        ex = OffloadExecutor(MOTO360, NEXUS6, link)
        planner = OffloadPlanner(
            MOTO360, NEXUS6, BleLink(seed=9),
            prefer=Placement.PHONE_OFFLOAD,
        )
        work = self._work()
        report = ex.execute(planner.plan(work, 30_000), work)
        assert report.placement is Placement.WATCH_LOCAL
        # Every attempt (first send + MSG_RESEND_LIMIT resends) charged
        # the acknowledgement timeout to the watch radio.
        timeout = link.message_latency * link.DROP_TIMEOUT_FACTOR
        assert report.transfer_s == pytest.approx(
            (MSG_RESEND_LIMIT + 1) * timeout
        )
        assert report.compute_s > 0
        assert report.phone_energy_j == 0
        assert ex.phone_meter.total_joules == 0
        assert ex.watch_meter.joules_by_category["radio"] > 0
        assert ex.watch_meter.joules_by_category["compute"] > 0

    def test_executor_resend_recovers_offload(self):
        """One drop followed by a clean resend still lands on the phone,
        with the timeout kept in the transfer bill."""
        link = WifiLink(seed=10)
        link.injector = _ScriptedInjector(("drop", 1.0))
        ex = OffloadExecutor(MOTO360, NEXUS6, link)
        planner = OffloadPlanner(
            MOTO360, NEXUS6, WifiLink(seed=10),
            prefer=Placement.PHONE_OFFLOAD,
        )
        work = self._work()
        report = ex.execute(planner.plan(work, 30_000), work)
        assert report.placement is Placement.PHONE_OFFLOAD
        assert report.phone_energy_j > 0
        timeout = link.message_latency * link.DROP_TIMEOUT_FACTOR
        assert report.transfer_s > timeout

    def test_executor_offload_charges_both(self):
        ex = OffloadExecutor(MOTO360, NEXUS6, WifiLink(seed=8))
        planner = OffloadPlanner(
            MOTO360, NEXUS6, WifiLink(seed=8),
            prefer=Placement.PHONE_OFFLOAD,
        )
        report = ex.execute(planner.plan(self._work(), 30_000), self._work())
        assert report.transfer_s > 0
        assert report.phone_energy_j > 0
        assert ex.watch_meter.joules_by_category["radio"] > 0
