"""Each scalar channel-synthesis and sensing call against the 1-D oracle.

The thirteen scalar entry points below are one-row calls of their
stacked kernels; their old 1-D bodies live in ``tests/kernel_oracle.py``.  One
hypothesis property per kernel draws lengths, parameters and seeds and
checks that the one-row call equals the oracle bit for bit and leaves
its generator at the oracle's stream position.  The draws include
empty and length-1 inputs, signals shorter than one Welch segment, DTW
pairs of unequal length, multi-band pairs too short to fingerprint or
silent, speakers with stages switched off and the
wide-band microphone.  The acoustic link's row kernels are checked
row by row here too, on one mixed batch; the other many-row calls are
compared with the same oracle in the staging equivalence suites.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.hardware import MicrophoneModel, SpeakerModel
from repro.channel.link import AcousticLink
from repro.channel.noise import NoiseScene, shaped_noise, tone_jammer
from repro.channel.scenarios import get_environment
from repro.core.colocation import AmbientComparator
from repro.dsp.spectrum import welch_psd
from repro.errors import ChannelError, WearLockError
from repro.faults import FaultInjector, FaultPlan
from repro.sensors.dtw import dtw_distance, normalized_dtw
from repro.verifiers.multiband import multiband_similarity
from tests import kernel_oracle as oracle

FS = 44_100.0

seeds = st.integers(0, 2**32 - 1)


def _series(data, max_len):
    n = data.draw(st.integers(1, max_len))
    scale = 10.0 ** data.draw(st.integers(-3, 3))
    return scale * np.random.default_rng(data.draw(seeds)).standard_normal(n)


def _generators(data):
    seed = data.draw(seeds)
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _bands(data, min_size=1):
    bands = []
    for _ in range(data.draw(st.integers(min_size, 3))):
        low = data.draw(st.sampled_from([0.0, 60.0, 400.0, 2500.0]))
        high = low + data.draw(st.sampled_from([150.0, 1500.0, 9000.0]))
        weight = data.draw(st.sampled_from([0.0, 0.35, 1.0]))
        bands.append((low, high, weight))
    return tuple(bands)


def _tones(data):
    return tuple(
        data.draw(st.lists(st.floats(20.0, 20_000.0), max_size=6))
    )


def _same_stream(g1, g2):
    return g1.bit_generator.state == g2.bit_generator.state


def _dtw_distance(data):
    x, y = _series(data, 40), _series(data, 40)
    assert dtw_distance(x, y) == oracle.dtw_distance(x, y)


def _normalized_dtw(data):
    x, y = _series(data, 40), _series(data, 40)
    assert normalized_dtw(x, y) == oracle.normalized_dtw(x, y)


def _welch_psd(data):
    x = _series(data, 3000)
    segment = data.draw(st.sampled_from([8, 64, 256, 512]))
    overlap = data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.75]))
    freqs, psd = welch_psd(x, FS, segment, overlap)
    ref_freqs, ref_psd = oracle.welch_psd(x, FS, segment, overlap)
    assert np.array_equal(freqs, ref_freqs)
    assert np.array_equal(psd, ref_psd)


def _comparator(data):
    return AmbientComparator(n_bands=data.draw(st.integers(3, 29)))


def _recording(data):
    n = data.draw(st.integers(64, 4000))
    return np.random.default_rng(data.draw(seeds)).standard_normal(n)


def _band_profile(data):
    comparator, x = _comparator(data), _recording(data)
    expected = oracle.band_profile(comparator, x)
    if expected.size < 3:
        with pytest.raises(WearLockError, match="too few usable bands"):
            comparator.band_profile(x)
    else:
        assert np.array_equal(comparator.band_profile(x), expected)


def _similarity(data):
    comparator = _comparator(data)
    a, b = _recording(data), _recording(data)
    if min(
        oracle.band_profile(comparator, a).size,
        oracle.band_profile(comparator, b).size,
    ) < 3:
        with pytest.raises(WearLockError, match="too few usable bands"):
            comparator.similarity(a, b)
    else:
        assert comparator.similarity(a, b) == oracle.similarity(
            comparator, a, b
        )


def _multiband_similarity(data):
    fs = data.draw(st.sampled_from([8_000.0, 16_000.0, FS, 48_000.0]))
    a = _series(data, 4000)
    kind = data.draw(st.sampled_from(["independent", "shared", "silent"]))
    if kind == "independent":
        b = _series(data, 4000)
    elif kind == "shared":
        # Same scene at the second microphone: the correlated case.
        n = data.draw(st.integers(1, a.size))
        noise = np.random.default_rng(data.draw(seeds)).standard_normal(n)
        b = a[:n] + 0.3 * np.std(a) * noise
    else:
        b = np.zeros(data.draw(st.integers(1, 4000)))
    got = multiband_similarity(a, b, fs)
    assert np.array_equal(
        got, oracle.multiband_similarity(a, b, fs), equal_nan=True
    )


def _shaped_noise(data):
    n = data.draw(st.integers(0, 3000))
    bands = _bands(data)
    g1, g2 = _generators(data)
    out = shaped_noise(n, 50.0, FS, bands, rng=g1)
    assert np.array_equal(out, oracle.shaped_noise(n, 50.0, FS, bands, g2))
    assert _same_stream(g1, g2)


def _tone_jammer(data):
    n = data.draw(st.integers(0, 3000))
    tones = _tones(data)
    g1, g2 = _generators(data)
    out = tone_jammer(n, FS, tones, 55.0, rng=g1)
    assert np.array_equal(out, oracle.tone_jammer(n, FS, tones, 55.0, g2))
    assert _same_stream(g1, g2)


def _scene_sample(data):
    n = data.draw(st.integers(0, 3000))
    scene = NoiseScene(
        spl_db=data.draw(st.floats(20.0, 70.0)),
        bands=_bands(data, min_size=0),
        jam_tones_hz=_tones(data),
        jam_spl_db=data.draw(st.sampled_from([-np.inf, 48.0])),
    )
    g1, g2 = _generators(data)
    out = scene.sample(n, rng=g1)
    assert np.array_equal(out, oracle.scene_sample(scene, n, g2))
    assert _same_stream(g1, g2)


def _play(data):
    speaker = SpeakerModel(
        rise_time=data.draw(st.sampled_from([0.0, 1.0e-3, 4.0e-3])),
        ringing_time=data.draw(st.sampled_from([0.0, 0.4e-3])),
        ringing_gain=data.draw(st.sampled_from([0.0, 0.15])),
        phase_ripple_rad=data.draw(st.sampled_from([0.0, 0.25])),
        clip_level=data.draw(st.sampled_from([0.3, 1.0])),
        device_seed=data.draw(st.integers(0, 5000)),
    )
    n = data.draw(st.integers(0, 3000))
    x = 0.5 * np.random.default_rng(data.draw(seeds)).standard_normal(n)
    out = speaker.play(x)
    assert np.array_equal(out, oracle.speaker_play(speaker, x))
    if n == 0:
        assert out.shape == (0,)
        with pytest.raises(ChannelError):
            speaker.play_batch(x[None, :])


def _record(data):
    mic = data.draw(
        st.sampled_from(
            [
                MicrophoneModel(),
                MicrophoneModel.wide_band(),
                MicrophoneModel(noise_floor_spl=-np.inf),
            ]
        )
    )
    n = data.draw(st.integers(0, 3000))
    x = 0.2 * np.random.default_rng(data.draw(seeds)).standard_normal(n)
    g1, g2 = _generators(data)
    out = mic.record(x, rng=g1)
    assert np.array_equal(out, oracle.mic_record(mic, x, g2))
    assert _same_stream(g1, g2)
    if n == 0:
        assert out.shape == (0,)


#: Both acoustic fault hooks, each firing at random, unbounded.
_FAULTS = FaultPlan.parse(
    "snr_collapse@probe-tx:p=0.6,hits=none;"
    "burst_noise@probe-tx:p=0.6,severity=2,hits=none"
)
_SPEAKERS = (SpeakerModel(), SpeakerModel(device_seed=7, ringing_gain=0.3))
_MICS = (MicrophoneModel(), MicrophoneModel.wide_band())


def _injector(seed):
    if seed is None:
        return None
    injector = FaultInjector(_FAULTS, seed=seed)
    injector.enter_stage("probe-tx")
    return injector


def _link_pair(injector_seed=None, **kwargs):
    """Two equal links, each with its own injector (``None`` without a
    seed): one for the kernel, one for the oracle."""
    return tuple(
        AcousticLink(injector=_injector(injector_seed), **kwargs)
        for _ in range(2)
    )


def _drawn_link_pair(data):
    env = get_environment(data.draw(st.sampled_from(["office", "cafe"])))
    return _link_pair(
        injector_seed=data.draw(st.one_of(st.none(), seeds)),
        speaker=data.draw(st.sampled_from(_SPEAKERS)),
        microphone=data.draw(st.sampled_from(_MICS)),
        room=data.draw(st.sampled_from([env.room, None])),
        noise=data.draw(st.sampled_from([env.noise, None])),
        distance_m=data.draw(st.sampled_from([0.3, 1.0, 2.5])),
        los=data.draw(st.booleans()),
        clock_skew_ppm=data.draw(st.sampled_from([0.0, 80.0, -150.0])),
    )


def _transmit(data):
    link, twin = _drawn_link_pair(data)
    n = data.draw(st.integers(1, 2000))
    x = np.random.default_rng(data.draw(seeds)).standard_normal(n)
    tx_spl = data.draw(st.sampled_from([60.0, 75.0, 90.0]))
    g1, g2 = _generators(data)
    out, budget = link.transmit(x, tx_spl, rng=g1)
    assert np.array_equal(out, oracle.transmit(twin, x, tx_spl, g2))
    assert _same_stream(g1, g2)
    assert budget == twin.budget(tx_spl)
    if link.injector is not None:
        assert link.injector.snapshot() == twin.injector.snapshot()


def _record_ambient(data):
    link, twin = _drawn_link_pair(data)
    duration = data.draw(st.sampled_from([1e-5, 0.01, 0.15]))
    g1, g2 = _generators(data)
    out = link.record_ambient(duration, rng=g1)
    assert np.array_equal(out, oracle.record_ambient(twin, duration, g2))
    assert _same_stream(g1, g2)


CASES = {
    "dtw_distance": _dtw_distance,
    "normalized_dtw": _normalized_dtw,
    "welch_psd": _welch_psd,
    "band_profile": _band_profile,
    "similarity": _similarity,
    "multiband_similarity": _multiband_similarity,
    "shaped_noise": _shaped_noise,
    "tone_jammer": _tone_jammer,
    "NoiseScene.sample": _scene_sample,
    "SpeakerModel.play": _play,
    "MicrophoneModel.record": _record,
    "AcousticLink.transmit": _transmit,
    "AcousticLink.record_ambient": _record_ambient,
}


@pytest.mark.parametrize("kernel", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_row_call_matches_oracle(kernel, data):
    CASES[kernel](data)


def _mixed_batch():
    """One batch with every channel feature: room and no room, LOS and
    NLOS, clock skew, armed injectors, two speaker and two microphone
    fingerprints, two noise scenes and none, shared and own waveforms
    of different lengths (so widths differ)."""
    office, cafe = get_environment("office"), get_environment("cafe")
    rng = np.random.default_rng(0)
    shared_a = 0.1 * rng.standard_normal(1500)
    shared_b = 0.1 * rng.standard_normal(1500)
    s0, s1 = _SPEAKERS
    m0, m1 = _MICS
    rows = [
        # (link kwargs, injector seed, waveform)
        (dict(room=office.room, noise=office.noise, speaker=s0,
              microphone=m0, distance_m=0.3), None, shared_a),
        (dict(room=office.room, noise=office.noise, speaker=s0,
              microphone=m0, distance_m=0.8, los=False), None, shared_a),
        (dict(room=cafe.room, noise=cafe.noise, speaker=s0, microphone=m0,
              distance_m=1.0), 11, 0.1 * rng.standard_normal(1500)),
        (dict(room=None, noise=office.noise, speaker=s1, microphone=m1,
              los=False), 12, shared_b),
        (dict(room=None, noise=None, speaker=s1, microphone=m0,
              clock_skew_ppm=120.0), None, shared_b),
        (dict(room=office.room, noise=office.noise, speaker=s0,
              microphone=m1, clock_skew_ppm=-200.0), 13,
         0.1 * rng.standard_normal(900)),
        (dict(room=cafe.room, noise=cafe.noise, speaker=s1, microphone=m1,
              los=False, distance_m=2.0), 14, shared_a),
        (dict(room=None, noise=None, speaker=s0, microphone=m0, los=False),
         15, 0.1 * rng.standard_normal(2000)),
    ]
    pairs = [_link_pair(seed, **kwargs) for kwargs, seed, _ in rows]
    return pairs, [wave for _, _, wave in rows]


def test_transmit_rows_match_oracle_row_by_row():
    """Row ``i`` of ``transmit_rows`` is the oracle ``transmit`` of row
    ``i``'s link, level, generator and injector, bit for bit, and
    leaves both streams where the oracle does."""
    pairs, waves = _mixed_batch()
    spls = [70.0 + 3.0 * i for i in range(len(waves))]
    gens = [np.random.default_rng(100 + i) for i in range(len(waves))]
    mirrors = [np.random.default_rng(100 + i) for i in range(len(waves))]
    rows = AcousticLink.transmit_rows(
        [link for link, _ in pairs], waves, spls, gens
    )
    widths, fired = set(), set()
    for i, (link, twin) in enumerate(pairs):
        want = oracle.transmit(twin, waves[i], spls[i], mirrors[i])
        assert np.array_equal(rows[i], want)
        assert _same_stream(gens[i], mirrors[i])
        if link.injector is not None:
            assert link.injector.snapshot() == twin.injector.snapshot()
            fired.update(event.kind for event in link.injector.events)
        widths.add(rows[i].size)
    assert fired == {"snr_collapse", "burst_noise"}
    assert len(widths) > 2


@pytest.mark.parametrize("values", (True, False))
def test_record_ambient_rows_match_oracle_row_by_row(values):
    """``values=False`` advances every stream exactly as a capture."""
    pairs, _ = _mixed_batch()
    gens = [np.random.default_rng(200 + i) for i in range(len(pairs))]
    mirrors = [np.random.default_rng(200 + i) for i in range(len(pairs))]
    rows = AcousticLink.record_ambient_rows(
        [link for link, _ in pairs], 0.05, gens, values=values
    )
    for i, (_, twin) in enumerate(pairs):
        want = oracle.record_ambient(twin, 0.05, mirrors[i])
        if values:
            assert np.array_equal(rows[i], want)
        assert _same_stream(gens[i], mirrors[i])


def test_transmit_rows_rejects_bad_rows():
    link = AcousticLink()
    gen = np.random.default_rng(0)
    with pytest.raises(ChannelError):
        AcousticLink.transmit_rows([link], [np.ones(8)], [70.0], [])
    with pytest.raises(ChannelError):
        AcousticLink.transmit_rows([link], [np.zeros(8)], [70.0], [gen])
    with pytest.raises(ChannelError):
        AcousticLink.transmit_rows([link], [np.ones((2, 8))], [70.0], [gen])
