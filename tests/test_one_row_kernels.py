"""Each scalar channel, sensing and modem call against its 1-D oracle.

The sixteen scalar entry points below are one-row calls of their
stacked kernels; their old 1-D bodies live in ``tests/kernel_oracle.py``
(channel synthesis, acoustic link, sensing) and ``tests/modem_oracle.py``
(transmitter, preamble detection, block FFT).  One hypothesis property
per kernel draws lengths, parameters and seeds and checks that the
one-row call equals the oracle bit for bit and leaves its generator at
the oracle's stream position.  The draws include empty and length-1
inputs, signals shorter than one Welch segment, DTW pairs of unequal
length, multi-band pairs too short to fingerprint or silent, speakers
with stages switched off, the wide-band microphone, and recordings too
short, silent, not 1-D or below the detection threshold.  The acoustic
link's row kernels are checked row by row here too, on one mixed
batch, and so is the modem receive tail (pilot SNR, the three channel
estimators, equalization, FFT interpolation) on random spectra over
random plans; the other many-row calls are compared with the same
oracles in the staging equivalence suites.
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
from repro.config import ModemConfig
from repro.core.colocation import AmbientComparator
from repro.dsp.fftops import fft_interpolate_rows
from repro.dsp.spectrum import welch_psd
from repro.errors import (
    ChannelError,
    DspError,
    ModemError,
    PreambleNotFoundError,
    WearLockError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.modem import CONSTELLATIONS, ChannelPlan
from repro.modem.equalizer import (
    ChannelEstimate,
    equalize_rows,
    estimate_channel_linear_rows,
    estimate_channel_magnitude_rows,
    estimate_channel_rows,
)
from repro.modem.frame import demodulate_block
from repro.modem.preamble import PreambleDetector, build_preamble
from repro.modem.snr import pilot_snr_db_rows, pilot_snr_linear_rows
from repro.modem.transmitter import OfdmTransmitter
from repro.sensors.dtw import dtw_distance, normalized_dtw
from repro.verifiers.multiband import multiband_similarity
from tests import kernel_oracle as oracle
from tests import modem_oracle

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


MODEM = ModemConfig()


def _plan(data, fft_size):
    """A random valid plan: equispaced pilots, data inside their span."""
    half = fft_size // 2
    spacing = data.draw(st.integers(2, 6))
    n_pilots = data.draw(st.integers(2, min(12, (half - 2) // spacing + 1)))
    span = spacing * (n_pilots - 1)
    first = data.draw(st.integers(1, half - 1 - span))
    pilots = tuple(first + spacing * i for i in range(n_pilots))
    candidates = [b for b in range(first, first + span) if b not in pilots]
    chosen = data.draw(
        st.lists(st.sampled_from(candidates), min_size=1, unique=True)
    )
    return ChannelPlan(fft_size, tuple(sorted(chosen)), pilots)


def _modulate(data):
    constellation = CONSTELLATIONS[
        data.draw(st.sampled_from(sorted(CONSTELLATIONS)))
    ]
    plan = data.draw(
        st.sampled_from([None, _plan(data, MODEM.fft_size)])
    )
    hermitian = data.draw(st.booleans())
    n = data.draw(st.integers(1, 400))
    rng = np.random.default_rng(data.draw(seeds))
    bits = rng.integers(0, 2, n).astype(np.uint8)
    tx = OfdmTransmitter(MODEM, constellation, plan=plan, hermitian=hermitian)
    got = tx.modulate(bits)
    want = modem_oracle.reference_modulate(
        MODEM, constellation, bits, plan=plan, hermitian=hermitian
    )
    assert np.array_equal(got.waveform, want.waveform)
    assert np.array_equal(got.padded_bits, want.padded_bits)
    assert got.n_payload_bits == want.n_payload_bits
    assert got.layout == want.layout


def _detect(data):
    threshold = data.draw(st.sampled_from([None, 0.05, 0.5, 0.95]))
    m = MODEM.preamble_length
    rng = np.random.default_rng(data.draw(seeds))
    kind = data.draw(
        st.sampled_from(["frame", "noise", "short", "silent", "2-D"])
    )
    if kind == "frame":
        x = np.concatenate(
            [
                np.zeros(data.draw(st.integers(0, 600))),
                build_preamble(MODEM),
                np.zeros(data.draw(st.integers(0, 600))),
            ]
        )
        x += 10.0 ** data.draw(st.integers(-3, 0)) * rng.standard_normal(
            x.size
        )
    elif kind == "noise":
        x = rng.standard_normal(data.draw(st.integers(m, 3000)))
    elif kind == "short":
        x = rng.standard_normal(data.draw(st.integers(0, m - 1)))
    elif kind == "silent":
        x = np.zeros(data.draw(st.integers(m, 3000)))
    else:
        x = rng.standard_normal((2, data.draw(st.integers(m, 1500))))
    detector = PreambleDetector(MODEM, threshold)
    try:
        want = modem_oracle.detect(MODEM, x, threshold)
    except PreambleNotFoundError as exc:
        with pytest.raises(PreambleNotFoundError) as got:
            detector.detect(x)
        assert got.value.score == exc.score
        if kind != "frame" and kind != "noise":
            assert exc.score == 0.0
        return
    got = detector.detect(x)
    assert (got.start, got.score) == (want.start, want.score)
    assert np.array_equal(got.delay_profile, want.delay_profile)


def _demodulate_block(data):
    n = data.draw(st.integers(0, 2 * MODEM.fft_size))
    x = np.random.default_rng(data.draw(seeds)).standard_normal(n)
    try:
        want = modem_oracle.demodulate_block(MODEM, x)
    except ModemError:
        with pytest.raises(ModemError):
            demodulate_block(MODEM, x)
        return
    assert np.array_equal(demodulate_block(MODEM, x), want)


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
    "OfdmTransmitter.modulate": _modulate,
    "PreambleDetector.detect": _detect,
    "demodulate_block": _demodulate_block,
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


def _row_outcomes(scalar, rows, *args):
    """The oracle's value for each row, or the type of what it raised."""
    out = []
    for row in rows:
        try:
            out.append(scalar(row, *args))
        except (ModemError, DspError) as exc:
            out.append(type(exc))
    return out


def _check_rows(kernel, scalar, stack, *args, same):
    """``kernel(stack, *args)`` row ``i`` equals ``scalar(stack[i],
    *args)``, or both raise one type when any row of the oracle does.
    Returns the kernel's result (``None`` when it raised)."""
    want = _row_outcomes(scalar, stack, *args)
    raised = [w for w in want if isinstance(w, type)]
    if raised:
        with pytest.raises(raised[0]):
            kernel(stack, *args)
        return None
    got = kernel(stack, *args)
    for i, w in enumerate(want):
        assert same(got, i, w), i
    return got


def _same_scalar(got, i, want):
    return got[i] == want


def _same_estimate(got, i, want):
    return got.band_start == want.band_start and np.array_equal(
        got.response[i], want.response
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_modem_tail_rows_match_oracle_row_by_row(data):
    """Row ``i`` of each modem receive-tail kernel equals the oracle's
    scalar on spectrum ``i`` bit for bit, over random plans.  A stack
    with an all-zero-pilot row must raise in both for the FFT and
    magnitude estimators."""
    plan = _plan(data, data.draw(st.sampled_from([64, 128, 256])))
    n_rows = data.draw(st.integers(1, 5))
    width = plan.fft_size + data.draw(st.sampled_from([0, 3]))
    rng = np.random.default_rng(data.draw(seeds))
    scale = 10.0 ** data.draw(st.integers(-4, 3))
    spectra = scale * (
        rng.standard_normal((n_rows, width))
        + 1j * rng.standard_normal((n_rows, width))
    )
    dead = data.draw(st.booleans())
    if dead:
        spectra[data.draw(st.integers(0, n_rows - 1)), list(plan.pilots)] = 0
    nulls = data.draw(st.sampled_from([None, plan.quiet_null_channels()]))

    _check_rows(
        pilot_snr_linear_rows, modem_oracle.pilot_snr_linear,
        spectra, plan, nulls, same=_same_scalar,
    )
    _check_rows(
        pilot_snr_db_rows, modem_oracle.pilot_snr_db,
        spectra, plan, nulls, same=_same_scalar,
    )
    for kernel, scalar in (
        (estimate_channel_rows, modem_oracle.estimate_channel),
        (estimate_channel_magnitude_rows,
         modem_oracle.estimate_channel_magnitude),
        (estimate_channel_linear_rows, modem_oracle.estimate_channel_linear),
    ):
        estimate = _check_rows(
            kernel, scalar, spectra, plan, same=_same_estimate
        )
        if dead and scalar is not modem_oracle.estimate_channel_linear:
            assert estimate is None
            continue
        equalized = equalize_rows(spectra, plan, estimate)
        for i in range(n_rows):
            row = modem_oracle.equalize(
                spectra[i], plan,
                ChannelEstimate(estimate.band_start, estimate.response[i]),
            )
            assert np.array_equal(
                equalized[i], [row[k] for k in sorted(plan.data)]
            )

    m = data.draw(st.integers(1, 20))
    factor = data.draw(st.integers(1, 6))
    _check_rows(
        fft_interpolate_rows, modem_oracle.fft_interpolate,
        spectra[:, :m], factor,
        same=lambda got, i, want: np.array_equal(got[i], want),
    )
