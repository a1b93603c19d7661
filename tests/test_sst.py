import tracemalloc

import numpy as np
import pytest

from sigdecomp import bench, sst
from sigdecomp._kernels import walk_ridge
from sigdecomp.core import ContractViolation, NumericalFailure, Signal, add
from sigdecomp.metrics import match_components, qrf
from sigdecomp.sst import (
    RIDGE_FADE_REL,
    RIDGE_PATIENCE_FRAMES,
    RidgeTrack,
    SstConfig,
    cwt_morlet,
    extract_ridges,
    reconstruct_mode,
    sst_decompose,
    synchrosqueeze,
)
from sigdecomp.synth import add_wgn, gen_s1, gen_s2

# mode count and total QRF (dB) of the bench recipes, from the former
# per-frame band loop and np.add.at squeeze; noise seed 0
RECIPE_FIGURES = {
    ("s1", None): (4, 30.996984),
    ("s1", 12.0): (4, 35.805085),
    ("s1", 3.0): (4, 3.054223),
    ("s2", None): (2, 14.956903),
    ("s2", 12.0): (2, 12.299192),
    ("s2", 3.0): (2, 8.727351),
}


def tone(freq_hz, duration_s, fs, amp=1.0):
    t = np.arange(int(duration_s * fs)) / fs
    return Signal(amp * np.cos(2 * np.pi * freq_hz * t), fs)


@pytest.fixture(scope="module")
def tone50():
    return tone(50.0, 2.0, 512.0)


@pytest.fixture(scope="module")
def squeezed50(tone50):
    cfg = SstConfig(K=1)
    W, freqs = cwt_morlet(tone50, cfg)
    return W, freqs, synchrosqueeze(W, freqs, tone50, cfg)


class TestCwt:
    def test_tone_peak_scale(self, tone50, squeezed50):
        W, freqs, _ = squeezed50
        interior = slice(256, -256)
        row = np.argmax(np.abs(W[:, interior]).sum(axis=1))
        voice_step = 2 ** (1 / (2 * SstConfig().n_voices))
        assert freqs[row] / 50.0 < voice_step and 50.0 / freqs[row] < voice_step

    def test_zero_signal(self):
        z = Signal(np.zeros(256), 256.0)
        W, _ = cwt_morlet(z, SstConfig())
        assert np.all(W == 0)

    def test_linearity(self):
        a = tone(20.0, 1.0, 512.0)
        b = tone(100.0, 1.0, 512.0)
        cfg = SstConfig()
        Wa, _ = cwt_morlet(a, cfg)
        Wb, _ = cwt_morlet(b, cfg)
        Wab, _ = cwt_morlet(add(a, b), cfg)
        ref = np.max(np.abs(Wa + Wb))
        assert np.max(np.abs(Wab - (Wa + Wb))) < 1e-9 * ref

    @pytest.mark.parametrize("w0", [0.0, -6.0, np.nan, np.inf])
    def test_config_validation(self, w0):
        with pytest.raises(ContractViolation, match="morlet_w0"):
            SstConfig(morlet_w0=w0)

    @pytest.mark.parametrize("ridge", [{"start_band": 0}, {"max_step": 0}, {"max_step": -3}])
    def test_ridge_fields_validated(self, ridge):
        (field,) = ridge
        with pytest.raises(ContractViolation, match=f"{field} must be >= 1"):
            SstConfig(**ridge)


class TestSynchrosqueeze:
    def test_tone_energy_concentration(self, squeezed50):
        _, freqs, S = squeezed50
        energy = S.energy()
        idx = np.argmin(np.abs(S.freqs_hz - 50.0))
        interior = slice(100, -100)
        near = energy[max(idx - 1, 0) : idx + 2, interior].sum()
        assert near / energy[:, interior].sum() >= 0.80

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("amp, message", [(5e153, "squeezed energy"), (1e155, "wavelet energy")])
    def test_overflowing_energy_is_numerical_failure(self, amp, message):
        # the squeezed energy overflows first; from 1.34e154 on, |W|^2 and
        # with it the squeeze's phase products can overflow too
        x, cfg = tone(30.0, 2.0, 256.0, amp=amp), SstConfig(K=1)
        with pytest.raises(NumericalFailure, match=message):
            extract_ridges(synchrosqueeze(*cwt_morlet(x, cfg), x, cfg), cfg, cfg.K)
        # the decomposition runs at unit peak: the amplitude-1 modes, scaled
        d, base = sst_decompose(x, cfg), sst_decompose(tone(30.0, 2.0, 256.0), cfg)
        assert d.n_modes == base.n_modes == 1
        assert np.max(np.abs(d.modes[0].samples - amp * base.modes[0].samples)) <= 1e-12 * amp
        assert np.array_equal(d.if_tracks_hz[0], base.if_tracks_hz[0])

    def test_thresholded_cells_contribute_nothing(self, tone50):
        cfg = SstConfig(K=1, gamma=0.5)  # very aggressive threshold
        W, freqs = cwt_morlet(tone50, cfg)
        S = synchrosqueeze(W, freqs, tone50, cfg)
        kept = np.abs(W) > S.gamma_abs
        # squeezed mass cannot exceed the mass of retained cells
        assert np.abs(S.values).sum() <= np.abs(W[kept]).sum() + 1e-9

    def test_energy_conservation_within_one_percent(self, squeezed50):
        W, _, S = squeezed50
        kept = np.abs(W) > S.gamma_abs
        mass_in = np.abs(W[kept]).sum()
        mass_out = np.abs(S.values).sum() + S.dropped_mass
        assert mass_out == pytest.approx(mass_in, rel=0.01)

    def test_two_tones_disjoint_ridges(self):
        fs = 512.0
        mix = add(tone(20.0, 2.0, fs), tone(100.0, 2.0, fs))
        cfg = SstConfig(K=2)
        W, freqs = cwt_morlet(mix, cfg)
        S = synchrosqueeze(W, freqs, mix, cfg)
        energy = S.energy()
        idx20 = np.argmin(np.abs(freqs - 20.0))
        idx100 = np.argmin(np.abs(freqs - 100.0))
        interior = slice(100, -100)
        near = 0.0
        for idx in (idx20, idx100):
            near += energy[idx - 2 : idx + 3, interior].sum()
        assert near / energy[:, interior].sum() >= 0.9


class TestRidges:
    def test_single_tone_flat_track(self, squeezed50):
        _, freqs, S = squeezed50
        tracks = extract_ridges(S, SstConfig(start_band=15, max_step=15), 1)
        tr = tracks[0]
        idx = np.argmin(np.abs(freqs - 50.0))
        interior = slice(100, -100)
        assert np.all(np.abs(tr.bins[interior] - idx) <= 1)

    def test_step_constraint_holds(self, squeezed50):
        _, _, S = squeezed50
        for max_step in (3, 15):
            tr = extract_ridges(S, SstConfig(start_band=15, max_step=max_step), 1)[0]
            assert np.max(np.abs(np.diff(tr.bins))) <= max_step

    def test_exhaustion_returns_fewer(self, squeezed50):
        _, _, S = squeezed50
        tracks = extract_ridges(S, SstConfig(start_band=30, max_step=15), 40)  # the suite errors on any RuntimeWarning
        assert len(tracks) < 40

    def test_reconstruct_tone(self, tone50, squeezed50):
        _, _, S = squeezed50
        tr = extract_ridges(S, SstConfig(start_band=15, max_step=15), 1)[0]
        rec = reconstruct_mode(S, tr, 15)
        assert qrf(rec, tone50) >= 25.0

    def test_modes_keep_the_input_sample_rate(self):
        # 49 Hz is a rate that 1 / (t[1] - t[0]) does not give back exactly
        x = add(tone(3.0, 4.0, 49.0), tone(12.0, 4.0, 49.0))
        d = sst_decompose(x, SstConfig(K=2))
        assert len(d.modes) == 2
        assert all(m.sample_rate_hz == 49.0 for m in d.modes)

    @pytest.mark.parametrize("huge", [10**7, 10**400], ids=["1e7", "1e400"])
    def test_band_past_the_grid_is_the_whole_grid(self, huge):
        """A band wider than the grid's rows covers just those rows: the same
        bytes as a band of that width, and no huge offset array."""
        x = add(tone(20.0, 0.5, 512.0), tone(90.0, 0.5, 512.0))  # 256 samples
        rows = sst._scale_frequencies_hz(x, SstConfig()).size
        want, got = (sst_decompose(x, SstConfig(K=2, start_band=band)) for band in (rows, huge))
        arrays = [(*(m.samples for m in d.modes), d.residual.samples, *d.if_tracks_hz) for d in (got, want)]
        assert [a.tobytes() for a in arrays[0]] == [a.tobytes() for a in arrays[1]]

    def test_all_invalid_track_gives_zero(self, squeezed50):
        _, _, S = squeezed50
        n_t = S.values.shape[1]
        track = RidgeTrack(bins=np.zeros(n_t, dtype=np.int64), valid=np.zeros(n_t, dtype=bool))
        rec = reconstruct_mode(S, track, 10)
        assert np.all(rec.samples == 0)

    @pytest.mark.parametrize("n_frames", [1000, 1100])
    def test_track_length_must_match_the_grid(self, squeezed50, n_frames):
        _, _, S = squeezed50
        assert S.values.shape[1] == 1024
        track = RidgeTrack(bins=np.full(n_frames, 40), valid=np.ones(n_frames, dtype=bool))
        with pytest.raises(ContractViolation):
            reconstruct_mode(S, track, 10)

    @pytest.mark.parametrize("signal, snr", list(RECIPE_FIGURES))
    def test_recipe_figures(self, signal, snr):
        x, refs = bench.generate_signal(signal)
        if snr is not None:
            x = add_wgn(x, snr, 0)
        d = bench.decompose("sst", x, bench.effective_config("sst", signal, noisy=snr is not None))
        n_modes, total_db = RECIPE_FIGURES[signal, snr]
        assert len(d.modes) == n_modes
        assert bench.match_or_empty(list(d.modes), refs).total_qrf_db == pytest.approx(total_db, abs=1e-6)


def reference_squeeze(W, freqs_hz, x, cfg):
    """The squeeze with a full-grid bin array and an ``np.add.at`` scatter;
    returns (values, dropped_mass)."""
    n_bins = W.shape[0]
    gamma_abs = cfg.gamma * float(np.abs(W).max(initial=0.0))
    omega = np.empty(W.shape)
    step = np.angle(W[:, 1:] * np.conj(W[:, :-1])) * (x.sample_rate_hz / (2.0 * np.pi))
    omega[:, :-1] = step
    omega[:, -1] = step[:, -1]
    keep = np.abs(W) > gamma_abs
    log_step = np.log(2.0) / cfg.n_voices
    values = np.zeros_like(W)
    positive = keep & (omega > 0.0)
    bins = np.full(W.shape, -1, dtype=np.int64)
    bins[positive] = np.rint(np.log(omega[positive] / freqs_hz[0]) / log_step).astype(np.int64)
    in_range = positive & (bins >= 0) & (bins < n_bins)
    rows, cols = np.nonzero(in_range)
    np.add.at(values, (bins[rows, cols], cols), W[rows, cols])
    return values, float(np.abs(W[keep & ~in_range]).sum())


def reference_mode(S, track, half_width):
    """Mode reconstruction with the band summed frame by frame, in a loop."""
    n_bins, n_t = S.values.shape
    band_sum = np.zeros(n_t, dtype=complex)
    for t in np.flatnonzero(track.valid):
        lo = max(int(track.bins[t]) - half_width, 0)
        band_sum[t] = S.values[lo : int(track.bins[t]) + half_width + 1, t].sum()
    return (S.log_step / S.admissibility) * band_sum.real


def reference_cwt(x, freqs_hz, cfg):
    """The CWT as one inverse FFT of the whole window stack."""
    n = len(x)
    n_pos = (n + 1) // 2
    xi = 2.0 * np.pi * np.fft.fftfreq(n, 1.0 / x.sample_rate_hz)[:n_pos]
    spectrum = np.fft.fft(x.samples)[:n_pos]
    arg = (cfg.morlet_w0 / (2.0 * np.pi * freqs_hz))[:, None] * xi[None, :]
    window = np.where(arg > 0.0, np.pi**-0.25 * np.exp(-0.5 * (arg - cfg.morlet_w0) ** 2), 0.0)
    return np.fft.ifft(spectrum[None, :] * np.conj(window), n=n, axis=1)


def block_case(case, tone50):
    if case.startswith("tone50"):
        return tone50, SstConfig(K=1, gamma=0.5) if case.endswith("0.5") else SstConfig(K=1)
    x, _ = gen_s1() if case == "s1" else gen_s2()
    return (add_wgn(x, 3.0, 0) if case.endswith("3dB") else x), SstConfig(K=2, n_voices=64)


def set_block_rows(monkeypatch, edge, n_rows, n_t):
    """Set the rows per block so the grid's last block falls at ``edge``;
    returns the block count."""
    if edge == "default":
        return len(sst._row_blocks(n_rows, n_t))
    if edge == "one partial block":  # fewer rows than one block
        rows = n_rows + 1
    else:  # a multiple of the block, or a multiple plus one row
        whole = n_rows if edge == "multiple" else n_rows - 1
        rows = next(d for d in range(32, 0, -1) if whole % d == 0)
    monkeypatch.setattr(sst, "_BLOCK_CELLS", rows * n_t)
    blocks = sst._row_blocks(n_rows, n_t)
    assert sum(b.stop - b.start for b in blocks) == n_rows
    assert blocks[-1].stop - blocks[-1].start == {"one partial block": n_rows, "multiple": rows}.get(edge, 1)
    return len(blocks)


BLOCK_EDGES = ["one partial block", "multiple", "multiple plus one"]


class TestWholeArrayForms:
    @pytest.mark.parametrize(
        "case",
        ["s1", "s2", "s2@3dB", "tone50@gamma0.5"]
        + [f"{signal}/{edge}" for signal in ("tone50", "s1", "s2@3dB") for edge in BLOCK_EDGES],
    )
    def test_squeeze_matches_add_at_scatter(self, case, tone50, monkeypatch):
        signal, _, edge = case.partition("/")
        x, cfg = block_case(signal, tone50)
        n_rows = sst._scale_frequencies_hz(x, cfg).size
        n_blocks = set_block_rows(monkeypatch, edge or "default", n_rows, len(x))
        if case == "tone50/multiple plus one":
            assert (n_rows, n_blocks) == (257, 9)  # 8 blocks of 32 rows, then one row
        W, freqs = cwt_morlet(x, cfg)
        S = synchrosqueeze(W, freqs, x, cfg)
        values, dropped = reference_squeeze(W, freqs, x, cfg)
        assert np.array_equal(S.values, values)
        assert S.dropped_mass == dropped

    @pytest.mark.parametrize("edge", ["default"] + BLOCK_EDGES)
    @pytest.mark.parametrize("case", ["s1", "s2", "tone50"])
    def test_cwt_matches_one_shot_ifft(self, case, edge, tone50, monkeypatch):
        x, cfg = block_case(case, tone50)
        set_block_rows(monkeypatch, edge, sst._scale_frequencies_hz(x, cfg).size, len(x))
        W, freqs = cwt_morlet(x, cfg)
        assert np.array_equal(W, reference_cwt(x, freqs, cfg))

    @pytest.mark.parametrize("half_width", [4, 15])
    def test_modes_match_per_frame_loop(self, half_width):
        x, _ = gen_s1()
        cfg = SstConfig(K=4, n_voices=64, start_band=15, max_step=8)
        S = synchrosqueeze(*cwt_morlet(x, cfg), x, cfg)
        n_bins, n_t = S.values.shape
        tracks = extract_ridges(S, cfg, cfg.K)
        live = np.arange(n_t) % 7 != 3  # some invalid frames
        tracks += [
            RidgeTrack(bins=np.full(n_t, edge), valid=live) for edge in (0, 1, n_bins - 2, n_bins - 1)
        ]
        for track in tracks:
            want = reference_mode(S, track, half_width)
            got = reconstruct_mode(S, track, half_width).samples
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def traced_peak(fn, *args):
    """tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """The CWT and the squeeze work in blocks of scale rows, so a decompose
    holds about the CWT and the squeezed grid, not several grids more."""

    @pytest.fixture(scope="class")
    def s1_recipe(self):
        x, _ = gen_s1()
        cfg = bench.default_config("sst", "s1")
        sst_decompose(x, cfg)  # warm-up: caches and FFT plans
        return x, cfg

    def test_s1_peak(self, s1_recipe):
        assert traced_peak(sst_decompose, *s1_recipe) <= 55 * 2**20

    def test_peak_against_the_cwt_at_10240_samples(self, s1_recipe):
        x, cfg = s1_recipe
        long = Signal(np.tile(x.samples, 4), x.sample_rate_hz)
        cwt_bytes = sst._scale_frequencies_hz(long, cfg).size * len(long) * np.dtype(complex).itemsize
        assert traced_peak(sst_decompose, long, cfg) <= 2.5 * cwt_bytes


def reference_ridges(S, cfg, K):
    """Ridge extraction with the band suppressed frame by frame, in a loop."""
    energy = S.energy()
    floor0 = S.gamma_abs * S.gamma_abs
    n_bins, n_t = energy.shape
    tracks = []
    for _ in range(K):
        seed_f, seed_t = divmod(int(np.argmax(energy)), n_t)
        if energy[seed_f, seed_t] <= floor0:
            break
        floor = max(floor0, RIDGE_FADE_REL * energy[seed_f, seed_t])
        bins, valid = walk_ridge(energy, seed_f, seed_t, cfg.max_step, floor, RIDGE_PATIENCE_FRAMES)
        tracks.append((bins, valid))
        for t in np.flatnonzero(valid):
            lo = max(int(bins[t]) - cfg.start_band, 0)
            energy[lo : int(bins[t]) + cfg.start_band + 1, t] = 0.0
    return tracks


class TestRidgeSuppression:
    @pytest.mark.parametrize("rcfg", [{}, {"start_band": 4, "max_step": 3}])  # SstConfig's ridge fields
    @pytest.mark.parametrize("signal", ["s1", "s2"])
    def test_matches_per_frame_loop(self, signal, rcfg):
        x, _ = gen_s1() if signal == "s1" else gen_s2()
        cfg = SstConfig(K=4, **rcfg)
        S = synchrosqueeze(*cwt_morlet(x, cfg), x, cfg)
        tracks = extract_ridges(S, cfg, cfg.K)
        want = reference_ridges(S, cfg, cfg.K)
        assert len(tracks) == len(want)
        for track, (bins, valid) in zip(tracks, want):
            assert np.array_equal(track.bins, bins)
            assert np.array_equal(track.valid, valid)


class TestGapBehavior:
    def test_k3_third_track_fails_across_gap(self):
        x, refs = gen_s1()
        d = sst_decompose(x, SstConfig(K=3, n_voices=64, start_band=15, max_step=8))
        report = match_components(list(d.modes), refs)
        c3 = report.qrf_for_ref(2)
        c1 = report.qrf_for_ref(0)
        assert c3 < c1  # the gapped component comes out clearly worse

    def test_k4_fourth_ridge_recovers_missing_part(self):
        x, refs = gen_s1()
        cfg = SstConfig(K=4, n_voices=64)
        W, freqs = cwt_morlet(x, cfg)
        S = synchrosqueeze(W, freqs, x, cfg)
        tracks = extract_ridges(S, SstConfig(start_band=15, max_step=8), 4)
        recs = [reconstruct_mode(S, tr, 15) for tr in tracks]
        d3 = sst_decompose(x, SstConfig(K=3, n_voices=64, start_band=15, max_step=8))
        single = match_components(list(d3.modes), refs).qrf_for_ref(2)
        best_union = max(
            qrf(add(recs[i], recs[j]), refs[2])
            for i in range(len(recs))
            for j in range(i + 1, len(recs))
        )
        assert best_union >= single + 5.0


class TestWideBand:
    def test_s2_componentwise_beats_emd_and_vmd(self):
        from sigdecomp.emd import emd_decompose
        from sigdecomp.variational import VmdConfig, vmd_decompose

        x, refs = gen_s2()
        sst_rep = match_components(
            list(sst_decompose(x, SstConfig(K=2, n_voices=64, start_band=15, max_step=15)).modes), refs
        )
        emd_rep = match_components(list(emd_decompose(x).modes), refs)
        vmd_rep = match_components(list(vmd_decompose(x, VmdConfig(K=2, alpha=500, tau=0.5))[0].modes), refs)
        for r in range(2):
            assert sst_rep.qrf_for_ref(r) > emd_rep.qrf_for_ref(r)
            assert sst_rep.qrf_for_ref(r) > vmd_rep.qrf_for_ref(r)

    def test_band_parameter_stability_on_clean_s2(self):
        x, refs = gen_s2()
        totals = []
        for band in (5, 15, 30):
            d = sst_decompose(x, SstConfig(K=2, n_voices=64, start_band=band, max_step=15))
            totals.append(match_components(list(d.modes), refs).total_qrf_db)
        for band in (5, 15, 30):
            d = sst_decompose(x, SstConfig(K=2, n_voices=64, start_band=15, max_step=band))
            totals.append(match_components(list(d.modes), refs).total_qrf_db)
        assert max(totals) - min(totals) < 3.0
