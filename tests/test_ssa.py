import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdecomp import bench
from sigdecomp.core import ContractViolation, Signal, l2_norm
from sigdecomp.metrics import match_components
from sigdecomp.ssa import (
    SsaConfig,
    _window_weights,
    diagonal_average_rank1,
    embed,
    ssa_decompose,
)
from sigdecomp.synth import add_wgn, gen_s1

# mode count and total QRF (dB) of the bench recipes, from the former
# per-window trajectory SVD; noise seed 0
RECIPE_FIGURES = {
    ("s1", None): (3, 56.335163),
    ("s1", 12.0): (3, 22.696541),
    ("s1", 3.0): (3, 13.391945),
    ("s2", None): (2, 1.823958),
    ("s2", 12.0): (2, 0.466405),
    ("s2", 3.0): (2, -1.776335),
}


def tone(freq_hz, duration_s, fs, amp=1.0):
    t = np.arange(int(duration_s * fs)) / fs
    return Signal(amp * np.sin(2 * np.pi * freq_hz * t), fs)


class TestEmbed:
    def test_small_example(self):
        m = embed(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert m.tolist() == [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]]

    def test_constant_signal_rank_one(self):
        m = embed(np.full(64, 2.0), 8)
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] < 1e-10 * s[0]

    def test_pure_tone_rank_two(self):
        # SVD oracle for the textbook rank-2 property of a sinusoid
        t = np.arange(512) / 256.0
        m = embed(np.sin(2 * np.pi * 10 * t), 50)
        s = np.linalg.svd(m, compute_uv=False)
        assert s[2] / s[0] < 1e-6

    def test_window_too_short(self):
        with pytest.raises(ContractViolation):
            embed(np.arange(5.0), 5)

    @given(seed=st.integers(0, 2**31), L=st.integers(2, 12))
    @settings(max_examples=25, deadline=None)
    def test_hankel_property(self, seed, L):
        gen = np.random.Generator(np.random.Philox(seed))
        x = gen.normal(size=40)
        m = embed(x, L)
        # every anti-diagonal of a Hankel matrix is constant
        for s in range(m.shape[0] + m.shape[1] - 1):
            cells = [m[i, s - i] for i in range(max(0, s - m.shape[1] + 1), min(L, s + 1))]
            assert np.all(np.asarray(cells) == cells[0])


class TestDiagonalAveraging:
    def test_full_set_reproduces_window(self, rng):
        x = rng.normal(size=300)
        traj = embed(x, 40)
        u, s, vt = np.linalg.svd(traj, full_matrices=False)
        singles = np.array([diagonal_average_rank1(s[i], u[:, i], vt[i]) for i in range(s.size)])
        stacked = diagonal_average_rank1(s, u.T, vt)  # every triple in one call
        assert np.allclose(stacked, singles, rtol=0.0, atol=1e-12 * np.max(np.abs(x)))
        for series in (singles, stacked):
            assert np.linalg.norm(series.sum(axis=0) - x) < 1e-9 * np.linalg.norm(x)


class TestWindowWeights:
    def test_partition_of_unity_after_normalization(self):
        # overlap-added normalized weights must sum to one everywhere
        n = 1000
        window_len, hop = 256, 64
        starts = list(range(0, n - window_len + 1, hop))
        if starts[-1] + window_len < n:
            starts.append(n - window_len)
        w = _window_weights(window_len)
        norm = np.zeros(n)
        for s0 in starts:
            norm[s0 : s0 + window_len] += w
        blended = np.zeros(n)
        for s0 in starts:
            blended[s0 : s0 + window_len] += w / norm[s0 : s0 + window_len]
        assert np.allclose(blended, 1.0, atol=1e-12)


class TestDecompose:
    def test_two_tone_classes(self):
        fs = 256.0
        mix = Signal(tone(2, 10, fs).samples + tone(50, 10, fs).samples, fs)
        refs = [tone(2.0, 10.0, fs), tone(50.0, 10.0, fs)]
        d = ssa_decompose(mix, SsaConfig(L=110, K=2))
        report = match_components(list(d.modes), refs)
        assert min(report.per_mode_qrf_db) >= 20.0

    def test_exact_split_between_modes_and_residual(self):
        fs = 256.0
        mix = Signal(tone(2, 10, fs).samples + tone(50, 10, fs).samples, fs)
        d = ssa_decompose(mix, SsaConfig(L=110, K=2))
        recon = d.reconstruction_error(mix)
        assert recon < 1e-9 * l2_norm(mix)

    def test_s1_class3_recovered_best_at_recipe(self):
        x, refs = gen_s1()
        d = ssa_decompose(x, SsaConfig(L=110, K=3, window_len=880, hop=220))
        report = match_components(list(d.modes), refs)
        per = [report.qrf_for_ref(i) for i in range(3)]
        assert per[2] >= max(per[0], per[1])

    def test_embedding_dimension_instability_at_defaults(self):
        x, refs = gen_s1()
        totals = {}
        for L in (104, 110, 116):
            d = ssa_decompose(x, SsaConfig(L=L, K=3))
            totals[L] = match_components(list(d.modes), refs).total_qrf_db
        assert max(totals.values()) - min(totals.values()) > 3.0

    @pytest.mark.parametrize("signal, snr", list(RECIPE_FIGURES))
    def test_recipe_figures(self, signal, snr):
        x, refs = bench.generate_signal(signal)
        if snr is not None:
            x = add_wgn(x, snr, 0)
        d = bench.decompose("ssa", x, signal, noisy=snr is not None)
        n_modes, total_db = RECIPE_FIGURES[signal, snr]
        assert len(d.modes) == n_modes
        assert bench.match_or_empty(list(d.modes), refs).total_qrf_db == pytest.approx(total_db, abs=1e-6)

    def test_fewer_eigentriples_warns(self):
        s = tone(5.0, 2.0, 64.0)  # a single tone has ~2 meaningful triples
        with pytest.warns(RuntimeWarning):
            ssa_decompose(s, SsaConfig(L=12, K=11, epsilon=1e-3))

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            SsaConfig(L=1)
        with pytest.raises(ContractViolation):
            SsaConfig(epsilon=0.0)
        for bad in ({"hop": 0}, {"hop": -3}, {"window_len": 1}):
            with pytest.raises(ContractViolation):
                SsaConfig(**bad)
        with pytest.raises(ContractViolation):
            ssa_decompose(tone(5.0, 1.0, 64.0), SsaConfig(L=40, window_len=64))
