import numpy as np
import pytest

from sigdecomp.core import ContractViolation, Decomposition, Signal, scale
from sigdecomp.spectral import TFGrid, analytic_signal, hilbert_spectrum, ia_if
from sigdecomp.synth import gen_s1, s1_if_laws


def tone(freq_hz, duration_s, fs, phase=0.0):
    t = np.arange(int(duration_s * fs)) / fs
    return Signal(np.cos(2 * np.pi * freq_hz * t + phase), fs)


class TestAnalyticSignal:
    def test_cos_becomes_complex_exponential(self):
        s = tone(10.0, 1.0, 256.0)
        z = analytic_signal(s)
        t = s.times()
        expected = np.exp(1j * 2 * np.pi * 10.0 * t)
        interior = slice(16, -16)
        assert np.max(np.abs(z[interior] - expected[interior])) < 0.02
        assert np.allclose(np.abs(z[interior]), 1.0, atol=0.01)

    def test_sin_magnitude_one(self):
        t = np.arange(256) / 256
        s = Signal(np.sin(2 * np.pi * 10 * t), 256.0)
        z = analytic_signal(s)
        assert np.allclose(np.abs(z[16:-16]), 1.0, atol=0.01)

    def test_real_part_equals_input(self):
        gen = np.random.Generator(np.random.Philox(0))
        x = Signal(gen.normal(size=200), 100.0)
        z = analytic_signal(x)
        # direct check: construction must leave the real part untouched
        assert np.max(np.abs(z.real - x.samples)) < 1e-9 * np.max(np.abs(x.samples))

    def test_linearity(self):
        a = tone(10.0, 1.0, 128.0)
        b = tone(30.0, 1.0, 128.0)
        lhs = analytic_signal(Signal(a.samples + b.samples, 128.0))
        rhs = analytic_signal(a) + analytic_signal(b)
        scale_ref = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale_ref

    def test_energy_relation_on_tone(self):
        # analytic energy doubles the real energy up to DC/Nyquist terms
        s = tone(16.0, 1.0, 128.0)
        z = analytic_signal(s)
        real_energy = float(np.sum(s.samples**2))
        assert float(np.sum(np.abs(z) ** 2)) == pytest.approx(2 * real_energy, rel=0.01)

    def test_too_short_rejected(self):
        with pytest.raises(ContractViolation):
            analytic_signal(Signal(np.array([1.0, 2.0, 1.0]), 4.0))


class TestInstantaneousTracks:
    def test_unit_tone(self):
        s = tone(10.0, 2.0, 256.0)
        m = ia_if(s)
        n = len(s)
        interior = slice(n // 20, -n // 20)
        assert np.allclose(m.ia_track[interior], 1.0, rtol=0.01)
        assert np.allclose(m.if_track_hz[interior], 10.0, rtol=0.01)

    def test_linear_chirp(self):
        fs = 256.0
        t = np.arange(int(2 * fs)) / fs
        s = Signal(np.cos(2 * np.pi * (5 * t + 10 * t**2)), fs)
        m = ia_if(s)
        expected = 5 + 20 * t
        interior = slice(26, -26)
        assert np.allclose(m.if_track_hz[interior], expected[interior], rtol=0.02)

    def test_dc_only(self):
        s = Signal(np.full(64, 2.5), 16.0)
        m = ia_if(s)
        assert np.allclose(m.ia_track, 2.5, rtol=1e-6)
        assert np.max(np.abs(m.if_track_hz)) < 1e-6

    def test_phase_offset_invariance(self):
        base = ia_if(tone(20.0, 1.0, 256.0, phase=0.0)).if_track_hz
        for phi in (0.5, 1.5, 3.0):
            shifted = ia_if(tone(20.0, 1.0, 256.0, phase=phi)).if_track_hz
            interior = slice(13, -13)
            assert np.allclose(shifted[interior], base[interior], rtol=0.01)


class TestHilbertSpectrum:
    def test_single_tone_energy_in_right_bin(self):
        s = tone(50.0, 1.0, 512.0)
        d = Decomposition(modes=(s,), residual=scale(s, 0.0))
        grid = hilbert_spectrum(d, 128, 128.0)
        idx50 = np.argmin(np.abs(grid.freqs_hz - 50.0))
        interior = slice(26, -26)
        band = grid.energy[idx50 - 1 : idx50 + 2, interior].sum()
        assert band / grid.energy[:, interior].sum() > 0.99

    def test_empty_decomposition(self):
        s = tone(5.0, 1.0, 64.0)
        d = Decomposition(modes=(), residual=s)
        grid = hilbert_spectrum(d, 16, 32.0)
        assert grid.total_energy == 0.0

    def test_s1_reference_ridges_match_if_laws(self):
        # closed-form IF laws from the generator act as the oracle
        _, refs = gen_s1(None)
        d = Decomposition(modes=tuple(refs), residual=scale(refs[0], 0.0))
        n_bins = 256
        grid = hilbert_spectrum(d, n_bins, 128.0)
        t = refs[0].times()
        laws = s1_if_laws(t)
        bin_width = 128.0 / (n_bins - 1)
        # per frame the three strongest cells must sit within one bin of a law
        interior = range(64, len(t) - 64, 50)
        for j in interior:
            column = grid.energy[:, j]
            top = np.argsort(column)[-3:]
            ridge_freqs = np.sort(grid.freqs_hz[top])
            expected = np.sort([law[j] for law in laws])
            assert np.all(np.abs(ridge_freqs - expected) <= bin_width + 1e-9)

    def test_dropped_energy_accounting(self):
        s = tone(50.0, 1.0, 512.0)
        d = Decomposition(modes=(s,), residual=scale(s, 0.0))
        grid = hilbert_spectrum(d, 64, 30.0)  # 50 Hz falls outside the grid
        model = ia_if(s)
        total = float(np.sum(model.ia_track**2))
        assert grid.total_energy + grid.dropped_energy == pytest.approx(total, rel=1e-9)

    @pytest.mark.parametrize("fmax_hz", [0.0, -5.0, float("nan")])
    def test_fmax_must_be_positive_and_finite(self, fmax_hz):
        s = tone(5.0, 1.0, 64.0)
        d = Decomposition(modes=(s,), residual=scale(s, 0.0))
        with pytest.raises(ContractViolation, match="fmax_hz"):
            hilbert_spectrum(d, 16, fmax_hz)

    def test_grid_validation(self):
        with pytest.raises(ContractViolation):
            TFGrid(times_s=np.arange(3.0), freqs_hz=np.arange(4.0), energy=np.zeros((3, 4)))
        with pytest.raises(ContractViolation):
            TFGrid(times_s=np.arange(3.0), freqs_hz=np.arange(4.0), energy=-np.ones((4, 3)))
