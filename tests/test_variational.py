import numpy as np
import pytest

from sigdecomp.core import ContractViolation, Diverged, Signal, l2_norm
from sigdecomp.metrics import match_components, qrf
from sigdecomp.synth import gen_s1
from sigdecomp.variational import (
    VmdConfig,
    VncmdConfig,
    vmd_decompose,
    vncmd_decompose,
)


def tone(freq_hz, duration_s, fs, amp=1.0):
    t = np.arange(int(duration_s * fs)) / fs
    return Signal(amp * np.cos(2 * np.pi * freq_hz * t), fs)


class TestVmd:
    def test_single_tone_fixed_point(self):
        s = tone(50.0, 1.0, 512.0)
        d, report = vmd_decompose(s, VmdConfig(K=1, alpha=500.0, tau=0.5, init_mode="zeros"))
        grid_bin = s.sample_rate_hz / (2 * len(s))  # mirrored-length frequency bin
        assert abs(d.center_freqs_hz[0] - 50.0) <= 2 * grid_bin
        assert qrf(d.modes[0], s) >= 40.0
        assert report.converged

    def test_two_tone_centers_and_quality(self):
        fs = 512.0
        mix = Signal(tone(10, 1, fs).samples + tone(60, 1, fs).samples, fs)
        refs = [tone(10.0, 1.0, fs), tone(60.0, 1.0, fs)]

        # oracle: spectral masking around each peak already reaches 30 dB,
        # so demanding it of the solver is fair
        spectrum = np.fft.rfft(mix.samples)
        freqs = np.fft.rfftfreq(len(mix), 1 / fs)
        for f0, ref in ((10.0, refs[0]), (60.0, refs[1])):
            masked = np.where(np.abs(freqs - f0) <= 3.0, spectrum, 0.0)
            oracle_mode = Signal(np.fft.irfft(masked, len(mix)), fs)
            assert qrf(oracle_mode, ref) >= 30.0

        d, _ = vmd_decompose(mix, VmdConfig(K=2, alpha=500.0, tau=0.5))
        assert abs(d.center_freqs_hz[0] - 10.0) <= 1.0
        assert abs(d.center_freqs_hz[1] - 60.0) <= 1.0
        report = match_components(list(d.modes), refs)
        assert min(report.per_mode_qrf_db) >= 30.0

    @pytest.mark.parametrize("n", [511, 513])
    def test_odd_sample_count(self, n):
        fs = 512.0
        t = np.arange(n) / fs
        refs = [Signal(np.cos(2 * np.pi * f * t), fs) for f in (20.0, 60.0)]
        mix = Signal(refs[0].samples + refs[1].samples, fs)
        d, _ = vmd_decompose(mix, VmdConfig(K=2, alpha=500.0, tau=0.0))
        assert all(len(m) == n for m in d.modes)
        assert d.reconstruction_error(mix) < 1e-9
        assert abs(d.center_freqs_hz[0] - 20.0) <= 1.0
        assert abs(d.center_freqs_hz[1] - 60.0) <= 1.0
        assert min(match_components(list(d.modes), refs).per_mode_qrf_db) >= 20.0

    def test_centers_strictly_ascending(self):
        x, _ = gen_s1()
        d, _ = vmd_decompose(x, VmdConfig(K=3, alpha=500.0, tau=0.5))
        cf = d.center_freqs_hz
        assert all(cf[i] < cf[i + 1] for i in range(len(cf) - 1))

    def test_alpha_insensitivity_on_s1(self):
        x, refs = gen_s1()
        per_alpha = {}
        for alpha in (30.0, 100.0, 500.0, 1000.0):
            d, _ = vmd_decompose(x, VmdConfig(K=3, alpha=alpha, tau=0.5))
            report = match_components(list(d.modes), refs)
            per_alpha[alpha] = [report.qrf_for_ref(i) for i in range(3)]
        for comp in range(3):
            values = [per_alpha[a][comp] for a in per_alpha]
            assert max(values) - min(values) < 1.0

    def test_reconstruction_with_dual_ascent(self):
        fs = 512.0
        mix = Signal(tone(10, 1, fs).samples + tone(60, 1, fs).samples, fs)
        d, _ = vmd_decompose(mix, VmdConfig(K=2, alpha=500.0, tau=0.5))
        total = np.sum([m.samples for m in d.modes], axis=0)
        assert np.linalg.norm(mix.samples - total) / l2_norm(mix) <= 1e-2

    def test_collision_guard_pins_centers(self):
        # two modes chase one tone from the same start: the guard pushes
        # the later center away whenever they lock within one bin
        s = tone(50.0, 1.0, 512.0)
        d, _ = vmd_decompose(s, VmdConfig(K=2, alpha=500, tau=0, init_mode="zeros"))
        assert d.center_freqs_hz == pytest.approx((49.933459, 50.018234), abs=1e-3)

    def test_mode_spectrum_concentrated(self):
        s = tone(50.0, 1.0, 512.0)
        d, _ = vmd_decompose(s, VmdConfig(K=1, alpha=500.0, tau=0.5))
        spectrum = np.abs(np.fft.rfft(d.modes[0].samples)) ** 2
        freqs = np.fft.rfftfreq(len(s), 1 / 512.0)
        inside = spectrum[np.abs(freqs - 50.0) <= 5.0].sum()
        assert inside / spectrum.sum() >= 0.95

    def test_k_precondition(self):
        with pytest.raises(ContractViolation):
            vmd_decompose(Signal(np.zeros(8) + np.arange(8), 8.0), VmdConfig(K=5))


class TestVncmd:
    def test_tone_initialized_at_truth(self):
        fs = 256.0
        s = tone(30.0, 4.0, fs)
        d, report = vncmd_decompose(s, VncmdConfig(K=1, init_if_hz=(30.0,)))
        interior = slice(26, -26)
        assert np.allclose(d.if_tracks_hz[0][interior], 30.0, rtol=0.01)
        assert qrf(d.modes[0], s) >= 40.0
        assert report.converged

    def test_objective_trace_monotone_on_benign_runs(self):
        # converged runs on well-initialized inputs keep a non-increasing
        # penalized cost
        fs = 256.0
        s = tone(30.0, 4.0, fs)
        _, report = vncmd_decompose(s, VncmdConfig(K=1, init_if_hz=(30.0,)))
        assert report.converged
        trace = report.objective_trace
        assert all(trace[i + 1] <= trace[i] * (1 + 1e-8) for i in range(len(trace) - 1))

    def test_s1_component3_anchor(self):
        x, refs = gen_s1()
        cfg = VncmdConfig(
            K=3, init_if_hz=(30.0, 50.0, 85.0), alpha=5e-6, mu=0.4, max_iters=120,
            if_smooth_frac=0.01,
        )
        d, _ = vncmd_decompose(x, cfg)
        report = match_components(list(d.modes), refs)
        assert report.qrf_for_ref(2) == pytest.approx(24.4, abs=3.0)

    def test_s1_initialization_sensitivity(self):
        x, refs = gen_s1()
        cfg = VncmdConfig(
            K=3, init_if_hz=(30.0, 50.0, 90.0), alpha=5e-6, mu=0.4, max_iters=120,
            if_smooth_frac=0.01,
        )
        d, _ = vncmd_decompose(x, cfg)
        report = match_components(list(d.modes), refs)
        assert report.qrf_for_ref(2) <= 10.0

    def test_divergence_raises_with_partial_state(self):
        x, _ = gen_s1()
        cfg = VncmdConfig(
            K=3, init_if_hz=(30.0, 50.0, 85.0), alpha=1e-3, mu=0.2, max_iters=150,
            if_smooth_frac=0.01,
        )
        with pytest.raises(Diverged) as excinfo:
            vncmd_decompose(x, cfg)
        assert excinfo.value.decomposition is not None
        assert excinfo.value.report is not None

    def test_init_validation(self):
        with pytest.raises(ContractViolation):
            VncmdConfig(K=2, init_if_hz=(30.0,))
        with pytest.raises(ContractViolation):
            VncmdConfig(K=2, init_if_hz=(30.0, 30.0))
        with pytest.raises(ContractViolation):
            vncmd_decompose(tone(30, 1, 256), VncmdConfig(K=1, init_if_hz=(200.0,)))
