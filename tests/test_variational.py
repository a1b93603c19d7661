import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_banded

from sigdecomp import bench, variational
from sigdecomp.core import (
    ContractViolation, Diverged, MultichannelSignal, NumericalFailure, Signal, _scaled_back, _unit_scaled, l2_norm
)
from sigdecomp.metrics import match_components, qrf
from sigdecomp.multivariate import MvmdConfig, mvmd_decompose
from sigdecomp.synth import add_wgn, gen_mv_test, gen_s1
from sigdecomp.variational import (
    VmdConfig,
    VncmdConfig,
    _fit_envelopes,
    _smoothing_bands,
    vmd_decompose,
    vncmd_decompose,
)


def tone(freq_hz, duration_s, fs, amp=1.0):
    t = np.arange(int(duration_s * fs)) / fs
    return Signal(amp * np.cos(2 * np.pi * freq_hz * t), fs)


def fit_envelopes(residual, cos_t, sin_t, smoothing):
    """One mode's envelopes (a, b) from ``_fit_envelopes`` with fresh buffers."""
    n = residual.size
    system, rhs = np.empty((13, 2 * n), order="F"), np.empty(2 * n)
    return _fit_envelopes(np.stack([cos_t, sin_t]), residual, smoothing, system, rhs)


def scipy_solve_banded(bands, rhs):
    """The reference solve: scipy's wrapper on the 9 rows below the LU fill-in."""
    return solve_banded((4, 4), bands[4:], rhs)


def vncmd_run(x, cfg):
    """The decomposition and report of a VNCMD run, read through ``Diverged``
    when it raises, and whether it did."""
    try:
        return (*vncmd_decompose(x, cfg), False)
    except Diverged as exc:
        return exc.decomposition, exc.report, True


def vncmd_outputs(x, cfg):
    """Every array a VNCMD run gives, read through ``Diverged`` when it raises."""
    d, report, diverged = vncmd_run(x, cfg)
    arrays = [m.samples for m in d.modes] + [d.residual.samples] + list(d.if_tracks_hz)
    return diverged, arrays + [np.asarray(report.objective_trace)]


def reference_vncmd(x, cfg):
    """VNCMD written one envelope at a time: separate ``a`` and ``b``
    arrays, ``np.gradient`` and ``np.diff`` per envelope, a fresh system
    and right-hand side per solve and one moving average per mode.  It
    skips the finiteness checks, which the runs compared here never trip.
    Returns what :func:`vncmd_outputs` returns, then the final update norm."""
    n, fs, k = len(x), x.sample_rate_hz, cfg.K
    nyquist, dt, weight, tiny = fs / 2.0, 1.0 / fs, 1.0 / cfg.alpha, np.finfo(np.float64).tiny
    width = max(int(round(cfg.if_smooth_frac * n)), 1)
    samples, exp = _unit_scaled(x.samples)
    smoothing = _smoothing_bands(n, weight)
    if_tracks = np.tile(np.asarray(cfg.init_if_hz, dtype=float)[:, None], (1, n))
    a, b, modes = np.zeros((k, n)), np.zeros((k, n)), np.zeros((k, n))

    def moving_average(row):
        if width <= 1:
            return row
        pad = width // 2
        padded = np.concatenate([np.full(pad, row[0]), row, np.full(width - 1 - pad, row[-1])])
        return np.convolve(padded, np.ones(width) / width, mode="valid")

    def sweep():
        steps = (if_tracks[:, 1:] + if_tracks[:, :-1]) / 2.0 * dt
        phase = 2.0 * np.pi * np.concatenate([np.zeros((k, 1)), np.cumsum(steps, axis=1)], axis=1)
        cos_t, sin_t = np.cos(phase), np.sin(phase)
        for i in range(k):
            residual = samples - (modes.sum(axis=0) - modes[i])
            bands = smoothing.copy(order="F")
            bands[8, 0::2] += cos_t[i] * cos_t[i]
            bands[8, 1::2] += sin_t[i] * sin_t[i]
            bands[7, 1::2] = bands[9, 0::2] = cos_t[i] * sin_t[i]
            rhs = np.empty(2 * n)
            rhs[0::2] = residual * cos_t[i]
            rhs[1::2] = residual * sin_t[i]
            solution = variational.solve_banded(bands, rhs)
            a[i], b[i] = solution[0::2], solution[1::2]
            modes[i] = a[i] * cos_t[i] + b[i] * sin_t[i]

    trace, update_norm, growth_run = [], np.inf, 0
    with np.errstate(over="ignore", invalid="ignore"):
        sweep()
        for _ in range(cfg.max_iters):
            modes_prev = modes.copy()
            da, db = np.gradient(a, dt, axis=1), np.gradient(b, dt, axis=1)
            denom = a**2 + b**2
            floor = 1e-10 * np.maximum(denom.max(axis=1, keepdims=True), tiny)
            raw = (b * da - a * db) / (2.0 * np.pi * np.maximum(denom, floor))
            increments = np.array([moving_average(row) for row in raw])
            if_tracks[:] = np.clip(if_tracks + cfg.mu * increments, 0.0, nyquist)
            sweep()
            data = samples - modes.sum(axis=0)
            d2a, d2b = np.diff(a, n=2, axis=1), np.diff(b, n=2, axis=1)
            smooth = sum(np.sum(d2a * d2a, axis=1) + np.sum(d2b * d2b, axis=1))
            trace.append(float(np.sum(data * data) + weight * smooth))
            power_prev = np.sum(modes_prev**2, axis=1)
            new_norm = float(sum(np.sum((modes - modes_prev) ** 2, axis=1) / (power_prev + tiny)))
            growth_run = growth_run + 1 if new_norm > update_norm else 0
            update_norm = new_norm
            if growth_run >= 10 or update_norm < cfg.tol:
                break
    arrays = list(_scaled_back(modes, exp)) + [_scaled_back(samples - modes.sum(axis=0), exp)] + list(if_tracks)
    return growth_run >= 10, arrays + [np.ldexp(trace, 2 * exp)], update_norm


# a run that raises Diverged, so its partial state is what gets compared
DIVERGING_S1 = VncmdConfig(
    K=3, init_if_hz=(30.0, 50.0, 85.0), alpha=1e-3, mu=0.2, max_iters=150, if_smooth_frac=0.01,
)


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

    @pytest.mark.parametrize("n", [1022, 512, 1021])
    def test_unfiltered_mode_is_mirrored_input_without_nyquist(self, n):
        # alpha ~ 0 and one step from zeros makes the mode the one-sided
        # spectrum of the mirrored input itself, so the rebuilt mode must be
        # that input minus its Nyquist component, which VMD leaves out
        x = np.random.default_rng(3).normal(size=n)
        cfg = VmdConfig(K=1, alpha=1e-12, tau=0.0, max_iters=1, init_mode="zeros")
        d, _ = vmd_decompose(Signal(x, 100.0), cfg)
        half_n = n // 2
        m = np.concatenate([x[:half_n][::-1], x, x[n - half_n :][::-1]])
        t_len = m.size
        if t_len % 2 == 0:
            alt = (-1.0) ** np.arange(t_len)
            m = m - (alt @ m) * alt / t_len
        lo = t_len // 4
        err = np.max(np.abs(d.modes[0].samples - m[lo : lo + n]))
        assert err < 1e-9 * np.max(np.abs(x))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("exp", [480, 500, -70, -160])
    def test_overflowing_update_norm_keeps_the_run(self, exp):
        # the plain update norm overflows from about 2**480 on, and an
        # absolute floor on its denominators swamped it at small scales;
        # scaling the input by a power of two must scale the modes exactly
        # and leave the iteration count and the centers as they were
        fs = 256.0
        t = np.arange(512) / fs
        x = np.cos(2 * np.pi * 20 * t) + 0.5 * np.cos(2 * np.pi * 60 * t)
        base, base_report = vmd_decompose(Signal(x, fs), VmdConfig(K=2))
        scaled, report = vmd_decompose(Signal(np.ldexp(x, exp), fs), VmdConfig(K=2))
        assert report.iterations == base_report.iterations and report.converged
        assert scaled.center_freqs_hz == base.center_freqs_hz
        for m, m0 in zip(scaled.modes, base.modes):
            assert np.array_equal(np.ldexp(m.samples, -exp), m0.samples)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["vmd", "mvmd"])
    def test_overflowing_center_power_keeps_the_run(self, method):
        # at 2**505 a mode's squared spectrum overflows, which used to end
        # the run as a NumericalFailure; its center is a ratio that does
        # not depend on scale, so the modes scale exactly, at 2**-70 too
        fs = 512.0
        t = np.arange(512) / fs
        x = np.sin(2 * np.pi * 20 * t) + 0.5 * np.sin(2 * np.pi * 60 * t)

        def modes(scale):
            if method == "vmd":
                d, report = vmd_decompose(Signal(np.ldexp(x, scale), fs), VmdConfig(K=2))
                return [m.samples for m in d.modes], d.center_freqs_hz, report
            channels = np.ldexp(np.stack([x, 0.5 * x[::-1]]), scale)
            d, report = mvmd_decompose(MultichannelSignal(channels, fs), MvmdConfig(K=2))
            return [m.samples for ms in d.channel_modes for m in ms], d.center_freqs_hz, report

        base, base_centers, base_report = modes(0)
        for exp in (505, -70):
            scaled, centers, report = modes(exp)
            assert report.iterations == base_report.iterations
            assert centers == base_centers
            assert len(scaled) == len(base)
            for m, m0 in zip(scaled, base):
                assert np.array_equal(m, np.ldexp(m0, exp))


class TestUpdateNorm:
    """A sweep's relative update; the methods iterate at unit peak, so
    only a diverging sweep overflows, and it must not read as convergence."""

    @pytest.mark.parametrize("case", ["vmd-s1", "vmd-s2", "mvmd-10dB"])
    def test_every_trace_entry_is_finite(self, case):
        # the first sweep starts from zero modes and is measured against
        # the input's power, so it reads a finite share, not inf
        if case == "mvmd-10dB":
            x = bench.noisy_mv_signal(gen_mv_test()[0], 10.0, 0)
            _, report = mvmd_decompose(x, bench.default_config("mvmd", "s1"))
        else:
            signal = case.split("-")[1]
            x, _ = bench.generate_signal(signal)
            _, report = vmd_decompose(x, bench.default_config("vmd", signal))
        assert report.iterations > 1
        assert np.all(np.isfinite(report.objective_trace))
        assert 0.0 < report.objective_trace[0] < 1.0  # a share of the input's power

    @pytest.mark.parametrize("method", ["vmd", "mvmd"])
    def test_zero_input_stops_after_one_sweep(self, method):
        if method == "vmd":
            _, report = vmd_decompose(Signal(np.zeros(256), 256.0), VmdConfig(K=2))
        else:
            _, report = mvmd_decompose(MultichannelSignal(np.zeros((2, 256)), 256.0), MvmdConfig(K=2))
        assert report.converged and report.objective_trace == (0.0,)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spectra", [False, True])
    def test_overflowing_sums_keep_the_value(self, rng, spectra):
        prev, power = rng.normal(size=(3, 128)), variational._power
        if spectra:  # VMD's (K, C, bins) complex spectra
            prev = (prev + 1j * rng.normal(size=(3, 128))).reshape(3, 2, 64)
            power = variational._spectral_power
        modes = 1.5 * prev
        assert variational._update_norm(modes, prev, power) == pytest.approx(0.75, rel=1e-12)  # 0.25 per mode
        # a sweep that blows up: its sums of squares, then its squares overflow;
        # the methods call it inside their run's errstate guard, as here
        for blown_up in (modes * 2.0**520, modes * 2.0**1000, np.full_like(modes, np.inf)):
            with np.errstate(over="ignore", invalid="ignore"):
                assert not variational._update_norm(blown_up, prev, power) < 1e-7


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
        with pytest.raises(Diverged) as excinfo:
            vncmd_decompose(x, DIVERGING_S1)
        assert excinfo.value.decomposition is not None
        assert excinfo.value.report is not None

    @pytest.mark.parametrize("n", [12, 40])
    @pytest.mark.parametrize("weight", [1.0, 1e3])
    def test_fit_envelopes_matches_dense_normal_equations(self, rng, n, weight):
        phase = rng.uniform(0.0, 2.0 * np.pi, n)
        cos_t, sin_t = np.cos(phase), np.sin(phase)
        residual = rng.normal(size=n)
        d2 = np.diff(np.eye(n), n=2, axis=0)  # second-difference operator
        smooth = weight * d2.T @ d2
        # interleaved unknowns (a0, b0, a1, b1, ...)
        dense = np.zeros((2 * n, 2 * n))
        dense[0::2, 0::2] = smooth + np.diag(cos_t * cos_t)
        dense[1::2, 1::2] = smooth + np.diag(sin_t * sin_t)
        dense[0::2, 1::2] = dense[1::2, 0::2] = np.diag(cos_t * sin_t)
        rhs = np.ravel(np.column_stack([residual * cos_t, residual * sin_t]))
        expected = np.linalg.solve(dense, rhs)

        a, b = fit_envelopes(residual, cos_t, sin_t, _smoothing_bands(n, weight))
        got = np.ravel(np.column_stack([a, b]))
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [12, 40, 512])
    def test_fit_envelopes_bit_identical_to_scipy(self, rng, monkeypatch, n):
        phase = rng.uniform(0.0, 2.0 * np.pi, n)
        residual = rng.normal(size=n)
        for weight in (1.0, 1e3, 2e5):
            args = (residual, np.cos(phase), np.sin(phase), _smoothing_bands(n, weight))
            got = fit_envelopes(*args)
            with monkeypatch.context() as m:
                m.setattr(variational, "solve_banded", scipy_solve_banded)
                want = fit_envelopes(*args)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("case", ["clean_s2", "diverging_s1"])
    def test_decomposition_bit_identical_to_scipy_solve(self, monkeypatch, case):
        if case == "clean_s2":
            x, _ = bench.generate_signal("s2")
            cfg = bench.default_config("vncmd", "s2")
        else:
            x, _ = gen_s1()
            cfg = DIVERGING_S1
        diverged, got = vncmd_outputs(x, cfg)
        monkeypatch.setattr(variational, "solve_banded", scipy_solve_banded)
        want_diverged, want = vncmd_outputs(x, cfg)
        assert diverged == want_diverged == (case == "diverging_s1")
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize(
        "signal, snr_db, seed",
        [("s1", None, None), ("s2", None, None)] + [("s2", snr, seed) for snr in (12.0, 3.0) for seed in range(4)],
    )
    def test_bit_identical_to_one_envelope_at_a_time(self, signal, snr_db, seed):
        # the benchmark's clean and noisy recipes, three of the noisy ones diverging
        x, _ = bench.generate_signal(signal)
        if snr_db is not None:
            x = add_wgn(x, snr_db, seed)
        cfg = bench.default_config("vncmd", signal, noisy=snr_db is not None)
        d, report, diverged = vncmd_run(x, cfg)
        want_diverged, want, want_norm = reference_vncmd(x, cfg)
        got = [m.samples for m in d.modes] + [d.residual.samples] + list(d.if_tracks_hz)
        got.append(np.asarray(report.objective_trace))
        assert diverged == want_diverged
        assert len(got) == len(want)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        assert np.float64(report.final_update_norm).tobytes() == np.float64(want_norm).tobytes()

    def test_noisy_s2_runs_that_diverge(self):
        # the comparison above covers the divergence path on these three
        x, _ = bench.generate_signal("s2")
        cfg = bench.default_config("vncmd", "s2", noisy=True)
        diverging = [(snr, seed) for snr in (12.0, 3.0) for seed in range(4) if vncmd_run(add_wgn(x, snr, seed), cfg)[2]]
        assert diverging == [(12.0, 0), (12.0, 3), (3.0, 2)]

    def test_non_finite_update_norm_reported_as_it_is(self, monkeypatch):
        x, _ = bench.generate_signal("s2")
        cfg = dataclasses.replace(bench.default_config("vncmd", "s2"), max_iters=5)
        want_diverged, want = vncmd_outputs(x, cfg)
        monkeypatch.setattr(variational, "_update_norm", lambda *args: np.inf)
        _, report = vncmd_decompose(x, cfg)
        assert report.final_update_norm == np.inf
        assert report.converged is False
        diverged, got = vncmd_outputs(x, cfg)
        assert diverged is want_diverged is False
        assert len(got) == len(want)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_singular_envelope_system_is_numerical_failure(self):
        n = 16
        with pytest.raises(NumericalFailure, match="singular"):
            fit_envelopes(np.zeros(n), np.zeros(n), np.zeros(n), _smoothing_bands(n, 0.0))

    @pytest.mark.parametrize("alpha", [1e-320, 1e-308])
    def test_overflowing_smoothing_weight_rejected(self, alpha):
        cfg = VncmdConfig(K=1, init_if_hz=(30.0,), alpha=alpha)
        with pytest.raises(ContractViolation, match="alpha"):
            vncmd_decompose(tone(30.0, 1.0, 256.0), cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_envelope_power_is_numerical_failure(self):
        # the run is at unit peak, but a smoothing weight of 1e-100 leaves
        # the envelopes free to grow until a^2 + b^2 overflows
        x, _ = gen_s1()
        cfg = VncmdConfig(K=3, init_if_hz=(30.0, 50.0, 85.0), alpha=1e100, mu=0.2)
        with pytest.raises(NumericalFailure, match="envelope power"):
            vncmd_decompose(x, cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_increment_denominator_scales_exactly(self):
        # at 2**511 the input's a^2 + b^2 fits but 2 pi (a^2 + b^2) does not;
        # at unit peak the run is the amplitude-1 run, scaled (which stops
        # after one iteration, its IF at 29.95 Hz: the stop rule reads a
        # barely moving IF as convergence at any amplitude)
        cfg = VncmdConfig(K=1, init_if_hz=(29.9,))
        x = tone(30.0, 1.0, 256.0)
        base, base_report = vncmd_decompose(x, cfg)
        d, report = vncmd_decompose(Signal(np.ldexp(x.samples, 511), x.sample_rate_hz), cfg)
        assert report.iterations == base_report.iterations and report.converged == base_report.converged
        assert np.array_equal(d.modes[0].samples, np.ldexp(base.modes[0].samples, 511))
        assert np.array_equal(d.residual.samples, np.ldexp(base.residual.samples, 511))
        assert np.array_equal(d.if_tracks_hz[0], base.if_tracks_hz[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_update_norm_keeps_the_run(self):
        # at 2**508 (about 1e153) the envelope power fits but the modes'
        # sums of squares overflow, which read as a zero update: the run
        # stopped after one iteration as converged; at 2**-70 absolute
        # floors on the update and the increment did the same
        fs = 256.0
        t = np.arange(2560) / fs
        x = np.cos(2 * np.pi * 30 * t) + 0.5 * np.cos(2 * np.pi * 60 * t + 3 * np.sin(t))
        cfg = VncmdConfig(K=2, init_if_hz=(28.0, 62.0))
        base, base_report = vncmd_decompose(Signal(x, fs), cfg)
        for exp in (508, -70):
            scaled, report = vncmd_decompose(Signal(np.ldexp(x, exp), fs), cfg)
            assert report.iterations == base_report.iterations > 1
            assert report.final_update_norm == pytest.approx(base_report.final_update_norm, rel=1e-12)
            for m, m0 in zip(scaled.modes, base.modes):
                assert np.array_equal(np.ldexp(m.samples, -exp), m0.samples)
            assert all(np.array_equal(f, f0) for f, f0 in zip(scaled.if_tracks_hz, base.if_tracks_hz))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["alpha", "mu", "tol", "init_if_hz", "if_smooth_frac"])
    def test_non_finite_config_rejected(self, field, value):
        fields = {"K": 2, "init_if_hz": (30.0, 50.0)}
        fields[field] = (30.0, value) if field == "init_if_hz" else value
        with pytest.raises(ContractViolation, match="finite"):
            VncmdConfig(**fields)

    @pytest.mark.parametrize(
        "bad, message",
        [({"max_iters": 0}, "max_iters"), ({"if_smooth_frac": -0.1}, "if_smooth_frac"),
         ({"if_smooth_frac": 1.5}, "if_smooth_frac"), ({"K": 0, "init_if_hz": ()}, "K")],
    )
    def test_out_of_range_config_rejected(self, bad, message):
        with pytest.raises(ContractViolation, match=message):
            VncmdConfig(**{"K": 2, "init_if_hz": (30.0, 50.0), **bad})

    def test_init_validation(self):
        with pytest.raises(ContractViolation):
            VncmdConfig(K=2, init_if_hz=(30.0,))
        with pytest.raises(ContractViolation):
            VncmdConfig(K=2, init_if_hz=(30.0, 30.0))
        with pytest.raises(ContractViolation):
            vncmd_decompose(tone(30, 1, 256), VncmdConfig(K=1, init_if_hz=(200.0,)))
