import numpy as np
import pytest

from sigdecomp.core import ContractViolation, NotEnoughExtrema, NumericalFailure, Signal, l2_norm
from sigdecomp.emd import (
    EmdConfig,
    emd_decompose,
    envelope_mean,
    find_extrema,
    imf_property_holds,
    mirrored_extrema_knots,
)
from sigdecomp._kernels import find_extrema_arrays
from sigdecomp.metrics import match_components


def tone(freq_hz, duration_s, fs, amp=1.0, phase=0.0):
    t = np.arange(int(duration_s * fs)) / fs
    return Signal(amp * np.sin(2 * np.pi * freq_hz * t + phase), fs)


class TestFindExtrema:
    def test_two_hz_tone_counts(self):
        maxima, minima = find_extrema(tone(2.0, 1.0, 256.0))
        assert abs(maxima.size - 2) <= 1
        assert abs(minima.size - 2) <= 1

    def test_monotone_ramp_empty(self):
        maxima, minima = find_extrema(Signal(np.linspace(0, 1, 64), 8.0))
        assert maxima.size == 0 and minima.size == 0

    def test_plateau_midpoint(self):
        maxima, minima = find_extrema(Signal(np.array([0.0, 1.0, 1.0, 1.0, 0.0]), 4.0))
        assert list(maxima) == [2]
        assert minima.size == 0

    def test_short_signal_rejected(self):
        with pytest.raises(ContractViolation):
            find_extrema(Signal(np.array([0.0, 1.0]), 4.0))


class TestEnvelopeMean:
    def test_pure_tone_mean_near_zero(self):
        s = tone(5.0, 10.0, 256.0)
        mean = envelope_mean(s)
        interior = slice(128, -128)
        ratio = float(np.linalg.norm(mean.samples[interior])) / l2_norm(s)
        assert ratio < 0.05

    def test_tone_plus_offset(self):
        t = np.arange(2560) / 256.0
        s = Signal(np.sin(2 * np.pi * 5 * t) + 3.0, 256.0)
        mean = envelope_mean(s)
        assert np.allclose(mean.samples[128:-128], 3.0, rtol=0.05)

    def test_ramp_raises(self):
        with pytest.raises(NotEnoughExtrema):
            envelope_mean(Signal(np.linspace(0, 1, 128), 16.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_curvature_is_numerical_failure(self):
        # finite samples whose second difference at an extremum overflows
        s = Signal(1.5e308 * np.sin(2.5 * np.arange(96.0)), 96.0)
        with pytest.raises(NumericalFailure, match="curvature"):
            envelope_mean(s)


# Hand-built signals whose extrema are symmetric peaks, so the refined knots
# sit on whole samples.  Each starts led by a maximum and ends led by a
# minimum; negating it swaps the families and covers the other leads.
_REFLECT = [0.0, 1, 0, -1] * 3 + [0]  # maxima 1, 5, 9; minima 3, 7, 11
_ANCHOR = [-2.0] + [0, 1, 0, -1] * 3 + [0, 2]  # endpoints overshoot the minima/maxima
_REANCHOR = list(range(-10, 0)) + [0, 20, 0, -20] * 3 + [0] + list(range(1, 11))  # long ramps

# (signal, depth, (t_max, v_max), (t_min, v_min)), written out by hand
_KNOT_TABLE = {
    # start: reflect about the maximum at 1; end: reflect about the minimum at 11
    "reflect-1": (_REFLECT, 1, ([-3, 1, 5, 9, 13], [1] * 5), ([-1, 3, 7, 11, 15], [-1] * 5)),
    "reflect-2": (_REFLECT, 2, ([-7, -3, 1, 5, 9, 13, 17], [1] * 7), ([-5, -1, 3, 7, 11, 15, 19], [-1] * 7)),
    "reflect-3": (_REFLECT, 3, ([-7, -3, 1, 5, 9, 13, 17, 21], [1] * 8),
                  ([-9, -5, -1, 3, 7, 11, 15, 19], [-1] * 8)),
    # the endpoints (0, value -2) and (14, value 2) join the other family
    "anchor-1": (_ANCHOR, 1, ([-2, 2, 6, 10, 14], [1, 1, 1, 1, 2]), ([0, 4, 8, 12, 16], [-2, -1, -1, -1, -1])),
    "anchor-2": (_ANCHOR, 2, ([-6, -2, 2, 6, 10, 14, 18], [1, 1, 1, 1, 1, 2, 1]),
                 ([-4, 0, 4, 8, 12, 16, 20], [-1, -2, -1, -1, -1, -1, -1])),
    "anchor-3": (_ANCHOR, 3, ([-10, -6, -2, 2, 6, 10, 14, 18, 22], [1, 1, 1, 1, 1, 1, 2, 1, 1]),
                 ([-8, -4, 0, 4, 8, 12, 16, 20, 24], [-1, -1, -2, -1, -1, -1, -1, -1, -1])),
    # reflections about 11 and 21 fall short of the ends: mirror about 0 and 32
    "reanchor-1": (_REANCHOR, 1, ([-11, 11, 15, 19, 45], [20] * 5), ([-13, 13, 17, 21, 43], [-20] * 5)),
    "reanchor-2": (_REANCHOR, 2, ([-15, -11, 11, 15, 19, 45, 49], [20] * 7),
                   ([-17, -13, 13, 17, 21, 43, 47], [-20] * 7)),
    "reanchor-3": (_REANCHOR, 3, ([-19, -15, -11, 11, 15, 19, 45, 49, 53], [20] * 9),
                   ([-21, -17, -13, 13, 17, 21, 43, 47, 51], [-20] * 9)),
}


class TestMirroredKnots:
    @pytest.mark.parametrize("negate", [False, True], ids=["max-leads-start", "min-leads-start"])
    @pytest.mark.parametrize("case", _KNOT_TABLE)
    def test_knot_table(self, case, negate):
        samples, depth, (t_max, v_max), (t_min, v_min) = _KNOT_TABLE[case]
        x = np.array(samples, dtype=np.float64)
        if negate:  # maxima become minima with negated values
            x = -x
            (t_max, v_max), (t_min, v_min) = (t_min, [-v for v in v_min]), (t_max, [-v for v in v_max])
        got = mirrored_extrema_knots(x, *find_extrema_arrays(x), depth)
        for actual, expected in zip(got, (t_max, v_max, t_min, v_min)):
            assert np.array_equal(actual, np.array(expected, dtype=np.float64))


class TestDecompose:
    def test_monotone_ramp_gives_no_modes(self):
        t = np.arange(512) / 256.0
        d = emd_decompose(Signal(t, 256.0))
        assert d.n_modes == 0
        assert np.array_equal(d.residual.samples, t)

    def test_two_tone_separation(self):
        t = np.arange(2560) / 256.0
        mix = Signal(np.sin(2 * np.pi * 50 * t) + np.sin(2 * np.pi * 2 * t), 256.0)
        refs = [tone(50.0, 10.0, 256.0), tone(2.0, 10.0, 256.0)]
        d = emd_decompose(mix)
        report = match_components(list(d.modes), refs)
        assert report.qrf_for_ref(0) >= 20.0  # fast tone
        assert report.qrf_for_ref(1) >= 15.0  # slow tone

    def test_exact_reconstruction(self):
        t = np.arange(2560) / 256.0
        mix = Signal(np.sin(2 * np.pi * 50 * t) + np.sin(2 * np.pi * 2 * t), 256.0)
        d = emd_decompose(mix)
        assert d.reconstruction_error(mix) < 1e-9 * l2_norm(mix)

    def test_one_extrema_search_per_sift_iteration(self, monkeypatch):
        # every sift iteration that fits its envelopes searches once, and the
        # last sift, which finds too few extrema, searches once and fits nothing
        from sigdecomp import emd
        from sigdecomp.synth import gen_s1

        calls = {"find_extrema_arrays": 0, "natural_spline": 0}
        for name in calls:
            inner = getattr(emd, name)

            def counted(*args, _name=name, _inner=inner):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(emd, name, counted)
        d = emd_decompose(gen_s1()[0])
        assert 0 < d.n_modes < EmdConfig().max_imfs
        assert calls["natural_spline"] > d.n_modes
        assert calls["find_extrema_arrays"] == calls["natural_spline"] + 1

    def test_s1_mode_mixing_underperforms_variational(self):
        # the gapped narrow-band mixture defeats sifting; the variational
        # decomposition on the same input is far ahead
        from sigdecomp.synth import gen_s1
        from sigdecomp.variational import VmdConfig, vmd_decompose

        x, refs = gen_s1()
        emd_total = match_components(list(emd_decompose(x).modes), refs).total_qrf_db
        vmd_d, _ = vmd_decompose(x, VmdConfig(K=3, alpha=500.0, tau=0.5))
        vmd_total = match_components(list(vmd_d.modes), refs).total_qrf_db
        assert emd_total < vmd_total

    def test_deterministic(self):
        t = np.arange(1024) / 256.0
        mix = Signal(np.sin(2 * np.pi * 40 * t) + 0.5 * np.sin(2 * np.pi * 3 * t), 256.0)
        d1 = emd_decompose(mix)
        d2 = emd_decompose(mix)
        assert d1.n_modes == d2.n_modes
        for a, b in zip(d1.modes, d2.modes):
            assert np.array_equal(a.samples, b.samples)

    def test_stop_rule(self):
        cfg = EmdConfig(theta1=0.1, theta2=0.5, alpha_fraction=0.25)
        half_range = np.ones(8)
        assert cfg.sift_converged(np.full(8, 0.05), half_range)
        assert cfg.sift_converged(np.array([0.3, 0.3] + [0.0] * 6), half_range)  # 2/8 above theta1
        assert not cfg.sift_converged(np.array([0.3, 0.3, 0.3] + [0.0] * 5), half_range)
        assert not cfg.sift_converged(np.array([0.6] + [0.0] * 7), half_range)  # one above theta2
        assert cfg.sift_converged(np.zeros(8), np.zeros(8))  # flat envelopes, flat mean

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            EmdConfig(theta1=0.6, theta2=0.5)
        with pytest.raises(ContractViolation):
            EmdConfig(alpha_fraction=0.0)
        for cap in ("max_sift_iters", "max_imfs"):  # MEMD sifts under the same caps
            with pytest.raises(ContractViolation, match=cap):
                EmdConfig(**{cap: 0})


class TestImfProperties:
    def test_random_mixtures_reconstruct_and_satisfy_count_rule(self, rng):
        fs = 256.0
        t = np.arange(2048) / fs
        for _ in range(20):
            n_comp = rng.integers(2, 4)
            freq = 1.5
            sig = np.zeros_like(t)
            for _c in range(n_comp):
                freq = freq * (2.5 + 3 * rng.random())
                if freq > 100:
                    break
                amp = 0.5 + rng.random()
                sig += amp * np.cos(2 * np.pi * freq * t + rng.random() * 2 * np.pi)
            x = Signal(sig, fs)
            d = emd_decompose(x)
            assert d.reconstruction_error(x) < 1e-9 * l2_norm(x)
            assert all(imf_property_holds(m) for m in d.modes)
