import numpy as np
import pytest

from sigdecomp.core import ContractViolation, Signal, l2_norm, subtract
from sigdecomp.metrics import dominant_frequency_hz
from sigdecomp.spectral import ia_if
from sigdecomp.synth import (
    GapSpec,
    S2Config,
    add_wgn,
    gen_mv_test,
    gen_s1,
    gen_s2,
    s1_if_laws,
    s21_if_law,
)


class TestGapSpec:
    def test_ordering_enforced(self):
        with pytest.raises(ContractViolation):
            GapSpec(5.0, 4.0)

    def test_outside_support_rejected(self):
        with pytest.raises(ContractViolation):
            gen_s1(GapSpec(9.0, 11.0))


class TestNarrowBandSignal:
    def test_sample_count(self):
        composite, refs = gen_s1()
        assert len(composite) == 2560  # 10 s at 256 Hz
        assert all(len(r) == 2560 for r in refs)

    def test_composite_is_sum_of_references(self):
        composite, refs = gen_s1()
        total = refs[0].samples + refs[1].samples + refs[2].samples
        assert np.max(np.abs(composite.samples - total)) < 1e-12

    def test_gap_zeroes_third_component(self):
        _, refs = gen_s1(GapSpec(4.0, 5.0))
        t = refs[2].times()
        inside = (t >= 4.0) & (t < 5.0)
        assert np.all(refs[2].samples[inside] == 0.0)
        assert np.any(refs[2].samples[~inside] != 0.0)

    def test_component1_if_law(self):
        # analytic phase derivative: 15 * (2 - 0.3 sin t)
        _, refs = gen_s1(None)
        model = ia_if(refs[0])
        t = refs[0].times()
        law = s1_if_laws(t)[0]
        interior = slice(64, -64)
        assert np.allclose(model.if_track_hz[interior], law[interior], rtol=0.02)

    def test_component3_if_law_without_gap(self):
        _, refs = gen_s1(None)
        model = ia_if(refs[2])
        t = refs[2].times()
        law = 15.0 * (5.3 + 0.26 * t**0.3)
        interior = slice(64, -64)
        assert np.allclose(model.if_track_hz[interior], law[interior], rtol=0.02)


class TestWideBandSignal:
    def test_sample_count(self):
        composite, refs = gen_s2()
        assert len(composite) == 512  # 1 s at 512 Hz

    def test_chirp_if_at_zero(self):
        # 0.55 * 50 = 27.5 Hz
        assert s21_if_law(np.array([0.0]))[0] == pytest.approx(27.5)

    def test_composite_is_sum(self):
        composite, refs = gen_s2()
        assert np.max(np.abs(composite.samples - refs[0].samples - refs[1].samples)) < 1e-12

    def test_seed_determinism(self):
        a, _ = gen_s2(S2Config(rng_seed=7))
        b, _ = gen_s2(S2Config(rng_seed=7))
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a, _ = gen_s2(S2Config(rng_seed=7))
        b, _ = gen_s2(S2Config(rng_seed=8))
        assert not np.array_equal(a.samples, b.samples)

    def test_envelope_positive(self):
        _, refs = gen_s2()
        model = ia_if(refs[1])
        assert np.all(model.ia_track[16:-16] > 0.02)


class TestMultivariateTestSignal:
    def test_channel_lengths_equal(self):
        mv, table = gen_mv_test()
        assert mv.channels.shape[0] == 2
        assert mv.channels.shape[1] == mv.n_samples

    def test_channel_spectra(self):
        mv, _ = gen_mv_test()
        fs = mv.sample_rate_hz
        spec1 = np.abs(np.fft.rfft(mv.channels[0]))
        freqs = np.fft.rfftfreq(mv.n_samples, 1 / fs)
        peaks1 = freqs[spec1 > 0.25 * spec1.max()]
        assert set(np.round(peaks1, 1)) == {2.0, 50.0}
        spec2 = np.abs(np.fft.rfft(mv.channels[1]))
        peaks2 = freqs[spec2 > 0.25 * spec2.max()]
        assert set(np.round(peaks2, 1)) == {2.0, 20.0, 50.0}

    def test_expected_table(self):
        _, table = gen_mv_test()
        assert table == ((2.0, 2.0), (None, 20.0), (50.0, 50.0))

    def test_nyquist_guard(self):
        with pytest.raises(ContractViolation):
            gen_mv_test(2.0, 90.0)


class TestNoiseInjection:
    def test_realized_snr_exact(self):
        x, _ = gen_s1()
        for snr in (24.0, 3.0, -5.0):
            noisy = add_wgn(x, snr, seed=3)
            noise = subtract(noisy, x)
            realized = 10 * np.log10(l2_norm(x) ** 2 / l2_norm(noise) ** 2)
            assert realized == pytest.approx(snr, abs=1e-9)

    def test_zero_signal_rejected(self):
        with pytest.raises(ContractViolation):
            add_wgn(Signal(np.zeros(16), 4.0), 10.0, 0)

    def test_nonfinite_snr_rejected(self):
        x, _ = gen_s2()
        with pytest.raises(ContractViolation):
            add_wgn(x, np.inf, 0)

    @pytest.mark.parametrize("snr", [5000.0, -5000.0, 3085.0, -3240.0, np.nan, -np.inf])
    def test_power_ratio_past_float64_rejected(self, snr):
        # 10**(snr/10) overflows, or underflows to zero
        x, _ = gen_s2()
        with pytest.raises(ContractViolation, match="snr_db"):
            add_wgn(x, snr, 0)

    @pytest.mark.parametrize("snr, peak_exp", [(-3070.0, 0), (-3230.0, 0), (-2000.0, 1000)])
    def test_noise_past_float64_at_the_signal_scale_rejected(self, snr, peak_exp):
        # the power ratio is a positive double, but the noise overflows at unit peak or at the signal's scale
        x, _ = gen_s2()
        with pytest.raises(ContractViolation, match="snr_db"):
            add_wgn(Signal(np.ldexp(x.samples, peak_exp), x.sample_rate_hz), snr, 0)

    def test_most_negative_finite_snr_keeps_the_noise_exact(self):
        x, _ = gen_s2()
        noise = subtract(add_wgn(x, -3000.0, 0), x)
        assert 20 * np.log10(l2_norm(x) / l2_norm(noise)) == pytest.approx(-3000.0, abs=1e-9)

    def test_power_of_two_scale_gives_scaled_noise(self):
        x, _ = gen_s2()
        noisy = add_wgn(x, 12.0, 4).samples
        for k in range(-900, 1001):
            scaled = add_wgn(Signal(np.ldexp(x.samples, k), x.sample_rate_hz), 12.0, 4)
            assert np.array_equal(scaled.samples, np.ldexp(noisy, k)), k

    def test_tiny_signal_accepted(self):
        # its squares underflow to zero at its own scale, not at unit peak
        x, _ = gen_s2()
        tiny = Signal(x.samples * 1e-170, x.sample_rate_hz)
        noise = subtract(add_wgn(tiny, 3.0, 0), tiny)
        assert 20 * np.log10(l2_norm(tiny) / l2_norm(noise)) == pytest.approx(3.0, abs=1e-9)

    def test_seeds_give_different_noise(self):
        x, _ = gen_s2()
        n1 = subtract(add_wgn(x, 10.0, 1), x)
        n2 = subtract(add_wgn(x, 10.0, 2), x)
        assert not np.allclose(n1.samples, n2.samples)

    def test_same_seed_reproduces(self):
        x, _ = gen_s2()
        assert np.array_equal(add_wgn(x, 10.0, 5).samples, add_wgn(x, 10.0, 5).samples)

    def test_noise_zero_mean(self):
        x, _ = gen_s1()
        noise = subtract(add_wgn(x, 0.0, 11), x)
        n = len(noise)
        sigma = float(np.std(noise.samples))
        assert abs(float(np.mean(noise.samples))) < 3 * sigma / np.sqrt(n)

    def test_length_and_rate_preserved(self):
        x, _ = gen_s2()
        y = add_wgn(x, 12.0, 0)
        assert len(y) == len(x) and y.sample_rate_hz == x.sample_rate_hz
