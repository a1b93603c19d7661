import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdecomp.core import (
    ContractViolation,
    Decomposition,
    ModeModel,
    MultichannelSignal,
    Signal,
    add,
    l2_norm,
    scale,
    subtract,
)


def tone(freq_hz: float, duration_s: float, fs: float, amp: float = 1.0) -> Signal:
    t = np.arange(int(duration_s * fs)) / fs
    return Signal(amp * np.sin(2 * np.pi * freq_hz * t), fs)


class TestSignalInvariants:
    def test_rejects_short(self):
        with pytest.raises(ContractViolation):
            Signal(np.array([1.0]), 10.0)

    def test_rejects_nan(self):
        with pytest.raises(ContractViolation):
            Signal(np.array([1.0, np.nan]), 10.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ContractViolation):
            Signal(np.array([1.0, 2.0]), 0.0)

    def test_samples_immutable(self):
        s = Signal(np.array([1.0, 2.0]), 10.0)
        with pytest.raises(ValueError):
            s.samples[0] = 5.0

    def test_times(self):
        s = Signal(np.array([0.0, 1.0, 2.0, 3.0]), 2.0)
        assert np.allclose(s.times(), [0.0, 0.5, 1.0, 1.5])
        assert s.duration_s == 2.0


class TestMultichannel:
    def test_requires_equal_lengths(self):
        with pytest.raises(ContractViolation):
            MultichannelSignal(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, np.nan]]), 5.0)

    def test_channel_view(self):
        mv = MultichannelSignal(np.array([[1.0, 2.0], [3.0, 4.0]]), 5.0)
        assert mv.n_channels == 2
        assert np.array_equal(mv.channel(1).samples, [3.0, 4.0])


class TestL2Norm:
    def test_zero_signal(self):
        assert l2_norm(Signal(np.zeros(17), 5.0)) == 0.0

    def test_constant_signal(self):
        # constant 3 over 4 samples: 3 * sqrt(4)
        assert l2_norm(Signal(np.full(4, 3.0), 5.0)) == pytest.approx(6.0)

    def test_unit_tone_direct_summation_oracle(self):
        s = tone(50.0, 1.0, 512.0)
        oracle = float(np.sqrt(np.sum(np.asarray(s.samples) ** 2)))
        assert l2_norm(s) == pytest.approx(oracle)
        assert l2_norm(s) == pytest.approx(np.sqrt(512 / 2), rel=0.01)


class TestArithmetic:
    def test_additive_inverse(self):
        s = tone(3.0, 1.0, 64.0)
        z = add(s, scale(s, -1.0))
        assert l2_norm(z) == 0.0

    def test_scale_zero(self):
        z = scale(Signal(np.zeros(8), 4.0), 7.0)
        assert l2_norm(z) == 0.0

    def test_mismatched_length_raises(self):
        with pytest.raises(ContractViolation):
            add(Signal(np.zeros(8), 4.0), Signal(np.zeros(9), 4.0))

    def test_mismatched_rate_raises(self):
        with pytest.raises(ContractViolation):
            add(Signal(np.zeros(8), 4.0), Signal(np.zeros(8), 5.0))

    def test_rate_tolerance_allows_divided_rates(self):
        a = Signal(np.zeros(8), 256.0)
        b = Signal(np.zeros(8), 256.0 * (1 + 1e-12))
        add(a, b)  # no raise

    @given(g=st.floats(-1e3, 1e3, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_l2_scale_covariance(self, g):
        s = tone(5.0, 0.5, 64.0)
        lhs = l2_norm(scale(s, g))
        rhs = abs(g) * l2_norm(s)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_add_commutative_associative(self, seed):
        gen = np.random.Generator(np.random.Philox(seed))
        xs = [Signal(gen.normal(size=32), 8.0) for _ in range(3)]
        ab = add(xs[0], xs[1])
        ba = add(xs[1], xs[0])
        assert np.allclose(ab.samples, ba.samples, rtol=1e-12)
        left = add(add(xs[0], xs[1]), xs[2])
        right = add(xs[0], add(xs[1], xs[2]))
        assert np.allclose(left.samples, right.samples, rtol=1e-12)


class TestDecomposition:
    def test_reconstruction_error(self):
        s = tone(4.0, 1.0, 32.0)
        d = Decomposition(modes=(s,), residual=scale(s, 0.0))
        assert d.reconstruction_error(s) == pytest.approx(0.0, abs=1e-12)

    def test_center_freq_count_checked(self):
        s = tone(4.0, 1.0, 32.0)
        with pytest.raises(ContractViolation):
            Decomposition(modes=(s,), residual=s, center_freqs_hz=(1.0, 2.0))

    def test_mode_rate_mismatch_rejected(self):
        a = tone(4.0, 1.0, 32.0)
        b = tone(4.0, 1.0, 64.0)
        with pytest.raises(ContractViolation):
            Decomposition(modes=(a,), residual=b)

    def test_if_tracks_frozen_copies(self):
        s = tone(4.0, 1.0, 32.0)
        track = np.full(len(s), 4.0)
        d = Decomposition(modes=(s,), residual=scale(s, 0.0), if_tracks_hz=(track,))
        assert d.if_tracks_hz[0] is not track
        with pytest.raises(ValueError):
            d.if_tracks_hz[0][0] = 5.0
        track[0] = 5.0
        assert d.if_tracks_hz[0][0] == 4.0

    def test_if_track_length_checked(self):
        s = tone(4.0, 1.0, 32.0)
        with pytest.raises(ContractViolation):
            Decomposition(modes=(s,), residual=s, if_tracks_hz=(np.full(len(s) - 1, 4.0),))


class TestModeModel:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(ContractViolation):
            ModeModel(ia_track=np.array([-1.0, 1.0]), phase_track=np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            ModeModel(ia_track=np.ones(3), phase_track=np.zeros(2))
