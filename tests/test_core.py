import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdecomp.core import (
    AlignedDecomposition,
    ContractViolation,
    Decomposition,
    ModeModel,
    MultichannelSignal,
    NumericalFailure,
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


def as_signal(kind, samples, rate):
    """A ``Signal`` of ``samples``, or a two-channel signal whose second channel they are."""
    if kind is Signal:
        return Signal(samples, rate)
    return MultichannelSignal(np.stack([np.zeros(len(samples)), samples]), rate)


@pytest.mark.parametrize("kind", [Signal, MultichannelSignal])
class TestSampleCheck:
    """Both signal types freeze their samples and rate through one check,
    whose message says which of the two is at fault."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample(self, kind, bad):
        with pytest.raises(ContractViolation, match="samples must be finite"):
            as_signal(kind, np.array([1.0, bad, 2.0]), 10.0)

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.inf, np.nan])
    def test_bad_rate(self, kind, rate):
        with pytest.raises(ContractViolation, match="sample_rate_hz must be a positive finite number"):
            as_signal(kind, np.array([1.0, 2.0, 3.0]), rate)

    def test_frozen_float64_and_float_rate(self, kind):
        s = as_signal(kind, np.array([1, 2, 3]), 10)
        samples = s.samples if kind is Signal else s.channels
        assert samples.dtype == np.float64 and not samples.flags.writeable
        assert type(s.sample_rate_hz) is float


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

    @pytest.mark.parametrize("exp", [0, -1000, 3, 1000])
    def test_of_builds_the_bits_of_a_hand_built_decomposition(self, rng, exp):
        modes, residual = rng.normal(size=(3, 50)), rng.normal(size=50)
        centers, tracks = (1.0, 2.0, 3.0), rng.uniform(1.0, 4.0, size=(3, 50))
        d = Decomposition.of(modes, residual, 10.0, centers, tracks, exp)
        want = Decomposition(
            modes=tuple(Signal(m * 2.0**exp, 10.0) for m in modes),
            residual=Signal(residual * 2.0**exp, 10.0),
            center_freqs_hz=centers,
            if_tracks_hz=tuple(tracks),
        )
        got_series, want_series = (*d.modes, d.residual), (*want.modes, want.residual)
        assert all(g.samples.tobytes() == w.samples.tobytes() for g, w in zip(got_series, want_series, strict=True))
        assert all(g.sample_rate_hz == 10.0 for g in got_series)
        assert d.center_freqs_hz == centers
        assert all(g.tobytes() == w.tobytes() for g, w in zip(d.if_tracks_hz, tracks, strict=True))

    def test_of_defaults_to_no_centers_tracks_or_scaling(self, rng):
        modes = rng.normal(size=(2, 20))
        d = Decomposition.of(modes, np.zeros(20), 8.0)
        assert d.center_freqs_hz is None and d.if_tracks_hz is None
        assert all(np.array_equal(m.samples, w) for m, w in zip(d.modes, modes, strict=True))

    @pytest.mark.parametrize("where", ["mode", "residual"])
    def test_of_past_float64_range_is_numerical_failure(self, where):
        big, small = np.full(8, 0.75), np.full(8, 0.25)  # 0.75 * 2**1025 overflows, 0.25 * 2**1025 does not
        modes, residual = ([big], small) if where == "mode" else ([small], big)
        with pytest.raises(NumericalFailure, match="input's scale"):
            Decomposition.of(modes, residual, 8.0, exp=1025)

    @pytest.mark.parametrize("aligned", [False, True])
    @pytest.mark.parametrize("exp", [0, 3])
    def test_of_freezes_one_fresh_copy_per_row(self, rng, aligned, exp):
        # each row is scaled into its own array, scanned once and frozen as it
        # is, so it must still be a read-only float64 copy of the caller's row
        modes, residual = rng.normal(size=(2, 3, 40)), rng.normal(size=(3, 40))
        if aligned:
            d = AlignedDecomposition.of(modes, residual, 8.0, exp=exp)
            rows = [m.samples for ms in d.channel_modes for m in ms] + [r.samples for r in d.residuals]
        else:
            d = Decomposition.of(modes[:, 0], residual[0], 8.0, exp=exp)
            rows = [m.samples for m in d.modes] + [d.residual.samples]
        for row in rows:
            assert row.dtype == np.float64 and not row.flags.writeable and row.flags.c_contiguous
            assert not np.shares_memory(row, modes) and not np.shares_memory(row, residual)
        assert len({id(row) for row in rows}) == len(rows)
        modes[:] = 0.0  # the caller's arrays are its own
        assert all(np.any(row) for row in rows)

    @pytest.mark.parametrize("aligned", [False, True])
    def test_of_checks_rows_as_the_constructor_does(self, aligned):
        def of(mode, residual, fs=8.0, exp=0):
            if aligned:
                return AlignedDecomposition.of([mode[None]], residual[None], fs, exp=exp)
            return Decomposition.of([mode], residual, fs, exp=exp)

        ok = np.ones(8)
        with pytest.raises(NumericalFailure, match="input's scale"):  # not finite at unit peak is not either
            of(np.concatenate([[np.nan], ok[1:]]), ok)
        with pytest.raises(NumericalFailure, match="input's scale"):
            of(ok, np.full(8, 0.75), exp=1025)
        with pytest.raises(ContractViolation, match="length >= 2"):
            of(np.ones(1), np.ones(1))
        with pytest.raises(ContractViolation, match="sample_rate_hz"):
            of(ok, ok, fs=np.inf)


class TestModeModel:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(ContractViolation):
            ModeModel(ia_track=np.array([-1.0, 1.0]), phase_track=np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            ModeModel(ia_track=np.ones(3), phase_track=np.zeros(2))
