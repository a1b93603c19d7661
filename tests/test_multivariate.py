import numpy as np
import pytest

from sigdecomp.core import ContractViolation, MultichannelSignal, Signal, l2_norm
from sigdecomp.metrics import alignment_score, qrf
from sigdecomp.multivariate import (
    AlignedDecomposition,
    MemdConfig,
    MvmdConfig,
    hypersphere_directions,
    memd_decompose,
    mvmd_decompose,
)
from sigdecomp.synth import gen_mv_test, gen_s1, mv_component_bank
from sigdecomp.variational import VmdConfig, vmd_decompose
from sigdecomp.bench import noisy_mv_signal


class TestDirections:
    def test_four_on_circle_are_spread(self):
        dirs = hypersphere_directions(4, 2, seed=0)
        angles = [
            np.degrees(np.arccos(np.clip(np.dot(dirs[i], dirs[j]), -1, 1)))
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        assert min(angles) >= 60.0

    def test_unit_norm(self):
        for n_ch in (2, 3, 4, 6):
            dirs = hypersphere_directions(16, n_ch, seed=1)
            assert dirs.shape == (16, n_ch)
            assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_seed_determinism(self):
        a = hypersphere_directions(8, 3, seed=5)
        b = hypersphere_directions(8, 3, seed=5)
        assert np.array_equal(a, b)
        c = hypersphere_directions(8, 3, seed=6)
        assert not np.allclose(a, c)

    def test_single_channel_rejected(self):
        with pytest.raises(ContractViolation):
            hypersphere_directions(8, 1)


def ideal_aligned(duration=2.0, fs=256.0):
    bank = mv_component_bank(duration, fs)
    zero = np.zeros(int(duration * fs))
    ch1 = (Signal(bank[2.0], fs), Signal(zero + 1e-9 * bank[2.0], fs), Signal(bank[50.0], fs))
    ch2 = (Signal(bank[2.0], fs), Signal(bank[20.0], fs), Signal(bank[50.0], fs))
    residuals = (Signal(zero + 1e-12, fs), Signal(zero + 1e-12, fs))
    return AlignedDecomposition(channel_modes=(ch1, ch2), residuals=residuals, sample_rate_hz=fs)


class TestAlignmentScoring:
    def test_ideal_decomposition_passes(self):
        _, table = gen_mv_test()
        score = alignment_score(ideal_aligned(), table, 1.0)
        assert score.passed

    def test_swapped_modes_fail(self):
        _, table = gen_mv_test()
        d = ideal_aligned()
        ch2 = list(d.channel_modes[1])
        ch2[1], ch2[2] = ch2[2], ch2[1]  # swap 20 and 50 Hz in channel 2 only
        swapped = AlignedDecomposition(
            channel_modes=(d.channel_modes[0], tuple(ch2)),
            residuals=d.residuals,
            sample_rate_hz=d.sample_rate_hz,
        )
        score = alignment_score(swapped, table, 1.0)
        assert not score.passed


@pytest.fixture(scope="module")
def mv40():
    mv, table = gen_mv_test()
    return noisy_mv_signal(mv, 40.0, 0), table


class TestMemd:

    def test_reconstruction_per_channel(self, mv40):
        x, _ = mv40
        d = memd_decompose(x, MemdConfig(M=16))
        for c in range(x.n_channels):
            total = np.sum([m.samples for m in d.channel_modes[c]], axis=0)
            total = total + d.residuals[c].samples
            err = np.linalg.norm(x.channels[c] - total)
            assert err < 1e-9 * np.linalg.norm(x.channels[c])

    def test_mode_count_channel_invariant(self, mv40):
        x, _ = mv40
        d = memd_decompose(x, MemdConfig(M=16))
        counts = {len(modes) for modes in d.channel_modes}
        assert len(counts) == 1

    def test_aligned_at_low_noise(self, mv40):
        x, table = mv40
        d = memd_decompose(x, MemdConfig(M=64))
        assert alignment_score(d, table, 1.0).passed

    def test_misaligned_at_high_noise(self):
        mv, table = gen_mv_test()
        x = noisy_mv_signal(mv, 10.0, 0)
        d = memd_decompose(x, MemdConfig(M=64))
        assert not alignment_score(d, table, 1.0).passed

    def test_requires_two_channels(self):
        x = MultichannelSignal(np.sin(np.arange(128))[None, :], 16.0)
        with pytest.raises(ContractViolation):
            memd_decompose(x)


class TestMvmd:
    def test_centers_and_alignment_low_noise(self):
        mv, table = gen_mv_test()
        x = noisy_mv_signal(mv, 40.0, 0)
        d, report = mvmd_decompose(x, MvmdConfig(K=3))
        bin_hz = mv.sample_rate_hz / (2 * mv.n_samples)
        for target, center in zip((2.0, 20.0, 50.0), d.center_freqs_hz):
            assert abs(center - target) <= max(2 * bin_hz, 0.5)
        assert alignment_score(d, table, 1.0).passed

    def test_alignment_survives_heavy_noise(self):
        mv, table = gen_mv_test()
        x = noisy_mv_signal(mv, 10.0, 0)
        d, _ = mvmd_decompose(x, MvmdConfig(K=3))
        assert alignment_score(d, table, 1.0).passed

    def test_shared_center_frequency_is_single_valued(self):
        mv, _ = gen_mv_test()
        d, _ = mvmd_decompose(noisy_mv_signal(mv, 40.0, 0), MvmdConfig(K=3))
        # one frequency per mode, stored once for all channels
        assert len(d.center_freqs_hz) == d.n_modes

    @pytest.mark.parametrize("bad", [{"alpha": -5.0}, {"alpha": 0.0}, {"tol": 0.0}, {"tau": -1.0}])
    def test_config_checks_match_vmd(self, bad):
        with pytest.raises(ContractViolation):
            VmdConfig(**bad)
        with pytest.raises(ContractViolation):
            MvmdConfig(**bad)

    def test_one_channel_is_vmd(self):
        x, _ = gen_s1()
        joint, joint_report = mvmd_decompose(
            MultichannelSignal(x.samples[None, :], x.sample_rate_hz),
            MvmdConfig(K=3, tau=0.5, init_mode="uniform"),
        )
        single, report = vmd_decompose(x, VmdConfig(K=3, tau=0.5, init_mode="uniform"))
        assert joint_report.iterations == report.iterations
        assert joint.center_freqs_hz == single.center_freqs_hz
        for a, b in zip(joint.channel_modes[0], single.modes):
            assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("n", [511, 513])
    def test_odd_sample_count(self, n):
        fs = 512.0
        t = np.arange(n) / fs
        low, high = np.cos(2 * np.pi * 20.0 * t), np.cos(2 * np.pi * 60.0 * t)
        x = MultichannelSignal(np.stack([low + high, low - 0.5 * high]), fs)
        d, _ = mvmd_decompose(x, MvmdConfig(K=2))
        assert abs(d.center_freqs_hz[0] - 20.0) <= 1.0
        assert abs(d.center_freqs_hz[1] - 60.0) <= 1.0
        for c in range(2):
            modes = d.channel_modes[c]
            assert all(len(m) == n for m in modes)
            rebuilt = sum(m.samples for m in modes) + d.residuals[c].samples
            assert np.max(np.abs(rebuilt - x.channels[c])) < 1e-9
        assert qrf(d.channel_modes[0][0], Signal(low, fs)) >= 20.0
        assert qrf(d.channel_modes[1][1], Signal(-0.5 * high, fs)) >= 20.0

    def test_mode_count_mismatch_rejected(self):
        fs = 64.0
        a = Signal(np.sin(np.arange(128) / 4), fs)
        with pytest.raises(ContractViolation):
            AlignedDecomposition(
                channel_modes=((a,), (a, a)),
                residuals=(a, a),
                sample_rate_hz=fs,
            )


class TestChannelwiseBaseline:
    def test_independent_vmd_misaligns(self):
        from sigdecomp.bench import vmd_channelwise

        mv, table = gen_mv_test()
        x = noisy_mv_signal(mv, 40.0, 0)
        d = vmd_channelwise(x, K=3)
        assert not alignment_score(d, table, 1.0).passed
