import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from sigdecomp._kernels import find_extrema_arrays, natural_spline
from sigdecomp.core import ContractViolation, MultichannelSignal, NumericalFailure, Signal, l2_norm
from sigdecomp import core, multivariate
from sigdecomp.emd import EmdConfig, emd_decompose
from sigdecomp.metrics import alignment_score, qrf
from sigdecomp.multivariate import (
    AlignedDecomposition,
    MemdConfig,
    MvmdConfig,
    _directional_envelope_stats,
    _mirrored_knots,
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

    def test_mirror_depth_is_emd_boundary(self):
        mv, _ = gen_mv_test(duration_s=0.5)
        x = noisy_mv_signal(mv, 10.0, 0)
        default = memd_decompose(x, MemdConfig(M=8))
        shallow = memd_decompose(x, MemdConfig(M=8, emd=EmdConfig(boundary=1)))
        assert shallow.reconstruction_error(x) < 1e-9 * np.linalg.norm(x.channels)
        modes = [np.array([m.samples for m in d.channel_modes[0]]) for d in (default, shallow)]
        assert not np.array_equal(*modes)  # unequal shapes count as unequal

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norms_keep_the_sift(self):
        # near 1e300 the norms of the mean envelope and of the envelope
        # spread overflow as plain sums of squares; sigma read NaN and every
        # sift ran to its cap.  A power-of-two scale must scale the modes exactly.
        mv, _ = gen_mv_test(duration_s=0.5)
        x = noisy_mv_signal(mv, 10.0, 0)
        exp = 996
        assert np.max(np.abs(np.ldexp(x.channels, exp))) > 1e300
        base = memd_decompose(x, MemdConfig(M=8))
        huge = memd_decompose(MultichannelSignal(np.ldexp(x.channels, exp), x.sample_rate_hz), MemdConfig(M=8))
        for modes, base_modes in zip(huge.channel_modes, base.channel_modes):
            assert len(modes) == len(base_modes)
            assert all(np.array_equal(np.ldexp(m.samples, -exp), m0.samples) for m, m0 in zip(modes, base_modes))

    def test_clean_mv_keeps_its_residual(self):
        # the README's memd line: the last remainder oscillates, but no
        # direction has two maxima and two minima; it stays the residual
        # instead of becoming a mode that leaves a zero residual
        x, _ = gen_mv_test()
        d = memd_decompose(x, MemdConfig(M=16))
        assert d.n_modes == 4
        residual = np.stack([r.samples for r in d.residuals], axis=1)
        assert np.all(np.any(residual != 0.0, axis=0))
        assert _directional_envelope_stats(residual, hypersphere_directions(16, 2), 2)[2] == 0

    def test_too_few_extrema_everywhere_is_all_residual(self):
        # 1.25 cycles: some projections oscillate, none has two maxima and
        # two minima; as EMD on one channel, no mode is extracted
        phase = 2 * np.pi * 1.25 * np.arange(200) / 200
        x = MultichannelSignal(np.stack([np.sin(phase), np.cos(phase)]), 200.0)
        d = memd_decompose(x, MemdConfig(M=16))
        assert d.n_modes == 0 and len(emd_decompose(x.channel(0)).modes) == 0
        assert all(np.array_equal(r.samples, c) for r, c in zip(d.residuals, x.channels))

    def test_requires_two_channels(self):
        x = MultichannelSignal(np.sin(np.arange(128))[None, :], 16.0)
        with pytest.raises(ContractViolation):
            memd_decompose(x)


def mirror_block(idx, depth):
    """One block's knot times and source samples: the extrema extended
    ``depth`` deep past each end (fewer if the block is short) by
    reflection about the first and last extremum."""
    left = idx[1 : depth + 1][::-1]
    right = idx[-depth - 1 : -1][::-1]
    times = np.concatenate([2 * idx[0] - left, idx, 2 * idx[-1] - right])
    return times.astype(np.float64), np.concatenate([left, idx, right])


def reference_envelope_stats(data, directions, depth):
    """The per-direction loop: project, find extrema, fit each envelope
    with scipy's natural spline, average over the usable directions."""
    query = np.arange(data.shape[0], dtype=np.float64)
    uppers, lowers = [], []
    for direction in directions:
        max_idx, min_idx = find_extrema_arrays(data @ direction)
        if max_idx.size < 2 or min_idx.size < 2:
            continue
        envelopes = []
        for idx in (max_idx, min_idx):
            times, sources = mirror_block(idx, depth)
            envelopes.append(CubicSpline(times, data[sources], bc_type="natural")(query))
        uppers.append(envelopes[0])
        lowers.append(envelopes[1])
    upper, lower = np.array(uppers), np.array(lowers)
    mean = np.mean(upper + lower, axis=0) / 2.0
    amplitude = np.mean(np.linalg.norm(upper - lower, axis=2), axis=0) / 2.0
    return mean, amplitude, len(uppers)


def assert_stats_match(data, directions, depth):
    mean, amplitude, used = _directional_envelope_stats(data, directions, depth)
    ref_mean, ref_amplitude, ref_used = reference_envelope_stats(data, directions, depth)
    assert used == ref_used
    assert np.max(np.abs(mean - ref_mean)) <= 1e-12 * np.max(np.abs(ref_mean))
    assert np.max(np.abs(amplitude - ref_amplitude)) <= 1e-12 * np.max(ref_amplitude)


def stacked_envelope_stats(
    data, directions, depth, spline=lambda *args: natural_spline(*args).values(), extrema=find_extrema_arrays
):
    """The stats with every envelope evaluated at once into one stack,
    then summed over it: ``spline`` returns the blocks stacked, ``extrema``
    selects the extrema of every projection."""
    n, n_ch = data.shape
    projections = data @ directions.T
    (max_idx, max_dir), (min_idx, min_dir) = extrema(projections)
    n_max = np.bincount(max_dir, minlength=len(directions))
    n_min = np.bincount(min_dir, minlength=len(directions))
    usable = (n_max >= 2) & (n_min >= 2)
    used = int(np.count_nonzero(usable))
    if used == 0:
        return np.zeros((n, n_ch)), np.zeros(n), 0
    times, sources, starts = _mirrored_knots(
        np.concatenate([max_idx[usable[max_dir]], min_idx[usable[min_dir]]]),
        np.concatenate([n_max[usable], n_min[usable]]),
        depth,
    )
    envelopes = spline(times, data[sources], np.arange(n, dtype=np.float64), starts)
    upper, lower = envelopes[:used], envelopes[used:]
    env_mean = np.sum(upper + lower, axis=0) / (2.0 * used)
    amplitude = np.sum(np.linalg.norm(upper - lower, axis=2), axis=0) / (2.0 * used)
    return env_mean, amplitude, used


def noisy_channels(n_channels, snr_db):
    """The 2 s bivariate test signal with up to two more channels of its
    sinusoids, each with its own noise, as an ``(n, n_channels)`` array."""
    mv, _ = gen_mv_test()
    bank = mv_component_bank(2.0, mv.sample_rate_hz)
    extra = [bank[2.0] + bank[20.0], bank[20.0] + bank[50.0]]
    channels = np.vstack([mv.channels, *extra[: n_channels - 2]])
    return noisy_mv_signal(MultichannelSignal(channels, mv.sample_rate_hz), snr_db, 0).channels.T


def stats_peak(n_channels):
    """The tracemalloc peak of one stats call on ``noisy_channels(n_channels, 10.0)``, M=64."""
    data = noisy_channels(n_channels, 10.0)
    directions = hypersphere_directions(64, n_channels)
    _directional_envelope_stats(data, directions, 2)  # the first spline loads LAPACK
    tracemalloc.start()
    try:
        _directional_envelope_stats(data, directions, 2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEnvelopeStats:
    """One batched pass over all directions against the per-direction loop."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("snr_db", [3.0, 10.0, 20.0])
    def test_matches_per_direction_loop(self, snr_db, depth):
        mv, _ = gen_mv_test()
        data = noisy_mv_signal(mv, snr_db, 0).channels.T
        assert_stats_match(data, hypersphere_directions(64, 2), depth)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_plateaus_keep_the_midpoint_rule(self, depth):
        # coarse steps repeat rows, so every projection has flat runs; the
        # batched search must place their extrema as one search per column does
        t = np.arange(256) / 64.0
        data = np.round(4.0 * np.stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * 1.5 * t)], axis=1)) / 4.0
        directions = hypersphere_directions(16, 2)
        projections = data @ directions.T
        assert np.all(np.any(np.diff(projections, axis=0) == 0, axis=0))
        (max_idx, max_dir), (min_idx, min_dir) = find_extrema_arrays(projections)
        for d in range(16):
            want_max, want_min = find_extrema_arrays(projections[:, d])
            assert np.array_equal(max_idx[max_dir == d], want_max)
            assert np.array_equal(min_idx[min_dir == d], want_min)
        assert_stats_match(data, directions, depth)

    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_knot_pass_equals_per_block_rule(self, rng, depth):
        counts = np.array([2, 3, 7, 2, 4, 30, 5])  # count 2 pads one knot per side at any depth
        idx = np.concatenate([np.sort(rng.choice(1000, size=c, replace=False)) for c in counts])
        times, sources, starts = _mirrored_knots(idx, counts, depth)
        blocks = [mirror_block(block, depth) for block in np.split(idx, np.cumsum(counts)[:-1])]
        assert np.array_equal(starts, np.cumsum([0] + [t.size for t, _ in blocks[:-1]]))
        assert times.dtype == np.float64
        assert np.array_equal(times, np.concatenate([t for t, _ in blocks]))
        assert np.array_equal(sources, np.concatenate([s for _, s in blocks]))

    def test_no_usable_direction(self):
        data = np.stack([np.linspace(0, 1, 64), np.linspace(1, 3, 64)], axis=1)
        mean, amplitude, used = _directional_envelope_stats(data, hypersphere_directions(8, 2), 2)
        assert used == 0
        assert not np.any(mean) and not np.any(amplitude)

    @pytest.mark.parametrize("exp", [0, 996])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("n_channels", [2, 3, 4])
    @pytest.mark.parametrize("M", [2, 8, 31, 32, 33, 63, 64, 65, 100, 128, 129])
    def test_groups_bit_identical_to_one_stack(self, M, n_channels, depth, exp):
        # groups of directions summed in turn against one stack summed at
        # once; at 2**996 the envelopes' norms overflow to inf, since MEMD
        # hands this kernel its input at unit peak and the kernel does not
        # rescale, and grouping must give the same bits there too
        data = np.ldexp(noisy_channels(n_channels, 10.0), exp)
        directions = hypersphere_directions(M, n_channels)
        with np.errstate(over="ignore"):
            got = _directional_envelope_stats(data, directions, depth)
            want = stacked_envelope_stats(data, directions, depth)
        assert got[2] == want[2] > 0
        for g, w in zip(got[:2], want[:2]):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("exp", [0, 996])
    @pytest.mark.parametrize("rows", [20, 32, 40, 128, 160])
    @pytest.mark.parametrize("n_channels", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["antipodes", "twins"])
    def test_repeated_directions_bit_identical_to_one_stack(self, kind, n_channels, rows, exp):
        # sets that repeat by construction: each direction's antipode, whose
        # maxima are its minima, or each direction twice; the repeats take
        # their rows from the first direction within a group, and have them
        # evaluated again across one; on 3 and 4 channels, at 128 antipodes
        # every repeat sits exactly one group after its first direction, and
        # at 160 every repeat crosses a group, whose rows then read out of order
        data = np.ldexp(noisy_channels(n_channels, 10.0), exp)
        base = hypersphere_directions(rows // 2, n_channels)
        directions = np.vstack([base, -base]) if kind == "antipodes" else np.repeat(base, 2, axis=0)
        with np.errstate(over="ignore"):
            got = _directional_envelope_stats(data, directions, 2)
            want = stacked_envelope_stats(data, directions, 2)
        assert got[2] == want[2] > 0
        for g, w in zip(got[:2], want[:2]):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_each_distinct_block_fitted_once(self, monkeypatch):
        # the multichannel benchmark's first sift (10 dB, M=64, base seed 0)
        class FirstSift(Exception):
            pass

        def capture(*args):
            raise FirstSift(*args)

        monkeypatch.setattr(multivariate, "_directional_envelope_stats", capture)
        with pytest.raises(FirstSift) as sift:
            memd_decompose(noisy_mv_signal(gen_mv_test()[0], 10.0, 0), MemdConfig(M=64))
        monkeypatch.undo()
        data, directions, depth = sift.value.args
        fitted, spline = [], multivariate.natural_spline

        def counted(xs, ys, q, starts):
            fitted.append(len(starts))
            return spline(xs, ys, q, starts)

        monkeypatch.setattr(multivariate, "natural_spline", counted)
        used = _directional_envelope_stats(data, directions, depth)[2]
        # the per-direction loop: each usable direction's maxima and minima
        projections = data @ directions.T
        blocks = set()
        for d in range(len(directions)):
            max_idx, min_idx = find_extrema_arrays(projections[:, d])
            if max_idx.size >= 2 and min_idx.size >= 2:
                blocks.update([max_idx.tobytes(), min_idx.tobytes()])
        assert fitted == [len(blocks)]
        assert len(blocks) < 2 * used

    def test_working_set(self):
        # one stats call as the multichannel benchmark makes it (10 dB, M=64):
        # every envelope stacked at once peaked at 8.55 MiB
        assert stats_peak(2) < 6 * 2**20

    def test_working_set_three_channels(self):
        # where few directions repeat another, a table of every distinct
        # block's values peaked at 8.21 MiB
        assert stats_peak(3) < 6 * 2**20


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

    @pytest.mark.parametrize(
        "bad",
        [{"alpha": -5.0}, {"alpha": 0.0}, {"tol": 0.0}, {"tau": -1.0}]
        + [{field: value} for field in ("alpha", "tol", "tau") for value in (np.nan, np.inf)]
        + [{"max_iters": 0}, {"init_mode": "random"}],
    )
    def test_config_checks_match_vmd(self, bad):
        with pytest.raises(ContractViolation):
            VmdConfig(**bad)
        with pytest.raises(ContractViolation):
            MvmdConfig(**bad)

    def test_config_is_vmds_with_the_zero_start(self):
        fields = dataclasses.fields(MvmdConfig)
        assert [f.name for f in fields] == [f.name for f in dataclasses.fields(VmdConfig)]
        assert [f.name for f in fields if f.default != getattr(VmdConfig(), f.name)] == ["init_mode"]
        assert MvmdConfig().init_mode == "zeros"

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

    @pytest.mark.parametrize(
        "channels,fs",
        [
            ((), 100.0),  # no channel
            ((Signal(np.ones(100), 100.0), Signal(np.ones(200), 200.0)), 50.0),  # lengths and rates differ
            ((Signal(np.ones(100), 100.0), Signal(np.ones(200), 100.0)), 100.0),  # lengths differ
            ((Signal(np.ones(100), 100.0), Signal(np.ones(100), 200.0)), 100.0),  # rates differ
            ((Signal(np.ones(100), 100.0),), 50.0),  # one channel off the stated rate
        ],
        ids=["none", "length-and-rate", "length", "rate", "stated-rate"],
    )
    def test_channels_of_one_length_and_rate_required(self, channels, fs):
        with pytest.raises(ContractViolation):
            AlignedDecomposition(
                channel_modes=tuple((r,) for r in channels), residuals=channels, sample_rate_hz=fs
            )

    def test_one_class_in_core(self):
        assert multivariate.AlignedDecomposition is core.AlignedDecomposition

    def test_of_indexes_modes_by_mode_then_channel(self, rng):
        modes, residuals = rng.normal(size=(3, 2, 50)), rng.normal(size=(2, 50))
        d = AlignedDecomposition.of(modes, residuals, 10.0, (1.0, 2.0, 3.0))
        assert (d.n_channels, d.n_modes, d.center_freqs_hz) == (2, 3, (1.0, 2.0, 3.0))
        assert all(np.array_equal(d.channel_modes[c][k].samples, modes[k, c]) for c in range(2) for k in range(3))
        assert all(np.array_equal(r.samples, residuals[c]) for c, r in enumerate(d.residuals))

    @pytest.mark.parametrize("exp", [0, -1000, 3, 1000])
    def test_of_builds_the_bits_of_a_hand_built_decomposition(self, rng, exp):
        modes, residuals = rng.normal(size=(3, 2, 50)), rng.normal(size=(2, 50))
        d = AlignedDecomposition.of(modes, residuals, 10.0, (1.0, 2.0, 3.0), exp)
        want = AlignedDecomposition(
            channel_modes=tuple(tuple(Signal(m[c] * 2.0**exp, 10.0) for m in modes) for c in range(2)),
            residuals=tuple(Signal(r * 2.0**exp, 10.0) for r in residuals),
            sample_rate_hz=10.0,
            center_freqs_hz=(1.0, 2.0, 3.0),
        )
        got_series = [*(m for ms in d.channel_modes for m in ms), *d.residuals]
        want_series = [*(m for ms in want.channel_modes for m in ms), *want.residuals]
        assert all(g.samples.tobytes() == w.samples.tobytes() for g, w in zip(got_series, want_series, strict=True))
        assert all(g.sample_rate_hz == 10.0 for g in got_series)
        assert d.center_freqs_hz == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("where", ["mode", "residual"])
    def test_of_past_float64_range_is_numerical_failure(self, where):
        big, small = np.full((2, 8), 0.75), np.full((2, 8), 0.25)  # 0.75 * 2**1025 overflows, 0.25 * 2**1025 does not
        modes, residuals = ([big], small) if where == "mode" else ([small], big)
        with pytest.raises(NumericalFailure, match="input's scale"):
            AlignedDecomposition.of(modes, residuals, 8.0, exp=1025)

    def test_reconstruction_error_over_all_channels(self, rng):
        modes, residuals, x = rng.normal(size=(3, 2, 50)), rng.normal(size=(2, 50)), rng.normal(size=(2, 50))
        d = AlignedDecomposition.of(modes, residuals, 10.0)
        want = np.linalg.norm(x - modes.sum(axis=0) - residuals)
        assert d.reconstruction_error(MultichannelSignal(x, 10.0)) == pytest.approx(want, rel=1e-14)
        for bad in (MultichannelSignal(x[:1], 10.0), MultichannelSignal(x[:, 1:], 10.0), MultichannelSignal(x, 20.0)):
            with pytest.raises(ContractViolation, match="geometry"):
                d.reconstruction_error(bad)


class TestChannelwiseBaseline:
    def test_independent_vmd_misaligns(self):
        from sigdecomp.bench import vmd_channelwise

        mv, table = gen_mv_test()
        x = noisy_mv_signal(mv, 40.0, 0)
        d = vmd_channelwise(x, K=3)
        assert not alignment_score(d, table, 1.0).passed
