"""Behavior checks for the numeric kernels against independent oracles:
a strict-extrema comparison, scipy's natural ``CubicSpline`` and
``solve_banded``, a hand-walked ridge and the ridge walk frame by frame;
and each kernel on degenerate shapes in a child process with glibc's heap
checks on."""

import functools
import json
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from sigdecomp import _kernels as K
from sigdecomp import bench, multivariate
from sigdecomp.core import NumericalFailure
from sigdecomp.emd import emd_decompose
from sigdecomp.multivariate import MemdConfig, memd_decompose
from sigdecomp.synth import gen_mv_test
from test_io_cli import child_env
from test_multivariate import stacked_envelope_stats


class TestExtremaParity:
    @pytest.mark.parametrize(
        "x, want_max, want_min",
        [
            ([0, 1, 0, -1, 0, 1, 0], [1, 5], [3]),
            ([0, 1, 1, 1, 0], [2], []),
            ([0, 1, 1, 0, 0, -1, -1, 0], [1], [5]),  # even plateaus round down
            ([0, 1, 2, 3], [], []),
            ([3, 2, 1], [], []),
        ],
    )
    def test_cases_match_both_paths(self, x, want_max, want_min):
        # the maxima and the minima path: negating the input swaps them
        mx, mn = K.find_extrema_arrays(np.asarray(x, float))
        assert list(mx) == want_max
        assert list(mn) == want_min
        mx, mn = K.find_extrema_arrays(-np.asarray(x, float))
        assert list(mx) == want_min
        assert list(mn) == want_max

    def test_random_parity(self, rng):
        # rng.normal has no ties, so every extremum is a strict one
        for _ in range(20):
            x = rng.normal(size=200)
            inner = x[1:-1]
            want_max = np.flatnonzero((inner > x[:-2]) & (inner > x[2:])) + 1
            want_min = np.flatnonzero((inner < x[:-2]) & (inner < x[2:])) + 1
            mx, mn = K.find_extrema_arrays(x)
            assert np.array_equal(mx, want_max)
            assert np.array_equal(mn, want_min)


def assert_columns_match(x):
    """The batched search equals one 1-D search per column, column by column."""
    families = K.find_extrema_arrays(x)
    for family, (idx, columns) in enumerate(families):
        assert idx.dtype == columns.dtype == np.int64
        assert np.all(np.diff(columns) >= 0)  # column by column
        for c in range(x.shape[1]):
            assert np.array_equal(idx[columns == c], K.find_extrema_arrays(x[:, c])[family])


class TestExtremaBatch:
    """One call on ``(n, C)`` against one call per column."""

    @pytest.mark.parametrize("n_columns", [1, 3, 17])
    def test_random_columns(self, rng, n_columns):
        assert_columns_match(np.cumsum(rng.normal(size=(200, n_columns)), axis=0))

    def test_plateaus_at_column_ends(self, rng):
        # repeated samples at both ends of every column, and a plateau that
        # is an extremum next to a column's first and last steps
        x = np.round(np.cumsum(rng.normal(size=(60, 5)), axis=0))
        x[:4] = x[4]
        x[-3:] = x[-4]
        x[:, 2] = [0, 1, 1, 1, 0] + [0] * 50 + [0, -1, -1, 0, 0]
        assert_columns_match(x)
        (idx, columns), (min_idx, min_columns) = K.find_extrema_arrays(x[:, [2]])
        assert list(idx) == [2] and list(min_idx) == [56]  # even plateaus round down

    def test_constant_and_single_extremum_columns(self):
        t = np.linspace(0.0, 1.0, 50)
        x = np.stack([np.full(50, 3.0), np.sin(np.pi * t), np.cos(6 * np.pi * t), -np.sin(np.pi * t)], axis=1)
        assert_columns_match(x)
        (idx, columns), (min_idx, min_columns) = K.find_extrema_arrays(x)
        assert 0 not in columns and 0 not in min_columns  # the constant column has none
        assert list(columns).count(1) == 1 and 1 not in min_columns  # one maximum, no minimum
        assert list(min_columns).count(3) == 1 and 3 not in columns

    def test_two_samples(self, rng):
        x = rng.normal(size=(2, 4))
        (idx, _), (min_idx, _) = K.find_extrema_arrays(x)
        assert idx.size == min_idx.size == 0
        assert_columns_match(x)

    def test_flip_across_columns_is_no_extremum(self):
        # column 0 ends rising and column 1 starts falling: laid end to end
        # their steps flip sign, but neither column has an extremum there
        x = np.array([[0.0, 5.0], [1.0, 4.0], [2.0, 3.0]])
        (idx, columns), (min_idx, min_columns) = K.find_extrema_arrays(x)
        assert idx.size == columns.size == min_idx.size == min_columns.size == 0
        # flat joins too: column 0 ends on a plateau, column 1 starts on one
        x = np.array([[0.0, 5.0], [1.0, 5.0], [1.0, 4.0], [1.0, 4.0]])
        assert all(a.size == 0 for family in K.find_extrema_arrays(x) for a in family)
        assert_columns_match(x)


def where_extrema(x):
    """The reference selection: a ``np.where`` kind per flip, then four masks."""
    x = np.asarray(x, dtype=np.float64)
    width = max(x.shape[0] - 1, 1)
    steps = np.diff(x, axis=0).T.ravel()
    nz = np.flatnonzero(steps)
    s = np.sign(steps[nz])
    flip = np.flatnonzero(s[:-1] != s[1:])
    left, right = nz[flip], nz[flip + 1]
    column = left // width
    idx = (left + 1 + right) // 2 - column * width
    kind = np.where(right // width == column, s[flip], 0.0)
    if x.ndim == 1:
        return idx[kind > 0], idx[kind < 0]
    return (idx[kind > 0], column[kind > 0]), (idx[kind < 0], column[kind < 0])


def assert_same_arrays(got, want):
    """The same nesting of tuples, and arrays of the same dtype, shape and bytes."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_arrays(g, w)
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def plateaus_at_column_ends(rng):
    x = np.round(np.cumsum(rng.normal(size=(60, 5)), axis=0))
    x[:4] = x[4]
    x[-3:] = x[-4]
    x[:, 2] = [0, 1, 1, 1, 0] + [0] * 50 + [0, -1, -1, 0, 0]
    return x


EXTREMA_CASES = {
    "plateaus-at-column-ends": plateaus_at_column_ends,
    "flips-across-columns": lambda rng: np.array([[0.0, 5.0, 5.0], [1.0, 4.0, 5.0], [2.0, 3.0, 4.0]]),
    "flat-joins": lambda rng: np.array([[0.0, 5.0], [1.0, 5.0], [1.0, 4.0], [1.0, 4.0]]),
    "constant-columns": lambda rng: np.stack(
        [np.full(50, 3.0), np.sin(np.linspace(0.0, 9.0, 50)), np.zeros(50), np.full(50, -1.0)], axis=1
    ),
    "random-columns": lambda rng: np.cumsum(rng.normal(size=(200, 17)), axis=0),
    "two-samples": lambda rng: rng.normal(size=(2, 4)),
    # a NaN step's sign is NaN: the flips around it are neither maximum nor minimum
    "not-a-number": lambda rng: np.array(
        [[0.0, 1.0, np.nan, 1.0, 0.0, -1.0, 0.0], [3.0, np.nan, 2.0, 1.0, 2.0, 1.0, 2.0]]
    ).T,
}


class TestExtremaSelection:
    """The kernel's two index sets against the reference selection: the
    same values and dtypes for a batch of columns and for each column."""

    @pytest.mark.parametrize("case", EXTREMA_CASES)
    def test_equals_reference(self, rng, case):
        x = EXTREMA_CASES[case](rng)
        assert_same_arrays(K.find_extrema_arrays(x), where_extrema(x))
        for c in range(x.shape[1]):
            assert_same_arrays(K.find_extrema_arrays(x[:, c]), where_extrema(x[:, c]))


def spline(xs, ys, q, starts=None):
    """The kernel's fit evaluated at every block: one block's values, or
    every block's stacked on a new first axis when ``starts`` is given."""
    out = K.natural_spline(xs, ys, q, starts).values()
    return out[0] if starts is None else out


class TestSplineParity:
    def test_matches_scipy_natural(self, rng):
        xs = np.sort(rng.uniform(0, 100, size=12))
        xs += np.arange(12) * 1e-3  # ensure strict increase
        ys = rng.normal(size=12)
        q = np.linspace(xs[0], xs[-1], 200)
        mine = spline(xs, ys, q)
        ref = CubicSpline(xs, ys, bc_type="natural")(q)
        assert np.max(np.abs(mine - ref)) < 1e-9 * max(np.max(np.abs(ref)), 1.0)

    def test_two_knots_linear(self):
        xs = np.array([0.0, 2.0])
        ys = np.array([1.0, 5.0])
        q = np.array([-1.0, 0.5, 3.0])
        out = spline(xs, ys, q)
        assert np.allclose(out, [-1.0, 2.0, 7.0])

    def test_extrapolation_matches_scipy(self, rng):
        xs = np.arange(10.0)
        ys = rng.normal(size=10)
        q = np.array([-2.0, -0.5, 9.5, 11.0])
        mine = spline(xs, ys, q)
        ref = CubicSpline(xs, ys, bc_type="natural")(q)
        assert np.allclose(mine, ref, atol=1e-9)

    @pytest.mark.parametrize("n_knots", [2, 3, 17])
    def test_columns_equal_per_column_calls(self, rng, n_knots):
        xs = np.cumsum(rng.uniform(0.5, 3.0, size=n_knots))
        ys = rng.normal(size=(n_knots, 3))
        q = np.linspace(xs[0] - 2.0, xs[-1] + 2.0, 50)  # includes extrapolation
        out = spline(xs, ys, q)
        assert out.shape == (q.size, 3)
        for c in range(3):
            assert np.array_equal(out[:, c], spline(xs, ys[:, c], q))


def random_knots(rng, n_knots, n_channels):
    """Random values at ``n_knots`` uneven knots that span 0 ... 100."""
    xs = np.cumsum(rng.uniform(0.5, 3.0, size=n_knots))
    xs = 100.0 * (xs - xs[0]) / (xs[-1] - xs[0])
    shape = (n_knots,) if n_channels is None else (n_knots, n_channels)
    return xs, rng.normal(size=shape)


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSplineBlocks:
    """Each block of one call against scipy's natural spline of that block."""

    @pytest.mark.parametrize("n_channels", [None, 3])
    @pytest.mark.parametrize("n_knots", [2, 3, 40])
    def test_one_block_matches_scipy(self, rng, n_knots, n_channels):
        for _ in range(5):
            xs, ys = random_knots(rng, n_knots, n_channels)
            q = np.linspace(-5.0, 105.0, 301)  # both ends extrapolate
            assert_close(spline(xs, ys, q), CubicSpline(xs, ys, bc_type="natural")(q))

    @pytest.mark.parametrize("n_channels", [None, 2])
    def test_blocks_equal_separate_calls(self, rng, n_channels):
        blocks = [random_knots(rng, n, n_channels) for n in (40, 2, 3, 17, 2, 40)]
        q = np.arange(-5.0, 106.0)  # outside every block on both sides
        starts = np.cumsum([0] + [xs.size for xs, _ in blocks[:-1]])
        out = spline(
            np.concatenate([xs for xs, _ in blocks]), np.concatenate([ys for _, ys in blocks]), q, starts
        )
        assert out.shape == (len(blocks), q.size) + blocks[0][1].shape[1:]
        for got, (xs, ys) in zip(out, blocks):
            assert_close(got, spline(xs, ys, q))
            assert_close(got, CubicSpline(xs, ys, bc_type="natural")(q))


def gather_spline(xs, ys, q, starts=None):
    """The reference evaluation: each query's interval from one search of
    the inner knots among the queries, a bincount and a cumsum, then one
    gather of the interval's cubic; the coefficients as in the kernel."""
    xs, ys, q = (np.asarray(a, dtype=np.float64) for a in (xs, ys, q))
    k = xs.shape[0]
    firsts = np.zeros(1, dtype=np.int64) if starts is None else np.asarray(starts, dtype=np.int64)
    lasts = np.append(firsts[1:], k) - 1
    ends = np.concatenate([firsts, lasts])
    values = ys.reshape(k, -1)
    h = np.diff(xs)
    h[lasts[:-1]] = 1.0
    bands = np.empty((3, k))
    bands[0, 1:] = h
    bands[1, 1:-1] = 2.0 * (h[:-1] + h[1:])
    bands[2, :-1] = h
    rhs = np.empty_like(values, order="F")
    slope = np.diff(values, axis=0) / h[:, None]
    rhs[1:-1] = 6.0 * (slope[1:] - slope[:-1])
    bands[1, ends] = 1.0
    bands[0, (ends + 1) % k] = 0.0
    bands[2, ends - 1] = 0.0
    rhs[ends] = 0.0
    *_, m, _ = K.dgtsv(bands[2, :-1], bands[1], bands[0, 1:], rhs)
    m = m.T
    coef = np.empty((4, m.shape[0], k - 1))
    coef[0] = values[:-1].T
    coef[1] = slope.T - h * (2.0 * m[:, :-1] + m[:, 1:]) / 6.0
    coef[2] = m[:, :-1] / 2.0
    coef[3] = (m[:, 1:] - m[:, :-1]) / (6.0 * h)

    n_blocks, n_q = firsts.size, q.size
    inner = np.ones(k, dtype=bool)
    inner[ends] = False
    block = np.repeat(np.arange(n_blocks), lasts - firsts + 1)
    slot = block[inner] * (n_q + 1) + np.searchsorted(q, xs[inner])
    passed = np.bincount(slot, minlength=n_blocks * (n_q + 1)).reshape(n_blocks, n_q + 1)
    j = (np.cumsum(passed[:, :-1], axis=1) + firsts[:, None]).ravel()
    c = np.take(coef, j, axis=2)
    t = np.tile(q, n_blocks) - xs[j]
    out = c[3] * t + c[2]
    for power in (1, 0):
        out *= t
        out += c[power]
    out = out.reshape((c.shape[1], n_blocks, n_q)).transpose(1, 2, 0).reshape((n_blocks, n_q) + ys.shape[1:])
    return out[0] if starts is None else out


# blocks as knot counts (random knots over 0 ... 100) or explicit knot
# times, and the queries; a single block goes without ``starts``
SPLINE_CASES = {
    "two-knot-blocks": ([2, 2, 2], np.arange(-5.0, 106.0)),
    "inner-knots-beyond-queries": ([[0.0, 200.0, 300.0, 400.0], 17], np.linspace(-5.0, 100.0, 64)),
    "queries-left": ([40, 3, 2], np.linspace(-50.0, -1.0, 30)),
    "queries-right": ([40, 3, 2], np.linspace(101.0, 150.0, 30)),
    "queries-on-knots": ([[0.0, 1.0, 2.0, 5.0, 6.0], [2.0, 3.0]], np.repeat(np.arange(-2.0, 9.0), 2)),
    "single-query": ([40, 2, 17], np.array([37.5])),
    "empty-queries": ([40, 2, 17], np.empty(0)),
    "many-blocks": ([40, 2, 3, 17, 2, 512], np.arange(-5.0, 106.0, 0.25)),
    "one-block": ([40], np.linspace(-5.0, 105.0, 301)),
    "one-block-inner-knots-beyond-queries": ([[0.0, 200.0, 300.0]], np.arange(10.0)),
}


def spline_case(rng, case, n_channels):
    """The kernel's arguments for one ``SPLINE_CASES`` entry, with random
    values of shape ``(k,)`` (``n_channels`` None) or ``(k, n_channels)``."""
    blocks, q = SPLINE_CASES[case]
    xs = [np.asarray(b) if isinstance(b, list) else random_knots(rng, b, None)[0] for b in blocks]
    channels = () if n_channels is None else (n_channels,)
    ys = [rng.normal(size=(x.size,) + channels) for x in xs]
    starts = None if len(xs) == 1 else np.cumsum([0] + [x.size for x in xs[:-1]])
    return np.concatenate(xs), np.concatenate(ys), q, starts


class TestSplineEvaluation:
    """The kernel's runs of queries per interval against the reference gather."""

    @pytest.mark.parametrize("n_channels", [None, 1, 3])
    @pytest.mark.parametrize("case", SPLINE_CASES)
    def test_bytes_equal_reference(self, rng, case, n_channels):
        args = spline_case(rng, case, n_channels)
        assert_same_arrays(spline(*args), gather_spline(*args))

    @pytest.mark.parametrize("n_channels", [None, 1, 3])
    @pytest.mark.parametrize("case", SPLINE_CASES)
    def test_block_ranges_equal_slices(self, rng, case, n_channels):
        # every range of blocks, empty ones included, against one evaluation of all
        pieces = K.natural_spline(*spline_case(rng, case, n_channels))
        full = pieces.values()
        for lo in range(full.shape[0] + 1):
            for hi in range(lo, full.shape[0] + 1):
                assert_same_arrays(pieces.values(np.arange(lo, hi)), full[lo:hi])

    @pytest.mark.parametrize("n_channels", [None, 1, 3])
    @pytest.mark.parametrize("case", SPLINE_CASES)
    def test_block_lists_equal_gathers(self, rng, case, n_channels):
        # lists that reorder and repeat blocks, against those rows of all
        pieces = K.natural_spline(*spline_case(rng, case, n_channels))
        full = pieces.values()
        n_blocks = full.shape[0]
        for blocks in ([n_blocks - 1, 0, n_blocks - 1], rng.integers(0, n_blocks, size=2 * n_blocks)):
            assert_same_arrays(pieces.values(blocks), full[blocks])

    def test_random_blocks_bytes_equal_reference(self, rng):
        for _ in range(20):
            blocks = [random_knots(rng, n, 2) for n in rng.integers(2, 30, size=rng.integers(1, 8))]
            q = np.sort(np.round(rng.uniform(-10.0, 110.0, size=rng.integers(0, 300))))  # ties and knots
            starts = np.cumsum([0] + [xs.size for xs, _ in blocks[:-1]])
            xs, ys = (np.concatenate(parts) for parts in zip(*blocks))
            args = (xs, ys, q, starts)
            assert_same_arrays(spline(*args), gather_spline(*args))


def scipy_dgtsv(dl, d, du, b, **overwrite):
    """The reference solve: ``solve_banded((1, 1), ...)`` behind ``dgtsv``'s signature."""
    bands = np.zeros((3, d.size))
    bands[0, 1:], bands[1], bands[2, :-1] = du, d, dl
    return dl, d, du, solve_banded((1, 1), bands, b), 0


class TestSplineSolve:
    """The kernel's ``dgtsv`` call against scipy's wrapper around the same routine."""

    @pytest.mark.parametrize("n_channels", [None, 3])
    def test_blocks_bit_identical(self, rng, monkeypatch, n_channels):
        blocks = [random_knots(rng, n, n_channels) for n in (40, 2, 3, 17, 512)]
        args = (
            np.concatenate([xs for xs, _ in blocks]),
            np.concatenate([ys for _, ys in blocks]),
            np.arange(-5.0, 106.0, 0.25),
            np.cumsum([0] + [xs.size for xs, _ in blocks[:-1]]),
        )
        got = spline(*args)
        monkeypatch.setattr(K, "dgtsv", scipy_dgtsv)
        assert np.array_equal(got, spline(*args))

    @pytest.mark.parametrize("method", ["emd_s1", "emd_s2", "memd"])
    def test_recipes_bit_identical(self, monkeypatch, method):
        def modes():
            if method == "memd":
                mv, _ = gen_mv_test()
                d = memd_decompose(bench.noisy_mv_signal(mv, 10.0, 0), MemdConfig(M=8))
                return [m.samples for ms in d.channel_modes for m in ms]
            x, _ = bench.generate_signal(method[-2:])
            return [m.samples for m in emd_decompose(x).modes]

        got = modes()
        monkeypatch.setattr(K, "dgtsv", scipy_dgtsv)
        want = modes()
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_multichannel_workload_bit_identical(self, monkeypatch):
        # memd as the multichannel benchmark runs it (M=64, 10 dB, base
        # seed 0) against every envelope stacked and summed at once, from
        # the reference spline evaluation and extrema selection
        def modes():
            mv, _ = gen_mv_test()
            d = memd_decompose(bench.noisy_mv_signal(mv, 10.0, 0), MemdConfig(M=64))
            return [m.samples for ms in d.channel_modes for m in ms]

        got = modes()
        monkeypatch.setattr(
            multivariate,
            "_directional_envelope_stats",
            functools.partial(stacked_envelope_stats, spline=gather_spline, extrema=where_extrema),
        )
        want = modes()
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_singular_system_is_numerical_failure(self):
        # a repeated knot is outside the contract; its zero-width interval
        # makes the system singular, which is reported, not solved
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure, match="singular"):
                K.natural_spline(np.zeros(3), np.zeros(3), np.zeros(1))


def reference_walk(energy, seed_f, seed_t, max_step, floor, patience, events):
    """The ridge walk frame by frame with a clipped window and ``np.argmax``,
    adding to ``events`` the edge cases each step met."""
    n_f, n_t = energy.shape
    bins = np.full(n_t, seed_f, dtype=np.int64)
    valid = np.zeros(n_t, dtype=bool)
    valid[seed_t] = True
    for frames in (range(seed_t + 1, n_t), range(seed_t - 1, -1, -1)):
        cur, dead = seed_f, 0
        for t in frames:
            lo, hi = max(cur - max_step, 0), min(cur + max_step + 1, n_f)
            window = energy[lo:hi, t]
            best = lo + int(np.argmax(window))
            events.update(
                name for name, hit in (
                    ("tie", np.count_nonzero(window == window.max()) > 1),
                    ("clipped at 0", cur - max_step < 0),
                    ("clipped at n_f - 1", cur + max_step + 1 > n_f),
                    ("best at the floor", energy[best, t] == floor),
                ) if hit
            )
            if energy[best, t] > floor:
                cur, bins[t], valid[t], dead = best, best, True, 0
            else:
                bins[t] = cur
                dead += 1
                if dead > patience:
                    events.add("patience reached")
                    break
    return bins, valid


class TestRidgeWalkParity:
    def test_matches_frame_by_frame_walk(self):
        # small integer energies make ties and cells at the floor common
        rng = np.random.default_rng(7)
        events = set()
        for case in range(300):
            n_f, n_t = rng.integers(1, 12), rng.integers(1, 40)
            energy = rng.integers(0, 4, size=(n_f, n_t)).astype(float)
            seed_f = int(rng.integers(n_f))
            seed_t = (0, n_t - 1, int(rng.integers(n_t)))[case % 3]  # first frame, last frame, any
            max_step, patience = int(rng.integers(1, 5)), int(rng.integers(0, 4))
            floor = float(rng.integers(0, 4))
            want = reference_walk(energy, seed_f, seed_t, max_step, floor, patience, events)
            got = K.walk_ridge(energy, seed_f, seed_t, max_step, floor, patience)
            assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert events == {"tie", "clipped at 0", "clipped at n_f - 1", "best at the floor", "patience reached"}

    def test_paths_identical(self):
        # seed (2, 4); max_step 1, floor 0.5, patience 1
        energy = np.zeros((6, 9))
        energy[2, 4] = 5.0
        energy[3, 5], energy[0, 5] = 2.0, 9.0  # bin 0 lies outside the step window
        energy[4, 6] = 2.0
        energy[0, 7], energy[3, 7] = 9.0, 0.5  # frame 7 dead (at the floor): hold bin 4
        energy[5, 8] = 1.0
        energy[1, 3] = 2.0  # backwards: frames 2 and 1 dead, walk stops at 1
        energy[1, 0] = 3.0  # never reached
        bins, valid = K.walk_ridge(energy, 2, 4, 1, 0.5, 1)
        assert list(bins) == [2, 1, 1, 1, 2, 3, 4, 4, 5]
        assert list(valid) == [False, False, False, True, True, True, True, False, True]

    def test_patience_stops_walk(self):
        energy = np.zeros((10, 100))
        energy[5, 40:60] = 1.0
        bins, valid = K.walk_ridge(energy, 5, 50, 2, 0.5, 5)
        assert valid[40:60].all()
        # walk must stop within `patience` frames outside the live region
        assert not valid[:33].any()
        assert not valid[67:].any()

    def test_step_constraint(self, rng):
        energy = rng.random((40, 200))
        bins, _ = K.walk_ridge(energy, 20, 100, 4, 0.0, 10)
        assert np.max(np.abs(np.diff(bins))) <= 4


class TestDispatch:
    def test_public_names_work(self):
        # callers hold the kernels under their own names; those must be the kernels
        from sigdecomp import emd, multivariate, sst

        for mod in (emd, multivariate):
            assert mod.find_extrema_arrays is K.find_extrema_arrays
            assert mod.natural_spline is K.natural_spline
        assert sst.walk_ridge is K.walk_ridge
        x = np.sin(np.arange(100) / 3.0)
        mx, mn = K.find_extrema_arrays(x)
        assert mx.size > 0 and mn.size > 0
        out = spline(np.arange(5.0), np.ones(5), np.linspace(0, 4, 9))
        assert np.allclose(out, 1.0)


# Kernel calls on degenerate shapes, as Python expressions over DEGENERATE_PRELUDE.
DEGENERATE_CALLS = {
    "spline, zero channels": "natural_spline(np.arange(50.0), np.empty((50, 0)), np.linspace(0, 49, 9)).values()",
    "spline, zero channels, empty queries": "natural_spline(np.arange(3.0), np.empty((3, 0)), np.empty(0)).values([])",
    "spline, one two-knot block": "natural_spline(np.array([0.0, 1.0]), np.array([1.0, 3.0]), np.linspace(-1, 2, 7)).values()",
    "spline, two-knot blocks": (
        "natural_spline(np.array([0.0, 1.0, 0.0, 2.0]), np.ones((4, 3)), np.linspace(0, 2, 5), np.array([0, 2]))"
        ".values([1, 0, 1])"
    ),
    "spline, empty queries": "natural_spline(np.arange(4.0), np.ones((4, 2)), np.empty(0)).values()",
    "spline, empty block list": "natural_spline(np.arange(4.0), np.ones(4), np.arange(4.0)).values([])",
    "extrema, length-2 series": "find_extrema_arrays(np.array([1.0, 2.0]))",
    "extrema, length-2 columns": "find_extrema_arrays(np.ones((2, 3)))",
    "extrema, zero channels": "find_extrema_arrays(np.empty((5, 0)))",
    "banded solve, zero channels": "solve_banded(diagonal_bands(6), np.empty((6, 0), order='F'))",
    "banded solve, length 2": "solve_banded(diagonal_bands(2), np.ones((2, 2), order='F'))",
    "ridge walk, length-2 series": "walk_ridge(np.ones((3, 2)), 1, 0, 1, 0.0, 1)",
    "ridge walk, one bin": "walk_ridge(np.ones((1, 5)), 0, 4, 3, 0.5, 0)",
    "cwt, length-2 series": "cwt_morlet(Signal(np.ones(2), 64.0))",
    "cwt, 64 samples": "cwt_morlet(Signal(np.ones(64), 64.0))",
}

DEGENERATE_PRELUDE = """
import numpy as np
from sigdecomp._kernels import find_extrema_arrays, natural_spline, walk_ridge
from sigdecomp.core import ContractViolation, Signal
from sigdecomp.sst import cwt_morlet
from sigdecomp.variational import solve_banded

def diagonal_bands(n):
    bands = np.zeros((13, n), order="F")  # dgbsv's layout, the diagonal on row 8
    bands[8] = 2.0
    return bands

def shapes(result):
    return [shapes(r) for r in result] if isinstance(result, tuple) else list(result.shape)

def outcome(call):
    try:
        return shapes(eval(call))
    except ContractViolation:
        return "ContractViolation"
"""

# The child runs the call, then many small allocations, with glibc's heap
# checks on: a kernel that corrupts the heap aborts its own child, not a
# later test.
DEGENERATE_CHILD = DEGENERATE_PRELUDE + """
import json, sys
result = outcome(sys.argv[1])
_ = [np.empty(k % 97 + 1) for k in range(20000)]
print(json.dumps(result))
"""


class TestDegenerateShapes:
    @pytest.mark.parametrize("call", DEGENERATE_CALLS.values(), ids=DEGENERATE_CALLS.keys())
    def test_child_exits_cleanly_with_the_same_shapes(self, call):
        r = subprocess.run(
            [sys.executable, "-c", DEGENERATE_CHILD, call],
            capture_output=True, text=True, env={**child_env(), "MALLOC_CHECK_": "3"},
        )
        assert r.returncode == 0, r.stderr
        scope = {}
        exec(DEGENERATE_PRELUDE, scope)
        assert json.loads(r.stdout.splitlines()[-1]) == scope["outcome"](call)
