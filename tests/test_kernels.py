"""Behavior checks for the numeric kernels against independent oracles:
a strict-extrema comparison, scipy's natural ``CubicSpline`` and a
hand-walked ridge."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from sigdecomp import _kernels as K


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


class TestSplineParity:
    def test_matches_scipy_natural(self, rng):
        xs = np.sort(rng.uniform(0, 100, size=12))
        xs += np.arange(12) * 1e-3  # ensure strict increase
        ys = rng.normal(size=12)
        q = np.linspace(xs[0], xs[-1], 200)
        mine = K.natural_spline(xs, ys, q)
        ref = CubicSpline(xs, ys, bc_type="natural")(q)
        assert np.max(np.abs(mine - ref)) < 1e-9 * max(np.max(np.abs(ref)), 1.0)

    def test_two_knots_linear(self):
        xs = np.array([0.0, 2.0])
        ys = np.array([1.0, 5.0])
        q = np.array([-1.0, 0.5, 3.0])
        out = K.natural_spline(xs, ys, q)
        assert np.allclose(out, [-1.0, 2.0, 7.0])

    def test_extrapolation_matches_scipy(self, rng):
        xs = np.arange(10.0)
        ys = rng.normal(size=10)
        q = np.array([-2.0, -0.5, 9.5, 11.0])
        mine = K.natural_spline(xs, ys, q)
        ref = CubicSpline(xs, ys, bc_type="natural")(q)
        assert np.allclose(mine, ref, atol=1e-9)

    @pytest.mark.parametrize("n_knots", [2, 3, 17])
    def test_columns_equal_per_column_calls(self, rng, n_knots):
        xs = np.cumsum(rng.uniform(0.5, 3.0, size=n_knots))
        ys = rng.normal(size=(n_knots, 3))
        q = np.linspace(xs[0] - 2.0, xs[-1] + 2.0, 50)  # includes extrapolation
        out = K.natural_spline(xs, ys, q)
        assert out.shape == (q.size, 3)
        for c in range(3):
            assert np.array_equal(out[:, c], K.natural_spline(xs, ys[:, c], q))


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
            assert_close(K.natural_spline(xs, ys, q), CubicSpline(xs, ys, bc_type="natural")(q))

    @pytest.mark.parametrize("n_channels", [None, 2])
    def test_blocks_equal_separate_calls(self, rng, n_channels):
        blocks = [random_knots(rng, n, n_channels) for n in (40, 2, 3, 17, 2, 40)]
        q = np.arange(-5.0, 106.0)  # outside every block on both sides
        starts = np.cumsum([0] + [xs.size for xs, _ in blocks[:-1]])
        out = K.natural_spline(
            np.concatenate([xs for xs, _ in blocks]), np.concatenate([ys for _, ys in blocks]), q, starts
        )
        assert out.shape == (len(blocks), q.size) + blocks[0][1].shape[1:]
        for got, (xs, ys) in zip(out, blocks):
            assert_close(got, K.natural_spline(xs, ys, q))
            assert_close(got, CubicSpline(xs, ys, bc_type="natural")(q))


class TestRidgeWalkParity:
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
        out = K.natural_spline(np.arange(5.0), np.ones(5), np.linspace(0, 4, 9))
        assert np.allclose(out, 1.0)
