"""The per-sift kernels byte for byte against references written with numpy's
Python-level wrappers (``np.diff``, ``np.flatnonzero``, ``np.tile``,
``np.append``, ``np.clip``, ``np.mean``, ...), as the kernels were before
they called the ufuncs and array methods those wrappers call.  Each case
compares the result's bytes, dtypes and shapes, the exception a call
raises, and the RuntimeWarnings it emits."""

import warnings

import numpy as np
import pytest

from sigdecomp import _kernels as K
from sigdecomp import emd
from sigdecomp.core import NumericalFailure

# -- references ---------------------------------------------------------------


def ref_find_extrema_arrays(x):
    x = np.asarray(x, dtype=np.float64)
    width = max(x.shape[0] - 1, 1)
    with np.errstate(over="ignore"):
        steps = np.diff(x, axis=0).T.ravel()
    nz = np.flatnonzero(steps)
    s = np.sign(steps[nz])
    flip = np.flatnonzero(s[:-1] != s[1:])
    left, right = nz[flip], nz[flip + 1]
    column = left // width
    idx = (left + 1 + right) // 2 - column * width
    same = right // width == column
    up = s[flip]
    families = np.flatnonzero(same & (up > 0)), np.flatnonzero(same & (up < 0))
    if x.ndim == 1:
        return tuple(idx[f] for f in families)
    return tuple((idx[f], column[f]) for f in families)


def ref_spline_values(xs, ys, q, starts=None, blocks=None):
    """``natural_spline(xs, ys, q, starts).values(blocks)``."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
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
    with np.errstate(over="ignore", invalid="ignore"):
        slope = np.diff(values, axis=0) / h[:, None]
        rhs[1:-1] = 6.0 * (slope[1:] - slope[:-1])
    bands[1, ends] = 1.0
    bands[0, (ends + 1) % k] = 0.0
    bands[2, ends - 1] = 0.0
    rhs[ends] = 0.0
    *_, m, info = K.lapack().dgtsv(
        bands[2, :-1], bands[1], bands[0, 1:], rhs, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1
    )
    if info > 0:
        raise NumericalFailure("natural-spline system is singular")
    m = m.T
    coef = np.empty((4, m.shape[0], k - 1))
    coef[0] = values[:-1].T
    coef[1] = slope.T - h * (2.0 * m[:, :-1] + m[:, 1:]) / 6.0
    coef[2] = m[:, :-1] / 2.0
    coef[3] = (m[:, 1:] - m[:, :-1]) / (6.0 * h)
    pos = np.searchsorted(q, xs)
    pos[firsts], pos[lasts] = 0, q.size
    widths = np.diff(pos)
    widths[lasts[:-1]] = 0
    bounds, left = np.append(firsts, k), xs[:-1]

    blocks = np.arange(bounds.size - 1) if blocks is None else np.asarray(blocks, dtype=np.intp)
    firsts = bounds[blocks]
    sizes = bounds[blocks + 1] - firsts - 1
    picks = np.arange(sizes.sum()) + np.repeat(firsts - np.cumsum(sizes) + sizes, sizes)
    coef = coef.take(picks, axis=2)
    widths = widths[picks]
    t = np.tile(q, blocks.size)
    t -= np.repeat(left[picks], widths)
    out = np.repeat(coef[3], widths, axis=1)
    for power in (2, 1, 0):
        out *= t
        out += np.repeat(coef[power], widths, axis=1)
    out = out.reshape((coef.shape[1], blocks.size, q.size)).transpose(1, 2, 0)
    return out.reshape((blocks.size, q.size) + ys.shape[1:])


def ref_refine_extrema(samples, idx):
    pos = idx.astype(np.float64)
    mag = samples[idx].copy()
    inner = (idx > 0) & (idx < samples.size - 1)
    ii = idx[inner]
    y0, y1, y2 = samples[ii - 1], samples[ii], samples[ii + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        curvature = y0 - 2.0 * y1 + y2
    if not np.all(np.isfinite(curvature)):
        raise NumericalFailure("EMD extremum curvature is not finite")
    safe = np.abs(curvature) > 1e-300
    shift = np.zeros(ii.size)
    shift[safe] = np.clip(0.5 * (y0 - y2)[safe] / curvature[safe], -0.5, 0.5)
    pos[inner] = ii + shift
    mag[inner] = y1 - 0.25 * (y0 - y2) * shift
    return pos, mag


def ref_mirrored_extrema_knots(samples, max_idx, min_idx, depth):
    maxima = ref_refine_extrema(samples, max_idx)
    minima = ref_refine_extrema(samples, min_idx)
    lmax, lmin, lsym = emd._edge_knots(samples[0], 0.0, 1, maxima, minima, depth)
    backwards = [(p[::-1], v[::-1]) for p, v in (maxima, minima)]
    rmax, rmin, rsym = emd._edge_knots(samples[-1], float(samples.size - 1), -1, *backwards, depth)

    def knots(family, left, right):
        t = np.concatenate([(2.0 * lsym - left[0])[::-1], family[0], 2.0 * rsym - right[0]])
        v = np.concatenate([left[1][::-1], family[1], right[1]])
        keep = np.concatenate([[True], np.diff(t) > 1e-12])
        return t[keep], v[keep]

    return (*knots(maxima, lmax, rmax), *knots(minima, lmin, rmin))


def ref_sift_converged(cfg, mean_size, half_range):
    sigma = mean_size / np.maximum(half_range, 1e-300)
    return bool(np.all(sigma < cfg.theta2) and np.mean(sigma < cfg.theta1) >= 1.0 - cfg.alpha_fraction)


def ref_count_zero_crossings(samples):
    signs = np.sign(samples)
    signs = signs[signs != 0]
    return int(np.sum(signs[:-1] != signs[1:]))


# -- comparison ---------------------------------------------------------------


def outcome(call, *args):
    """What ``call(*args)`` gives: its result, or the type and message of
    what it raised, and the RuntimeWarnings it emitted, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args)
        except (ValueError, IndexError, NumericalFailure) as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def assert_same_bits(got, want):
    """The same nesting and values, each array of the same dtype, shape and bytes."""
    assert type(got) is type(want)
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


def assert_same(call, ref, *args):
    assert_same_bits(outcome(call, *args), outcome(ref, *args))


# -- series -------------------------------------------------------------------


def walk(rng, n, columns=None):
    shape = (n,) if columns is None else (n, columns)
    return np.cumsum(rng.normal(size=shape), axis=0)


def plateaus(rng, n, columns=None):
    """Rounded steps, so runs of equal samples sit at maxima, minima and both ends."""
    x = np.round(walk(rng, n, columns) / 2.0)
    if n >= 6:
        x[:3] = x[3]
        x[-2:] = x[-3]
    return x


def infinite_steps(rng, n, columns=None):
    """Samples of +-1e308, whose steps overflow to +-inf."""
    return 1e308 * np.sign(rng.normal(size=(n,) if columns is None else (n, columns)))


def with_nan(rng, n, columns=None):
    x = walk(rng, n, columns)
    x[rng.integers(0, n, size=3)] = np.nan
    return x


def alternating(rng, n, columns=None):
    """Samples of +-1e308 by turns: every step overflows to +-inf, none is
    zero and each is a flip."""
    x = 1e308 * (-1.0) ** np.arange(n)
    return x if columns is None else x[:, None] * rng.choice([-1.0, 1.0], size=columns)


def one_plateau(rng, n, columns=None):
    """A walk with one zero step in one column of a batch, set inside a
    rise when there are four samples or more: every other step is signed,
    yet the whole input goes through the plateau rule.  Read as a fall, the
    zero step would make a maximum and a minimum of the rise."""
    x = walk(rng, n, columns)
    cols = x.reshape(n, -1)  # a view of the walk
    if cols.size:
        c = rng.integers(0, cols.shape[1])
        if n < 4:
            cols[1, c] = cols[0, c]
        else:
            at = rng.integers(1, n - 2)
            cols[at - 1 : at + 3, c] = cols[at, c] + np.array([-1.0, 0.0, 0.0, 1.0])
    return x


def one_nan_step(rng, n, columns=None):
    """A walk with one NaN step, a NaN first sample in one column, whose
    next step rises; every other step is signed.  Read as a signed step,
    the NaN step would make the sample after it a minimum."""
    x = walk(rng, n, columns)
    cols = x.reshape(n, -1)
    if cols.size:
        c = rng.integers(0, cols.shape[1])
        cols[0, c] = np.nan
        if n > 2 and cols[2, c] < cols[1, c]:
            cols[1:, c] *= -1.0
    return x


SERIES = {
    "walk": walk,
    "plateaus": plateaus,
    "infinite-steps": infinite_steps,
    "nan": with_nan,
    "alternating-overflow": alternating,
    "one-plateau": one_plateau,
    "one-nan-step": one_nan_step,
}


class TestExtremaBits:
    @pytest.mark.parametrize("kind", SERIES)
    @pytest.mark.parametrize("n", [2, 3, 17, 512])
    def test_series(self, rng, kind, n):
        assert_same(K.find_extrema_arrays, ref_find_extrema_arrays, SERIES[kind](rng, n))

    @pytest.mark.parametrize("kind", SERIES)
    @pytest.mark.parametrize("n, columns", [(2, 4), (60, 1), (60, 17), (512, 64), (512, 0), (2, 0)])
    def test_batches(self, rng, kind, n, columns):
        assert_same(K.find_extrema_arrays, ref_find_extrema_arrays, SERIES[kind](rng, n, columns))

    def test_a_fortran_ordered_batch(self, rng):
        x = np.asfortranarray(plateaus(rng, 100, 8))
        assert_same(K.find_extrema_arrays, ref_find_extrema_arrays, x)


def knot_blocks(rng, sizes, channels=None):
    """Knot times of blocks of ``sizes`` knots laid end to end, their block
    starts and one value per knot (per channel)."""
    xs = np.concatenate([np.sort(rng.uniform(-5.0, 40.0, size=s)) + np.arange(s) * 1e-3 for s in sizes])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    ys = rng.normal(size=xs.shape if channels is None else (xs.size, channels))
    return xs, ys, starts


def spline_values(xs, ys, q, starts=None, blocks=None):
    return K.natural_spline(xs, ys, q, starts).values(blocks)


class TestSplineBits:
    @pytest.mark.parametrize("sizes", [[12], [2], [7, 2, 9], [2, 2], [3, 40, 5, 2]])
    @pytest.mark.parametrize("channels", [None, 1, 3])
    def test_blocks(self, rng, sizes, channels):
        xs, ys, starts = knot_blocks(rng, sizes, channels)
        q = np.arange(-8.0, 44.0, 0.37)  # beyond every block's ends too
        assert_same(spline_values, ref_spline_values, xs, ys, q, starts)
        assert_same(spline_values, ref_spline_values, xs, ys, q, None if len(sizes) == 1 else starts)
        picks = rng.integers(0, len(sizes), size=5)  # repeats and any order
        assert_same(spline_values, ref_spline_values, xs, ys, q, starts, picks)

    @pytest.mark.parametrize("blocks", [[], [0], [1, 1, 0]])
    @pytest.mark.parametrize("channels", [None, 2])
    def test_picked_and_no_blocks(self, rng, blocks, channels):
        xs, ys, starts = knot_blocks(rng, [5, 4], channels)
        q = np.linspace(0.0, 30.0, 64)
        assert_same(spline_values, ref_spline_values, xs, ys, q, starts, blocks)
        shape = () if channels is None else (channels,)
        assert spline_values(xs, ys, q, starts, blocks).shape == (len(blocks), q.size) + shape

    def test_no_queries(self, rng):
        xs, ys, starts = knot_blocks(rng, [5, 4], 2)
        assert_same(spline_values, ref_spline_values, xs, ys, np.empty(0), starts)

    def test_nan_and_overflowing_values(self, rng):
        xs, ys, starts = knot_blocks(rng, [6, 5])
        ys[2] = np.nan
        q = np.linspace(-1.0, 41.0, 100)
        assert_same(spline_values, ref_spline_values, xs, ys, q, starts)
        ys = 1e308 * np.sign(rng.normal(size=ys.shape))  # slopes and the system overflow
        assert_same(spline_values, ref_spline_values, xs, ys, q, starts)

    def test_envelope_fit_of_a_sift(self, rng):
        x = rng.normal(size=512)
        t_max, v_max, t_min, v_min = emd.mirrored_extrema_knots(x, *K.find_extrema_arrays(x), 2)
        args = np.concatenate([t_max, t_min]), np.concatenate([v_max, v_min]), np.arange(512.0), [0, t_max.size]
        assert_same(spline_values, ref_spline_values, *args)


class TestRefineBits:
    @pytest.mark.parametrize("kind", SERIES)
    @pytest.mark.parametrize("n", [2, 3, 17, 512])
    def test_series(self, rng, kind, n):
        x = SERIES[kind](rng, n)
        maxima, minima = K.find_extrema_arrays(x)
        for idx in (maxima, minima, np.array([0, n - 1]), np.arange(n), np.empty(0, dtype=np.intp)):
            assert_same(emd.refine_extrema, ref_refine_extrema, x, idx)

    @pytest.mark.parametrize("kind", ["walk", "plateaus"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_mirrored_knots(self, rng, kind, depth):
        # both families refined in one call, as two calls refine them
        for _ in range(10):
            x = SERIES[kind](rng, 200)
            args = x, *K.find_extrema_arrays(x), depth
            assert_same(emd.mirrored_extrema_knots, ref_mirrored_extrema_knots, *args)


class TestSiftRuleBits:
    @pytest.mark.parametrize("cfg", [emd.EmdConfig(), emd.EmdConfig(theta1=0.1, theta2=0.5, alpha_fraction=0.25)])
    def test_random_and_boundary_sigmas(self, rng, cfg):
        half_range = np.ones(20)
        cases = [rng.uniform(0.0, 0.2, size=20) * scale for scale in (0.2, 0.5, 1.0, 3.0)]
        for at in (cfg.theta1, cfg.theta2):  # sigma exactly at a threshold
            cases += [np.full(20, at), np.concatenate([[at], np.zeros(19)]), np.repeat([at, 0.0], [5, 15])]
        # the share below theta1 exactly at, just below and just above 1 - alpha
        for above in range(7):
            cases.append(np.concatenate([np.full(above, (cfg.theta1 + cfg.theta2) / 2), np.zeros(20 - above)]))
        cases.append(np.concatenate([[np.nan], np.zeros(19)]))
        for mean_size in cases:
            assert_same(cfg.sift_converged, lambda m, h: ref_sift_converged(cfg, m, h), mean_size, half_range)
        for half in (np.zeros(20), np.full(20, 1e-320), rng.uniform(0.0, 2.0, size=20)):
            mean_size = rng.uniform(0.0, 0.1, size=20)
            assert_same(cfg.sift_converged, lambda m, h: ref_sift_converged(cfg, m, h), mean_size, half)


class TestZeroCrossingBits:
    @pytest.mark.parametrize("kind", SERIES)
    @pytest.mark.parametrize("n", [2, 3, 17, 512])
    def test_series(self, rng, kind, n):
        assert_same(emd.count_zero_crossings, ref_count_zero_crossings, SERIES[kind](rng, n))

    @pytest.mark.parametrize(
        "x",
        [[], [0.0], [1.0, -1.0], [0.0, 0.0], [1.0, 0.0, 0.0, -1.0, 0.0, 2.0], [np.inf, -np.inf, np.nan, 1.0]],
    )
    def test_edges(self, x):
        assert_same(emd.count_zero_crossings, ref_count_zero_crossings, np.asarray(x))
