"""Hot numeric kernels: extrema search, natural cubic splines, ridge walking.

Each kernel has one vectorized numpy/LAPACK implementation.  Callers import
the public names (``find_extrema_arrays``, ``natural_spline``,
``walk_ridge``) into their own modules, which is where the benchmark's
probes look them up.  The kernels run once per sift or per envelope on a
few hundred samples, where numpy's Python-level wrappers (``np.diff``,
``np.flatnonzero``, ``np.tile``, ``np.append``, ``np.repeat``, ...) cost
more than their arithmetic, so they call the ufuncs and array methods
those wrappers call: the same operations in the same order.  LAPACK comes
from :func:`lapack`, scipy's compiled module loaded alone on the first
solve; ``scipy.linalg`` is never imported.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import NamedTuple

import numpy as np

from .core import NumericalFailure

_FLAPACK = "scipy.linalg._flapack"


def lapack():
    """scipy's LAPACK wrappers ``scipy.linalg._flapack``, whose routines ``scipy.linalg.lapack``
    re-exports as the same objects.  The first call loads that extension alone, under its own name,
    so the package init of ``scipy.linalg`` and its hundreds of imports never run; every later call,
    and a later ``import scipy.linalg``, finds it in ``sys.modules``."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        import scipy

        spec = PathFinder.find_spec(_FLAPACK, [os.path.join(scipy.__path__[0], "linalg")])
        if spec is None:
            raise ImportError(f"scipy {scipy.__version__} has no {_FLAPACK}")
        module = module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
    return module


def dgtsv(*args, **kwargs):
    """LAPACK ``dgtsv``, looked up in :func:`lapack` at each call."""
    return lapack().dgtsv(*args, **kwargs)


def find_extrema_arrays(x: np.ndarray) -> tuple:
    """Local maxima and minima (plateau midpoint rule) of a series ``(n,)``,
    as ``(maxima, minima)`` indices, or of each column of ``(n, C)``, each
    family as flat ``(indices, columns)`` column by column.  The columns'
    steps lie end to end; a sign flip within one column is an extremum.

    An input whose steps are all strictly signed (no zero, no NaN) has its
    flips read from the step signs directly: a flip between steps f and
    f + 1 of one column puts an extremum at the sample between them.  Any
    other input has its nonzero steps compacted first, so that a plateau's
    flip lands on its midpoint.  On a strictly signed input both give the
    same bytes."""
    x = np.asarray(x, dtype=np.float64)
    width = max(x.shape[0] - 1, 1)  # steps per column
    with np.errstate(over="ignore"):  # an overflowing step is +-inf, and only its sign is used
        steps = np.subtract(x[1:].T, x[:-1].T, order="C").ravel()  # column by column, with no copy to ravel
    rising = steps > 0
    if np.count_nonzero(rising) + np.count_nonzero(steps < 0) == steps.size:  # NaN is neither
        flip = (rising[:-1] != rising[1:]).nonzero()[0]  # a flip between steps f and f + 1
        column = flip // width
        idx = flip + 1 - column * width  # the sample between the two steps
        same = (flip + 1) // width == column  # a flip across two columns is none
        up = rising[flip]  # rising before a maximum, falling before a minimum
        families = (same & up).nonzero()[0], (same > up).nonzero()[0]
    else:
        nz = steps.nonzero()[0]
        s = np.sign(steps[nz])
        flip = (s[:-1] != s[1:]).nonzero()[0]
        left, right = nz[flip], nz[flip + 1]  # the change points around each flip
        column = left // width
        idx = (left + 1 + right) // 2 - column * width  # a plateau's midpoint
        same = right // width == column  # a flip across two columns is none
        up = s[flip]  # +1 before a maximum, -1 before a minimum, NaN next to a NaN step
        families = (same & (up > 0)).nonzero()[0], (same & (up < 0)).nonzero()[0]
    if x.ndim == 1:
        return tuple(idx[f] for f in families)
    return tuple((idx[f], column[f]) for f in families)


class CubicPieces(NamedTuple):
    """The fitted cubics of :func:`natural_spline`, evaluated by lists of blocks."""

    coef: np.ndarray  # (4, C, k - 1): each interval's cubic in powers of (q - its left knot)
    left: np.ndarray  # (k - 1,) each interval's left knot
    widths: np.ndarray  # (k - 1,) each interval's run of queries
    bounds: np.ndarray  # each block's first knot, then k
    q: np.ndarray  # the sorted queries
    shape: tuple  # one knot's value shape, () or (C,)

    def values(self, blocks=None, out=None) -> np.ndarray:
        """The blocks numbered ``blocks`` (default: all, in order) at the
        queries, stacked, ``(len(blocks), len(q)) + shape``; a block may be
        named more than once.  One Horner pass per channel over those
        blocks' intervals (a step to the next block runs no query, so it is
        left out), each power's coefficients repeated over their runs as the
        pass reaches them.  The values are computed channel-major into
        ``out``, a C-ordered ``(C, len(blocks) * len(q))`` array if given
        (else a new one), and returned as a view of it."""
        blocks = np.arange(self.bounds.size - 1) if blocks is None else np.asarray(blocks, dtype=np.intp)
        firsts = self.bounds[blocks]
        sizes = self.bounds[blocks + 1] - firsts - 1  # each block's intervals, without the step to the next
        picks = np.arange(sizes.sum()) + (firsts - sizes.cumsum() + sizes).repeat(sizes)
        run = picks.repeat(self.widths[picks])  # each query's interval, block after block
        t = self.q[None].repeat(blocks.size, axis=0).ravel()  # np.tile's copy of the queries, per block
        t -= self.left.take(run)
        n_ch = self.coef.shape[1]  # known when q is empty
        if out is None:
            out = np.empty((n_ch, t.size))
        step = np.empty_like(t)  # one power's coefficients at the queries
        for c, row in enumerate(out):  # mode="clip": the indices are in range, and "raise" buffers ``out``
            self.coef[3, c].take(run, out=row, mode="clip")
            for power in (2, 1, 0):
                row *= t
                row += self.coef[power, c].take(run, out=step, mode="clip")
        out = out.reshape((n_ch, blocks.size, self.q.size)).transpose(1, 2, 0)
        return out.reshape((blocks.size, self.q.size) + self.shape)


def natural_spline(
    xs: np.ndarray, ys: np.ndarray, q: np.ndarray, starts: np.ndarray | None = None, out: tuple | None = None
) -> CubicPieces:
    """Natural cubic splines through ``(xs, ys)``, fitted for evaluation at
    sorted ``q`` by :meth:`CubicPieces.values`.

    ``xs`` concatenates the knot times of one or more independent blocks,
    each strictly increasing with at least two knots; ``starts`` gives the
    index at which each block begins (``None``: one block).  ``ys`` holds
    one value per knot, shape ``(k,)``, or one column per channel, shape
    ``(k, C)``; a block's values are ``(len(q),)`` or ``(len(q), C)``.
    Each block and each column equals its spline fitted alone.
    Queries outside a block's knots use its end polynomials (linear for a
    two-knot block).

    All blocks share one tridiagonal solve (LAPACK ``dgtsv``, the routine
    and result of ``solve_banded((1, 1), ...)``), one right-hand side per
    channel, for the second derivatives m at the knots:
    ``h[i-1] m[i-1] + 2 (h[i-1] + h[i]) m[i] + h[i] m[i+1] = 6 (slope[i]
    - slope[i-1])`` at a knot inside a block, and ``m = 0`` with no
    neighbours at a block end, which decouples the blocks.  Values that
    overflow pass through as non-finite output, which EMD's envelope pass
    reports; a singular system raises :class:`NumericalFailure`.  Values
    with no channels, ``(k, 0)``, give their empty pieces without calling
    ``dgtsv``, which corrupts the heap when handed a right-hand side of no
    columns.

    ``out``, if given, is ``(rhs, coef)``: an F-ordered ``(k, C)`` array
    for the right-hand side, which the solve overwrites with m, and a
    ``(4, C, k - 1)`` array for the coefficients, which the pieces keep.
    Either way every plane is written in place: the slopes go to
    ``coef[1]`` and ``coef[2]`` holds ``coef[1]``'s correction until its
    own turn, with the operations and their order of the whole-array form.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    k = xs.shape[0]
    firsts = np.zeros(1, dtype=np.int64) if starts is None else np.asarray(starts, dtype=np.int64)
    bounds = np.concatenate([firsts, [k]])
    lasts = bounds[1:] - 1
    ends = np.concatenate([firsts, lasts])
    values = ys.reshape(k, -1)  # (k, C)

    h = xs[1:] - xs[:-1]
    h[lasts[:-1]] = 1.0  # the step from one block to the next is no interval
    bands = np.empty((3, k))  # solve_banded((1, 1), ...) layout
    bands[0, 1:] = h
    bands[1, 1:-1] = 2.0 * (h[:-1] + h[1:])
    bands[2, :-1] = h
    n_ch = values.shape[1]
    rhs, coef = (np.empty((n_ch, k)).T, np.empty((4, n_ch, k - 1))) if out is None else out  # dgtsv's layout
    slope = coef[1].T  # (k - 1, C)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves a whole block non-finite
        np.subtract(values[1:], values[:-1], out=slope)
        slope /= h[:, None]
        inner = np.subtract(slope[1:], slope[:-1], out=rhs[1:-1])
        inner *= 6.0
    bands[1, ends] = 1.0
    bands[0, (ends + 1) % k] = 0.0  # slot 0 of the upper band is unused
    bands[2, ends - 1] = 0.0  # and so is the last slot of the lower band
    rhs[ends] = 0.0
    m = rhs  # with no channels there is nothing to solve
    if n_ch:
        *_, m, info = dgtsv(
            bands[2, :-1], bands[1], bands[0, 1:], rhs,
            overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
        )
        if info > 0:
            raise NumericalFailure("natural-spline system is singular")
    m = m.T  # (C, k)

    # each interval's cubic in powers of (q - its left knot), channel-major:
    # coef[1] = slope - h (2 m[:-1] + m[1:]) / 6, coef[2] = m[:-1] / 2,
    # coef[3] = (m[1:] - m[:-1]) / (6 h)
    coef[0] = values[:-1].T
    correction = np.multiply(m[:, :-1], 2.0, out=coef[2])
    correction += m[:, 1:]
    correction *= h
    correction /= 6.0
    coef[1] -= correction
    np.divide(m[:, :-1], 2.0, out=coef[2])
    np.subtract(m[:, 1:], m[:, :-1], out=coef[3])
    coef[3] /= 6.0 * h

    # the sorted queries of one interval are consecutive: an interval's run
    # starts at the first query at or after its left knot (a block's ends
    # extend to every query)
    pos = q.searchsorted(xs)
    pos[firsts], pos[lasts] = 0, q.size
    widths = pos[1:] - pos[:-1]
    widths[lasts[:-1]] = 0  # the step from one block to the next is no interval
    return CubicPieces(coef, xs[:-1], widths, bounds, q, ys.shape[1:])


def walk_ridge(
    energy: np.ndarray,
    seed_f: int,
    seed_t: int,
    max_step: int,
    floor: float,
    patience: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy max-energy walk from a seed cell, one bin column per frame.

    Consecutive bins differ by at most ``max_step``.  Frames whose best
    in-window energy is at or below ``floor`` are flagged invalid and do
    not move the track; after more than ``patience`` consecutive dead
    frames the walk stops in that direction.
    """
    n_t = energy.shape[1]
    columns = energy.T  # row t: frame t's bins, a view
    bins = np.full(n_t, seed_f, dtype=np.int64)
    valid = np.zeros(n_t, dtype=bool)
    valid[seed_t] = True

    for frames in (range(seed_t + 1, n_t), range(seed_t - 1, -1, -1)):
        cur = seed_f
        dead = 0
        for t in frames:
            lo = max(cur - max_step, 0)
            window = columns[t, lo : cur + max_step + 1]  # slicing clips at the last bin
            best = window.argmax()  # the first of equal maxima
            if window[best] > floor:
                cur = lo + int(best)
                valid[t] = True
                dead = 0
            else:
                dead += 1  # hold position across dropouts
            bins[t] = cur
            if dead > patience:
                break
    return bins, valid
