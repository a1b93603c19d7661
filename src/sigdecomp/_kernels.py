"""Hot numeric kernels: extrema search, natural cubic splines, ridge walking.

Each kernel has one vectorized numpy/LAPACK implementation.  Callers import
the public names (``find_extrema_arrays``, ``natural_spline``,
``walk_ridge``) into their own modules, which is where the benchmark's
probes look them up.  LAPACK comes from :func:`lapack`, scipy's compiled
module loaded alone on the first solve; ``scipy.linalg`` is never imported.
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
    steps lie end to end; a sign flip within one column is an extremum."""
    x = np.asarray(x, dtype=np.float64)
    width = max(x.shape[0] - 1, 1)  # steps per column
    with np.errstate(over="ignore"):  # an overflowing step is +-inf, and only its sign is used
        steps = np.diff(x, axis=0).T.ravel()
    nz = np.flatnonzero(steps)
    s = np.sign(steps[nz])
    flip = np.flatnonzero(s[:-1] != s[1:])
    left, right = nz[flip], nz[flip + 1]  # the change points around each flip
    column = left // width
    idx = (left + 1 + right) // 2 - column * width  # a plateau's midpoint
    same = right // width == column  # a flip across two columns is none
    up = s[flip]  # +1 before a maximum, -1 before a minimum
    families = np.flatnonzero(same & (up > 0)), np.flatnonzero(same & (up < 0))
    if x.ndim == 1:
        return tuple(idx[f] for f in families)
    return tuple((idx[f], column[f]) for f in families)


class CubicPieces(NamedTuple):
    """The fitted cubics of :func:`natural_spline`, evaluated by ranges of blocks."""

    coef: np.ndarray  # (4, C, k - 1): each interval's cubic in powers of (q - its left knot)
    left: np.ndarray  # (k - 1,) each interval's left knot
    widths: np.ndarray  # (k - 1,) each interval's run of queries
    bounds: np.ndarray  # each block's first knot, then k
    q: np.ndarray  # the sorted queries
    shape: tuple  # one knot's value shape, () or (C,)

    def values(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Blocks ``lo`` ... ``hi - 1`` (default: all) at the queries, stacked,
        ``(hi - lo, len(q)) + shape``: that slice of every block's values.
        One Horner pass, each cubic repeated over its run, channel-major."""
        hi = self.bounds.size - 1 if hi is None else hi
        a, b = self.bounds[lo], self.bounds[hi]  # their intervals; a step to the next block runs no query
        widths = self.widths[a:b]
        c = np.repeat(self.coef[:, :, a:b], widths, axis=2)  # (4, C, (hi - lo) * n_q)
        t = np.tile(self.q, hi - lo) - np.repeat(self.left[a:b], widths)
        out = c[3] * t + c[2]
        for power in (1, 0):
            out *= t
            out += c[power]
        out = out.reshape((c.shape[1], hi - lo, self.q.size)).transpose(1, 2, 0)  # C is known when q is empty
        return out.reshape((hi - lo, self.q.size) + self.shape)


def natural_spline(
    xs: np.ndarray, ys: np.ndarray, q: np.ndarray, starts: np.ndarray | None = None
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
    reports; a singular system raises :class:`NumericalFailure`.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    k = xs.shape[0]
    firsts = np.zeros(1, dtype=np.int64) if starts is None else np.asarray(starts, dtype=np.int64)
    lasts = np.append(firsts[1:], k) - 1
    ends = np.concatenate([firsts, lasts])
    values = ys.reshape(k, -1)  # (k, C)

    h = np.diff(xs)
    h[lasts[:-1]] = 1.0  # the step from one block to the next is no interval
    bands = np.empty((3, k))  # solve_banded((1, 1), ...) layout
    bands[0, 1:] = h
    bands[1, 1:-1] = 2.0 * (h[:-1] + h[1:])
    bands[2, :-1] = h
    rhs = np.empty_like(values, order="F")  # dgtsv's layout, passed without a copy
    with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves a whole block non-finite
        slope = np.diff(values, axis=0) / h[:, None]
        rhs[1:-1] = 6.0 * (slope[1:] - slope[:-1])
    bands[1, ends] = 1.0
    bands[0, (ends + 1) % k] = 0.0  # slot 0 of the upper band is unused
    bands[2, ends - 1] = 0.0  # and so is the last slot of the lower band
    rhs[ends] = 0.0
    *_, m, info = dgtsv(
        bands[2, :-1], bands[1], bands[0, 1:], rhs,
        overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
    )
    if info > 0:
        raise NumericalFailure("natural-spline system is singular")
    m = m.T  # (C, k)

    # each interval's cubic in powers of (q - its left knot), channel-major
    coef = np.empty((4, m.shape[0], k - 1))
    coef[0] = values[:-1].T
    coef[1] = slope.T - h * (2.0 * m[:, :-1] + m[:, 1:]) / 6.0
    coef[2] = m[:, :-1] / 2.0
    coef[3] = (m[:, 1:] - m[:, :-1]) / (6.0 * h)

    # the sorted queries of one interval are consecutive: an interval's run
    # starts at the first query at or after its left knot (a block's ends
    # extend to every query)
    pos = np.searchsorted(q, xs)
    pos[firsts], pos[lasts] = 0, q.size
    widths = np.diff(pos)
    widths[lasts[:-1]] = 0  # the step from one block to the next is no interval
    return CubicPieces(coef, xs[:-1], widths, np.append(firsts, k), q, ys.shape[1:])


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
    n_f, n_t = energy.shape
    bins = np.full(n_t, seed_f, dtype=np.int64)
    valid = np.zeros(n_t, dtype=bool)
    valid[seed_t] = True

    for frames in (range(seed_t + 1, n_t), range(seed_t - 1, -1, -1)):
        cur = seed_f
        dead = 0
        for t in frames:
            lo = max(cur - max_step, 0)
            hi = min(cur + max_step + 1, n_f)
            best = lo + int(np.argmax(energy[lo:hi, t]))
            if energy[best, t] > floor:
                cur = best
                bins[t] = best
                valid[t] = True
                dead = 0
            else:
                bins[t] = cur  # hold position across dropouts
                dead += 1
                if dead > patience:
                    break
    return bins, valid
