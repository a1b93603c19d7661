"""Hot numeric kernels: extrema search, natural cubic splines, ridge walking.

Each kernel has one vectorized numpy/scipy implementation.  Callers import
the public names (``find_extrema_arrays``, ``natural_spline``,
``walk_ridge``) into their own modules, which is where the benchmark's
probes look them up.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded


def find_extrema_arrays(x: np.ndarray) -> tuple:
    """Local maxima and minima (plateau midpoint rule) of a series ``(n,)``,
    as ``(maxima, minima)`` indices, or of each column of ``(n, C)``, each
    family as flat ``(indices, columns)`` column by column.  The columns'
    steps lie end to end; a sign flip within one column is an extremum."""
    x = np.asarray(x, dtype=np.float64)
    width = max(x.shape[0] - 1, 1)  # steps per column
    steps = np.diff(x, axis=0).T.ravel()
    nz = np.flatnonzero(steps)
    s = np.sign(steps[nz])
    flip = np.flatnonzero(s[:-1] != s[1:])
    left, right = nz[flip], nz[flip + 1]  # the change points around each flip
    column = left // width
    idx = (left + 1 + right) // 2 - column * width  # a plateau's midpoint
    kind = np.where(right // width == column, s[flip], 0.0)  # a flip across two columns is none
    if x.ndim == 1:
        return idx[kind > 0], idx[kind < 0]
    return (idx[kind > 0], column[kind > 0]), (idx[kind < 0], column[kind < 0])


def natural_spline(
    xs: np.ndarray, ys: np.ndarray, q: np.ndarray, starts: np.ndarray | None = None
) -> np.ndarray:
    """Natural cubic splines through ``(xs, ys)``, evaluated at sorted ``q``.

    ``xs`` concatenates the knot times of one or more independent blocks,
    each strictly increasing with at least two knots; ``starts`` gives the
    index at which each block begins (``None``: one block).  ``ys`` holds
    one value per knot, shape ``(k,)``, or one column per channel, shape
    ``(k, C)``.  One block returns ``(len(q),)`` or ``(len(q), C)``;
    ``starts`` returns one such array per block, stacked on a new first
    axis.  Each block and each column equals its spline fitted alone.
    Queries outside a block's knots use its end polynomials (linear for a
    two-knot block).

    All blocks share one tridiagonal solve, one right-hand side per
    channel, for the second derivatives m at the knots:
    ``h[i-1] m[i-1] + 2 (h[i-1] + h[i]) m[i] + h[i] m[i+1] = 6 (slope[i]
    - slope[i-1])`` at a knot inside a block, and ``m = 0`` with no
    neighbours at a block end, which decouples the blocks.  Values that
    overflow pass through as non-finite output, which callers check.
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
    slope = np.diff(values, axis=0) / h[:, None]
    bands = np.empty((3, k))  # solve_banded((1, 1), ...) layout
    bands[0, 1:] = h
    bands[1, 1:-1] = 2.0 * (h[:-1] + h[1:])
    bands[2, :-1] = h
    rhs = np.empty_like(values)
    rhs[1:-1] = 6.0 * (slope[1:] - slope[:-1])
    bands[1, ends] = 1.0
    bands[0, (ends + 1) % k] = 0.0  # slot 0 of the upper band is unused
    bands[2, ends - 1] = 0.0  # and so is the last slot of the lower band
    rhs[ends] = 0.0
    m = solve_banded((1, 1), bands, rhs, check_finite=False).T  # (C, k)

    # each interval's cubic in powers of (q - its left knot), channel-major
    # so that the evaluation below runs along long contiguous rows
    coef = np.empty((4, m.shape[0], k - 1))
    coef[0] = values[:-1].T
    coef[1] = slope.T - h * (2.0 * m[:, :-1] + m[:, 1:]) / 6.0
    coef[2] = m[:, :-1] / 2.0
    coef[3] = (m[:, 1:] - m[:, :-1]) / (6.0 * h)

    # a query's interval in a block is the block's first interval plus the
    # number of the block's inner knots at or before the query; one search
    # places every inner knot among the queries
    n_blocks, n_q = firsts.size, q.size
    inner = np.ones(k, dtype=bool)
    inner[ends] = False
    block = np.repeat(np.arange(n_blocks), lasts - firsts + 1)
    slot = block[inner] * (n_q + 1) + np.searchsorted(q, xs[inner])
    passed = np.bincount(slot, minlength=n_blocks * (n_q + 1)).reshape(n_blocks, n_q + 1)
    j = (np.cumsum(passed[:, :-1], axis=1) + firsts[:, None]).ravel()

    c = np.take(coef, j, axis=2)  # (4, C, n_blocks * n_q)
    t = np.tile(q, n_blocks) - xs[j]
    out = c[3] * t + c[2]
    for power in (1, 0):
        out *= t
        out += c[power]
    out = out.reshape((-1, n_blocks, n_q)).transpose(1, 2, 0).reshape((n_blocks, n_q) + ys.shape[1:])
    return out[0] if starts is None else out


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
