"""Hot numeric kernels: extrema search, natural cubic splines, ridge walking.

Each kernel has one vectorized numpy/scipy implementation.  Callers import
the public names (``find_extrema_arrays``, ``natural_spline``,
``walk_ridge``) into their own modules, which is where the benchmark's
probes look them up.
"""

from __future__ import annotations

import numpy as np


def find_extrema_arrays(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of strict local maxima and minima (plateau midpoint rule)."""
    dy = np.diff(np.asarray(x, dtype=np.float64))
    nz = np.flatnonzero(dy != 0)
    if nz.size < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    s = np.sign(dy[nz])
    flip = np.flatnonzero(s[:-1] != s[1:])
    # plateau between change points collapses to its midpoint index
    idx = (nz[flip] + 1 + nz[flip + 1]) // 2
    kind = s[flip]
    return idx[kind > 0].astype(np.int64), idx[kind < 0].astype(np.int64)


def natural_spline(xs: np.ndarray, ys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Natural cubic spline through ``(xs, ys)`` evaluated at sorted ``q``.

    ``ys`` holds one value per knot, shape ``(k,)``, or one column per
    channel, shape ``(k, C)``; the result is ``(len(q),)`` or
    ``(len(q), C)``, and each column equals the spline of that column
    alone.  Requires at least two strictly increasing knots; queries
    outside the knot range use the end polynomials (linear for the
    two-knot case).
    """
    from scipy.interpolate import CubicSpline  # deferred: keeps package import light

    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if xs.shape[0] == 2:
        slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        return ys[0] + slope * (q - xs[0])[(...,) + (None,) * (ys.ndim - 1)]
    return CubicSpline(xs, ys, bc_type="natural")(q)


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
