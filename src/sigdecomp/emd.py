"""Empirical mode decomposition.

Sifting iteratively subtracts the mean of the upper and lower cubic
spline envelopes until the candidate satisfies a two-threshold criterion
on the normalized envelope-mean amplitude: sigma(t) = |mean| / (half the
envelope range) must fall below ``theta1`` on at least (1 - alpha_fraction)
of the samples and below ``theta2`` everywhere.  End effects are tamed by
mirroring extrema about the first/last extremum before spline fitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import find_extrema_arrays, natural_spline
from .core import ContractViolation, Decomposition, NotEnoughExtrema, Signal

_EPS = 1e-300


@dataclass(frozen=True)
class EmdConfig:
    theta1: float = 0.05
    theta2: float = 0.5
    alpha_fraction: float = 0.05
    max_sift_iters: int = 100
    max_imfs: int = 12
    boundary: int = 2  # mirror extension depth, in extrema per side

    def __post_init__(self):
        if not 0.0 < self.theta1 < self.theta2:
            raise ContractViolation("need 0 < theta1 < theta2")
        if not 0.0 < self.alpha_fraction < 1.0:
            raise ContractViolation("alpha_fraction must lie in (0, 1)")
        if self.boundary < 1:
            raise ContractViolation("boundary depth must be >= 1")


def find_extrema(x: Signal) -> tuple[np.ndarray, np.ndarray]:
    """Indices of strict local maxima and minima.

    A plateau flanked by lower (higher) samples contributes its midpoint
    index once as a maximum (minimum).
    """
    if len(x) < 3:
        raise ContractViolation("extrema search needs at least 3 samples")
    return find_extrema_arrays(x.samples)


def refine_extrema(samples: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sub-sample extremum positions and magnitudes via parabolic fit.

    A parabola through the extremum and its two neighbors locates the true
    vertex; this suppresses the magnitude jitter of sampled peaks when a
    component has only a few samples per period.  Plateau midpoints are
    left untouched (the parabola degenerates there).
    """
    pos = idx.astype(np.float64)
    mag = samples[idx].copy()
    inner = (idx > 0) & (idx < samples.size - 1)
    ii = idx[inner]
    y0, y1, y2 = samples[ii - 1], samples[ii], samples[ii + 1]
    curvature = y0 - 2.0 * y1 + y2
    safe = np.abs(curvature) > 1e-300
    shift = np.zeros(ii.size)
    shift[safe] = np.clip(0.5 * (y0 - y2)[safe] / curvature[safe], -0.5, 0.5)
    pos[inner] = ii + shift
    mag[inner] = y1 - 0.25 * (y0 - y2) * shift
    return pos, mag


def mirrored_extrema_knots(
    samples: np.ndarray, max_idx: np.ndarray, min_idx: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Envelope knots (times, values) for both extrema families, extended
    past the signal ends by mirror symmetry.

    Knots are the parabolically refined extrema, reflected about the
    first/last extremum ``depth`` deep.  When a signal endpoint pokes
    outside the first (last) extrema pair, the reflection is re-anchored
    at the endpoint itself and the endpoint joins the opposing family,
    which keeps the splines from diverging at the edges.  Returns
    (t_max, v_max, t_min, v_min).
    """
    x = samples
    last = float(x.size - 1)
    pmax, vmax = refine_extrema(x, max_idx)
    pmin, vmin = refine_extrema(x, min_idx)
    end_left = (np.array([0.0]), np.array([x[0]]))
    end_right = (np.array([last]), np.array([x[-1]]))

    def take(p, v, sl):
        return p[sl], v[sl]

    # left edge: pick reflection point and which extrema to reflect
    if pmax[0] < pmin[0]:  # leads with a maximum
        if x[0] > vmin[0]:
            lmax, lmin, lsym = take(pmax, vmax, slice(1, depth + 1)), take(pmin, vmin, slice(0, depth)), pmax[0]
        else:  # start dips below the first minimum: anchor there
            lmax = take(pmax, vmax, slice(0, depth))
            lmin = (np.concatenate([end_left[0], pmin[: depth - 1]]), np.concatenate([end_left[1], vmin[: depth - 1]]))
            lsym = 0.0
    else:
        if x[0] < vmax[0]:
            lmax, lmin, lsym = take(pmax, vmax, slice(0, depth)), take(pmin, vmin, slice(1, depth + 1)), pmin[0]
        else:
            lmax = (np.concatenate([end_left[0], pmax[: depth - 1]]), np.concatenate([end_left[1], vmax[: depth - 1]]))
            lmin = take(pmin, vmin, slice(0, depth))
            lsym = 0.0
    if 2.0 * lsym - lmax[0][-1] > 0.0 or 2.0 * lsym - lmin[0][-1] > 0.0:
        # reflected points fail to reach past the start: re-anchor at it
        if lsym == pmax[0]:
            lmax = take(pmax, vmax, slice(0, depth))
        else:
            lmin = take(pmin, vmin, slice(0, depth))
        lsym = 0.0

    # right edge, mirror image of the above
    if pmax[-1] > pmin[-1]:  # ends with a maximum
        if x[-1] > vmin[-1]:
            rmax, rmin, rsym = take(pmax, vmax, slice(-depth - 1, -1)), take(pmin, vmin, slice(-depth, None)), pmax[-1]
        else:
            rmax = take(pmax, vmax, slice(-depth, None))
            rmin = (np.concatenate([pmin[pmin.size - depth + 1 :], end_right[0]]), np.concatenate([vmin[pmin.size - depth + 1 :], end_right[1]]))
            rsym = last
    else:
        if x[-1] < vmax[-1]:
            rmax, rmin, rsym = take(pmax, vmax, slice(-depth, None)), take(pmin, vmin, slice(-depth - 1, -1)), pmin[-1]
        else:
            rmax = (np.concatenate([pmax[pmax.size - depth + 1 :], end_right[0]]), np.concatenate([vmax[pmax.size - depth + 1 :], end_right[1]]))
            rmin = take(pmin, vmin, slice(-depth, None))
            rsym = last
    if 2.0 * rsym - rmax[0][0] < last or 2.0 * rsym - rmin[0][0] < last:
        if rsym == pmax[-1]:
            rmax = take(pmax, vmax, slice(-depth, None))
        else:
            rmin = take(pmin, vmin, slice(-depth, None))
        rsym = last

    def knots(mid_p, mid_v, left, right):
        t = np.concatenate([(2.0 * lsym - left[0])[::-1], mid_p, (2.0 * rsym - right[0])[::-1]])
        v = np.concatenate([left[1][::-1], mid_v, right[1][::-1]])
        keep = np.concatenate([[True], np.diff(t) > 1e-12])
        return t[keep], v[keep]

    t_max, v_max = knots(pmax, vmax, lmax, rmax)
    t_min, v_min = knots(pmin, vmin, lmin, rmin)
    return t_max, v_max, t_min, v_min


def _envelopes(samples: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean envelope and envelope half-range of a raw sample array.

    Raises :class:`NotEnoughExtrema` when fewer than two maxima or two
    minima exist, which signals that the residual has been reached.
    """
    max_idx, min_idx = find_extrema_arrays(samples)
    if max_idx.size < 2 or min_idx.size < 2:
        raise NotEnoughExtrema(f"found {max_idx.size} maxima / {min_idx.size} minima")

    t_max, v_max, t_min, v_min = mirrored_extrema_knots(samples, max_idx, min_idx, depth)
    query = np.arange(samples.size, dtype=np.float64)
    upper = natural_spline(t_max, v_max, query)
    lower = natural_spline(t_min, v_min, query)
    return (upper + lower) / 2.0, (upper - lower) / 2.0


def envelope_mean(x: Signal, boundary: int = 2) -> Signal:
    """Mean of the upper and lower natural-spline extrema envelopes."""
    mean, _ = _envelopes(x.samples, boundary)
    return Signal(mean, x.sample_rate_hz)


def _sift(residue: np.ndarray, cfg: EmdConfig) -> np.ndarray:
    """One mode's sift.  Raises :class:`NotEnoughExtrema` when no valid
    intrinsic mode can be produced (the caller keeps the remainder as
    residual)."""
    h = residue.copy()
    for iteration in range(cfg.max_sift_iters):
        try:
            mean, half_range = _envelopes(h, cfg.boundary)
        except NotEnoughExtrema:
            if iteration == 0 or not imf_property_holds(h):
                raise
            return h  # oscillation exhausted mid-sift; candidate still valid
        sigma = np.abs(mean) / np.maximum(np.abs(half_range), _EPS)
        small_enough = (
            np.all(sigma < cfg.theta2)
            and np.mean(sigma < cfg.theta1) >= 1.0 - cfg.alpha_fraction
        )
        # the defining extrema/zero-crossing balance must hold as well
        if small_enough and imf_property_holds(h):
            return h
        h -= mean
    if not imf_property_holds(h):
        raise NotEnoughExtrema("sift cap reached without a valid intrinsic mode")
    return h


def emd_decompose(x: Signal, cfg: EmdConfig = EmdConfig()) -> Decomposition:
    """Extract intrinsic oscillations, highest frequency first.

    Purely subtractive, so the input equals the sum of modes plus
    residual to rounding.  Degenerate inputs (no extrema) yield zero
    modes with the input as residual.
    """
    residue = x.samples.copy()
    modes: list[Signal] = []
    for _ in range(cfg.max_imfs):
        try:
            imf = _sift(residue, cfg)
        except NotEnoughExtrema:
            break
        modes.append(Signal(imf, x.sample_rate_hz))
        residue = residue - imf
        if np.max(np.abs(residue)) < 1e-12 * max(np.max(np.abs(x.samples)), _EPS):
            break
    return Decomposition(modes=tuple(modes), residual=Signal(residue, x.sample_rate_hz))


def count_zero_crossings(samples: np.ndarray) -> int:
    """Sign changes in a sample array, ignoring exact zeros."""
    signs = np.sign(samples)
    signs = signs[signs != 0]
    if signs.size < 2:
        return 0
    return int(np.sum(signs[:-1] != signs[1:]))


def imf_property_holds(mode: Signal | np.ndarray) -> bool:
    """Check |#extrema - #zero crossings| <= 1 for one mode (a signal or
    its raw samples)."""
    samples = mode.samples if isinstance(mode, Signal) else mode
    max_idx, min_idx = find_extrema_arrays(samples)
    n_ext = max_idx.size + min_idx.size
    return abs(n_ext - count_zero_crossings(samples)) <= 1
