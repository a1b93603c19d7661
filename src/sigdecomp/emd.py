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
from .core import ContractViolation, Decomposition, NotEnoughExtrema, NumericalFailure, Signal
from .core import _check_fields, _unit_scaled

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
        _check_fields(self, max_sift_iters=1, max_imfs=1, boundary=1)
        if not 0.0 < self.theta1 < self.theta2:
            raise ContractViolation("need 0 < theta1 < theta2")
        if not 0.0 < self.alpha_fraction < 1.0:
            raise ContractViolation("alpha_fraction must lie in (0, 1)")

    def sift_converged(self, mean_size: np.ndarray, half_range: np.ndarray) -> bool:
        """Two-threshold stop test on sigma = mean size / envelope half-range:
        below ``theta1`` on at least (1 - alpha_fraction) of the samples
        and below ``theta2`` everywhere.  The share below ``theta1`` is the
        count over the size, the value ``np.mean`` gives for a mask."""
        sigma = mean_size / np.maximum(half_range, _EPS)
        return bool(
            (sigma < self.theta2).all()
            and np.count_nonzero(sigma < self.theta1) / sigma.size >= 1.0 - self.alpha_fraction
        )


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
    mag = samples[idx]  # a copy
    inner = (idx > 0) & (idx < samples.size - 1)
    ii = idx[inner]
    y0, y1, y2 = samples[ii - 1], samples[ii], samples[ii + 1]
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        curvature = y0 - 2.0 * y1 + y2
    if not np.isfinite(curvature).all():
        raise NumericalFailure("EMD extremum curvature is not finite")
    safe = np.abs(curvature) > 1e-300
    tilt = y0 - y2
    shift = np.zeros(ii.size)
    shift[safe] = (0.5 * tilt[safe] / curvature[safe]).clip(-0.5, 0.5)
    pos[inner] = ii + shift
    mag[inner] = y1 - 0.25 * tilt * shift
    return pos, mag


def _edge_knots(x_end: float, edge: float, inward: int, maxima, minima, depth: int):
    """Mirror knots past one end of the signal.

    ``maxima`` and ``minima`` are (times, values) ordered from that end
    inward, ``edge`` is the end's time and ``inward`` is +1 at the start
    and -1 at the end.  The family whose first extremum lies nearer the
    end leads: its next ``depth`` extrema and the other family's first
    ``depth`` are reflected about that extremum.  If the endpoint value
    overshoots the other family's first extremum, the reflection is
    anchored at the endpoint instead, which then joins the other family.
    If the farthest reflected knot falls short of the end, the leading
    family is reflected about the end.  Returns the maxima side, the
    minima side (both ordered from the end inward) and the symmetry time.
    """
    max_leads = inward * maxima[0][0] < inward * minima[0][0]
    (pa, va), (pb, vb) = (maxima, minima) if max_leads else (minima, maxima)
    reflect = x_end > vb[0] if max_leads else x_end < vb[0]
    if reflect:
        lead, other, sym = (pa[1 : depth + 1], va[1 : depth + 1]), (pb[:depth], vb[:depth]), pa[0]
        # where each family's farthest knot lands, measured inward
        farthest = [inward * (2.0 * sym - side[0][-1]) for side in (lead, other)]
        if max(farthest) > inward * edge:
            lead, sym = (pa[:depth], va[:depth]), edge
    else:
        lead = (pa[:depth], va[:depth])
        other = (np.concatenate([[edge], pb[: depth - 1]]), np.concatenate([[x_end], vb[: depth - 1]]))
        sym = edge
    return (lead, other, sym) if max_leads else (other, lead, sym)


def mirrored_extrema_knots(
    samples: np.ndarray, max_idx: np.ndarray, min_idx: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Envelope knots (times, values) for both extrema families, extended
    past the signal ends by mirror symmetry.

    Knots are the parabolically refined extrema, reflected ``depth`` deep
    about the first/last extremum or, where a signal endpoint pokes outside
    the first (last) extrema pair, about the endpoint itself, which keeps
    the splines from diverging at the edges.  Both ends follow one rule
    (:func:`_edge_knots`).  Returns (t_max, v_max, t_min, v_min).
    """
    pos, mag = refine_extrema(samples, np.concatenate([max_idx, min_idx]))  # elementwise: one call for both
    split = max_idx.size
    maxima, minima = (pos[:split], mag[:split]), (pos[split:], mag[split:])
    lmax, lmin, lsym = _edge_knots(samples[0], 0.0, 1, maxima, minima, depth)
    backwards = [(p[::-1], v[::-1]) for p, v in (maxima, minima)]
    rmax, rmin, rsym = _edge_knots(samples[-1], float(samples.size - 1), -1, *backwards, depth)

    def knots(family, left, right):
        t = np.concatenate([(2.0 * lsym - left[0])[::-1], family[0], 2.0 * rsym - right[0]])
        v = np.concatenate([left[1][::-1], family[1], right[1]])
        keep = np.concatenate([[True], t[1:] - t[:-1] > 1e-12])
        return t[keep], v[keep]

    return (*knots(maxima, lmax, rmax), *knots(minima, lmin, rmin))


def _envelopes(
    samples: np.ndarray, max_idx: np.ndarray, min_idx: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean envelope and envelope half-range of a raw sample array, from its
    maxima and minima (two or more of each).  Raises :class:`NumericalFailure`
    when an envelope or their mean overflows."""
    t_max, v_max, t_min, v_min = mirrored_extrema_knots(samples, max_idx, min_idx, depth)
    query = np.arange(samples.size, dtype=np.float64)
    upper, lower = natural_spline(  # two blocks: the upper and the lower envelope
        np.concatenate([t_max, t_min]), np.concatenate([v_max, v_min]), query, [0, t_max.size]
    ).values()
    mean = (upper + lower) / 2.0  # not finite when either envelope is not
    if not np.isfinite(mean).all():
        raise NumericalFailure("EMD envelope is not finite")
    return mean, (upper - lower) / 2.0


def envelope_mean(x: Signal, boundary: int = 2) -> Signal:
    """Mean of the upper and lower natural-spline extrema envelopes.  Raises
    :class:`NotEnoughExtrema` when fewer than two maxima or two minima exist."""
    max_idx, min_idx = find_extrema_arrays(x.samples)
    if max_idx.size < 2 or min_idx.size < 2:
        raise NotEnoughExtrema(f"found {max_idx.size} maxima / {min_idx.size} minima")
    mean, _ = _envelopes(x.samples, max_idx, min_idx, boundary)
    return Signal(mean, x.sample_rate_hz)


def _sift(residue: np.ndarray, cfg: EmdConfig) -> np.ndarray | None:
    """One mode's sift, one extrema search per iteration.  Returns the
    mode, or None when no valid intrinsic mode can be produced (the
    caller keeps the remainder as residual)."""
    h = residue.copy()
    for iteration in range(cfg.max_sift_iters):
        max_idx, min_idx = find_extrema_arrays(h)
        n_extrema = max_idx.size + min_idx.size
        if max_idx.size < 2 or min_idx.size < 2:  # oscillation exhausted; a sifted candidate may still be valid
            return h if iteration > 0 and _balanced(h, n_extrema) else None
        mean, half_range = _envelopes(h, max_idx, min_idx, cfg.boundary)
        # the defining extrema/zero-crossing balance must hold as well
        if cfg.sift_converged(np.abs(mean), np.abs(half_range)) and _balanced(h, n_extrema):
            return h
        h -= mean
    return h if imf_property_holds(h) else None  # sift cap reached


def emd_decompose(x: Signal, cfg: EmdConfig = EmdConfig()) -> Decomposition:
    """Extract intrinsic oscillations, highest frequency first.

    Purely subtractive, so the input equals the sum of modes plus
    residual to rounding.  Degenerate inputs (no extrema) yield zero
    modes with the input as residual.  Sifts at unit peak.
    """
    samples, exp = _unit_scaled(x.samples)
    residue = samples
    modes: list[np.ndarray] = []
    while len(modes) < cfg.max_imfs and (imf := _sift(residue, cfg)) is not None:
        modes.append(imf)
        residue = residue - imf
        if np.max(np.abs(residue)) < 1e-12 * np.max(np.abs(samples)):  # a mode was found, so the peak is in [0.5, 1)
            break
    return Decomposition.of(modes, residue, x.sample_rate_hz, exp=exp)


def count_zero_crossings(samples: np.ndarray) -> int:
    """Sign changes in a sample array, ignoring exact zeros."""
    signs = np.sign(samples)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[:-1] != signs[1:]))


def _balanced(samples: np.ndarray, n_extrema: int) -> bool:
    """The intrinsic mode property |#extrema - #zero crossings| <= 1."""
    return abs(n_extrema - count_zero_crossings(samples)) <= 1


def imf_property_holds(mode: Signal | np.ndarray) -> bool:
    """Check |#extrema - #zero crossings| <= 1 for one mode (a signal or
    its raw samples)."""
    samples = mode.samples if isinstance(mode, Signal) else mode
    max_idx, min_idx = find_extrema_arrays(samples)
    return _balanced(samples, max_idx.size + min_idx.size)
