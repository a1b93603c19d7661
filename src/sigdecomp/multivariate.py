"""Multivariate decompositions with mode alignment across channels.

The projection-based sifting method extends envelope-mean sifting to
multichannel signals: the signal is projected onto low-discrepancy
directions on the unit hypersphere, extrema of each scalar projection
supply interpolation times for a multivariate envelope, and the average
over directions drives the subtraction.  All channels receive the same
number of modes by construction.

The joint variational method generalizes the Wiener-update scheme with a
single shared center frequency per mode: the frequency update pools the
spectral energy of that mode over every channel, which is what aligns
same-index modes across channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import find_extrema_arrays, natural_spline
from ._rng import uniforms
from .core import (
    ContractViolation, Decomposition, MultichannelSignal, Signal, _scaled_back, _scaled_norm, _unit_scaled, rates_equal
)
from .emd import EmdConfig
from .variational import (
    ConvergenceReport,
    _check_variational_config,
    _initial_centers,
    _variational_modes,
)


@dataclass(frozen=True)
class MemdConfig:
    M: int = 64  # projection directions
    emd: EmdConfig = field(default_factory=EmdConfig)  # stop rule, caps and mirror depth
    seed: int = 0  # offsets the direction set deterministically

    def __post_init__(self):
        if self.M < 2:
            raise ContractViolation("need at least 2 projection directions")


@dataclass(frozen=True)
class MvmdConfig:
    K: int = 3
    alpha: float = 500.0
    tau: float = 0.0
    tol: float = 1e-7
    max_iters: int = 500
    init_mode: str = "zeros"  # zero-frequency start works well in practice

    def __post_init__(self):
        _check_variational_config(self, ("zeros", "uniform"))


@dataclass(frozen=True)
class AlignedDecomposition:
    """Index-aligned per-channel modes: mode k of channel c corresponds to
    mode k of every other channel.  ``center_freqs_hz`` is present for the
    variational method, where one frequency per mode is shared by
    construction."""

    channel_modes: tuple[tuple[Signal, ...], ...]  # [channel][mode]
    residuals: tuple[Signal, ...]
    sample_rate_hz: float
    center_freqs_hz: tuple[float, ...] | None = None

    def __post_init__(self):
        counts = {len(modes) for modes in self.channel_modes}
        if len(counts) > 1 or len(self.residuals) != len(self.channel_modes):
            raise ContractViolation("every channel needs the same mode count and one residual")
        if not self.residuals or len({len(r) for r in self.residuals}) > 1 or not all(
            rates_equal(r.sample_rate_hz, self.sample_rate_hz) for r in self.residuals
        ):
            raise ContractViolation("need at least one channel, all of one length and at the decomposition's rate")
        if self.center_freqs_hz is not None:
            object.__setattr__(self, "center_freqs_hz", tuple(float(f) for f in self.center_freqs_hz))
        for c in range(self.n_channels):
            self.channel(c)  # the modes share their residual's length and rate, one center per mode

    @property
    def n_channels(self) -> int:
        return len(self.channel_modes)

    @property
    def n_modes(self) -> int:
        return len(self.channel_modes[0])

    def channel(self, c: int) -> Decomposition:
        """The modes and residual of channel ``c`` as a one-channel decomposition."""
        return Decomposition(self.channel_modes[c], self.residuals[c], self.center_freqs_hz)

    def reconstruction_error(self, original: MultichannelSignal) -> float:
        """l2 norm of (original - sum of modes - residual) over all channels."""
        if original.n_channels != self.n_channels:
            raise ContractViolation("original does not match decomposition geometry")
        errors = [self.channel(c).reconstruction_error(original.channel(c)) for c in range(self.n_channels)]
        return _scaled_norm(errors)


# ---------------------------------------------------------------------------
# direction generation
# ---------------------------------------------------------------------------

def _radical_inverse(n: int, base: int) -> float:
    value = 0.0
    inv = 1.0 / base
    factor = inv
    while n > 0:
        value += (n % base) * factor
        n //= base
        factor *= inv
    return value


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def hypersphere_directions(M: int, n_channels: int, seed: int = 0) -> np.ndarray:
    """``M`` low-discrepancy unit vectors on the (n_channels-1)-sphere.

    Built from a Hammersley point set (first coordinate i/M, remaining
    coordinates radical-inverse in successive primes) pushed through the
    usual sphere parametrizations; a seed-derived rotation offsets the set
    deterministically, so equal seeds give identical directions.
    """
    if n_channels < 2:
        raise ContractViolation("directions need at least 2 channels")
    n_cols = n_channels if n_channels >= 4 else n_channels - 1
    if n_cols - 1 > len(_PRIMES):
        raise ContractViolation("too many channels for the prime table")
    shift = uniforms(n_cols, seed)

    i = np.arange(M)
    u = np.empty((M, n_cols))
    u[:, 0] = (i / M + shift[0]) % 1.0
    for d in range(1, n_cols):
        u[:, d] = (np.array([_radical_inverse(k + 1, _PRIMES[d - 1]) for k in i]) + shift[d]) % 1.0

    if n_channels == 2:
        theta = 2.0 * np.pi * u[:, 0]
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif n_channels == 3:
        # area-preserving cylinder map
        z = 2.0 * u[:, 0] - 1.0
        phi = 2.0 * np.pi * u[:, 1]
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        dirs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    else:
        # spherical-coordinate map of the normalized sequence
        b = 2.0 * u - 1.0
        suffix = np.cumsum((b**2)[:, ::-1], axis=1)[:, ::-1]
        angles = np.arctan2(np.sqrt(suffix[:, 1:]), b[:, :-1])  # (M, n-1)
        sin_prod = np.cumprod(np.sin(angles), axis=1)
        dirs = np.empty((M, n_channels))
        dirs[:, 0] = np.cos(angles[:, 0])
        for d in range(1, n_channels - 1):
            dirs[:, d] = sin_prod[:, d - 1] * np.cos(angles[:, d])
        dirs[:, n_channels - 1] = sin_prod[:, n_channels - 2]
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs / norms


# ---------------------------------------------------------------------------
# projection-based multivariate sifting
# ---------------------------------------------------------------------------

_GROUP = 32  # directions evaluated at a time, which bounds the envelopes held at once


def _directional_envelope_stats(
    data: np.ndarray, directions: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Mean envelope (n, c) and mean amplitude (n,) over all directions
    with enough projection extrema, knots mirrored ``depth`` deep; also
    returns how many directions were usable.

    One extrema search covers every projection, one knot pass mirrors
    every usable direction's maxima and minima, and each of those is one
    block of a single :func:`natural_spline` fit.  The envelopes are
    evaluated ``_GROUP`` directions at a time and summed direction by
    direction.
    """
    n, n_ch = data.shape
    (max_idx, max_dir), (min_idx, min_dir) = find_extrema_arrays(data @ directions.T)
    n_max = np.bincount(max_dir, minlength=len(directions))
    n_min = np.bincount(min_dir, minlength=len(directions))
    usable = (n_max >= 2) & (n_min >= 2)
    used = int(np.count_nonzero(usable))
    if used == 0:
        return np.zeros((n, n_ch)), np.zeros(n), 0
    times, sources, starts = _mirrored_knots(  # upper envelopes' blocks, then lower
        np.concatenate([max_idx[usable[max_dir]], min_idx[usable[min_dir]]]),
        np.concatenate([n_max[usable], n_min[usable]]),
        depth,
    )
    pieces = natural_spline(times, data[sources], np.arange(n, dtype=np.float64), starts)
    env_sum = amp_sum = None
    for lo in range(0, used, _GROUP):
        hi = min(lo + _GROUP, used)
        upper, lower = pieces.values(lo, hi), pieces.values(used + lo, used + hi)  # (hi - lo, n, channels)
        env_sum = _fold(env_sum, upper + lower)
        amp_sum = _fold(amp_sum, np.linalg.norm(upper - lower, axis=2))
    return env_sum / (2.0 * used), amp_sum / (2.0 * used), used


def _fold(total: np.ndarray | None, rows: np.ndarray) -> np.ndarray:
    """``total`` (``None``: nothing yet) plus each of ``rows`` in turn,
    as one reduce with the total as its first row."""
    return np.add.reduce(rows if total is None else np.concatenate([total[None], rows]))


def _mirrored_knots(
    idx: np.ndarray, counts: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knot times, the sample index each knot takes its values from, and
    where each block of knots starts.

    ``idx`` concatenates blocks of extrema, ``counts`` (each >= 2) long.
    Each block is extended ``pad = min(depth, count - 1)`` extrema past
    each end by reflection about its first and last extremum; a mirrored
    knot reuses the values of the extremum it reflects.
    """
    pad = np.minimum(depth, counts - 1)
    sizes = counts + 2 * pad
    starts = np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(counts.size), sizes)
    last = (counts - 1)[block]
    # position in the block's extrema, -pad ... count - 1 + pad
    virtual = np.arange(sizes.sum()) - (starts + pad)[block]
    first = (np.cumsum(counts) - counts)[block]
    sources = idx[first + last - np.abs(last - np.abs(virtual))]
    anchors = idx[first + np.clip(virtual, 0, last)]  # inside the block, the knot itself
    return (2 * anchors - sources).astype(np.float64), sources, starts


def memd_decompose(x: MultichannelSignal, cfg: MemdConfig = MemdConfig()) -> AlignedDecomposition:
    """Projection-based multivariate sifting.

    Stopping reuses the two-threshold rule with the Euclidean norm of the
    multivariate mean envelope standing in for |mean|.  Extraction ends
    when a mode's first sift finds no direction with two maxima and two
    minima, as EMD ends when its first sift finds too few extrema, or when
    ``max_imfs`` is reached; the remainder becomes the per-channel residual.
    Sifts at unit peak.
    """
    if x.n_channels < 2:
        raise ContractViolation("multivariate sifting needs at least 2 channels")
    directions = hypersphere_directions(cfg.M, x.n_channels, cfg.seed)
    channels, exp = _unit_scaled(x.channels)
    data = channels.T.copy()  # (n, channels)
    ecfg = cfg.emd

    modes: list[np.ndarray] = []
    for _ in range(ecfg.max_imfs):
        h = data
        for it in range(ecfg.max_sift_iters):
            env_mean, amplitude, used = _directional_envelope_stats(h, directions, ecfg.boundary)
            if used == 0 or ecfg.sift_converged(np.linalg.norm(env_mean, axis=1), amplitude):
                break
            h = h - env_mean
        if used == 0 and it == 0:  # nothing to sift: the remainder stays the residual
            break
        modes.append(h)
        data = data - h

    fs = x.sample_rate_hz
    modes, data = [_scaled_back(m, exp) for m in modes], _scaled_back(data, exp)
    channel_modes = tuple(
        tuple(Signal(m[:, c], fs) for m in modes) for c in range(x.n_channels)
    )
    residuals = tuple(Signal(data[:, c], fs) for c in range(x.n_channels))
    return AlignedDecomposition(
        channel_modes=channel_modes, residuals=residuals, sample_rate_hz=fs
    )


# ---------------------------------------------------------------------------
# joint variational decomposition
# ---------------------------------------------------------------------------

def mvmd_decompose(
    x: MultichannelSignal, cfg: MvmdConfig = MvmdConfig()
) -> tuple[AlignedDecomposition, ConvergenceReport]:
    """Joint variational decomposition with one shared frequency per mode.

    Per-channel spectra receive Wiener-style updates against the shared
    center frequency, whose update pools |spectrum|^2 over channels;
    modes are returned ascending in frequency.  This is the engine
    behind :func:`~sigdecomp.variational.vmd_decompose`, run on every
    channel at once.
    """
    modes, centers, residual, report = _variational_modes(
        x.channels, _initial_centers(cfg.K, cfg.init_mode), cfg
    )
    fs = x.sample_rate_hz
    decomp = AlignedDecomposition(
        channel_modes=tuple(
            tuple(Signal(m, fs) for m in modes[:, c]) for c in range(x.n_channels)
        ),
        residuals=tuple(Signal(r, fs) for r in residual),
        sample_rate_hz=fs,
        center_freqs_hz=tuple(float(f * fs) for f in centers),
    )
    return decomp, report
