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
from .core import ContractViolation, MultichannelSignal, Signal
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
    emd: EmdConfig = field(default_factory=EmdConfig)
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
        if len(counts) > 1:
            raise ContractViolation("every channel must have the same mode count")

    @property
    def n_channels(self) -> int:
        return len(self.channel_modes)

    @property
    def n_modes(self) -> int:
        return len(self.channel_modes[0]) if self.channel_modes else 0

    def mode(self, k: int) -> tuple[Signal, ...]:
        return tuple(self.channel_modes[c][k] for c in range(self.n_channels))


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
    rng = np.random.Generator(np.random.Philox(seed))
    shift = rng.random(n_cols)

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

def _directional_envelope_stats(
    data: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Mean envelope (n, c) and mean amplitude (n,) over all directions
    with enough projection extrema; also returns how many directions
    were usable."""
    n, n_ch = data.shape
    query = np.arange(n, dtype=np.float64)
    env_mean = np.zeros((n, n_ch))
    amplitude = np.zeros(n)
    used = 0
    for direction in directions:
        projection = data @ direction
        max_idx, min_idx = find_extrema_arrays(projection)
        if max_idx.size < 2 or min_idx.size < 2:
            continue
        t_max, k_max = _mirrored_knots(max_idx)
        t_min, k_min = _mirrored_knots(min_idx)
        upper = natural_spline(t_max, data[k_max], query)  # (n, channels)
        lower = natural_spline(t_min, data[k_min], query)
        env_mean += (upper + lower) / 2.0
        amplitude += np.linalg.norm(upper - lower, axis=1) / 2.0
        used += 1
    if used:
        env_mean /= used
        amplitude /= used
    return env_mean, amplitude, used


_MIRROR_DEPTH = 2


def _mirrored_knots(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knot times and the sample index each knot takes its values from.

    The extrema at ``idx`` are extended ``_MIRROR_DEPTH`` deep past each
    end by reflection about the first and last extremum; a mirrored knot
    reuses the values of the extremum it reflects.
    """
    left = idx[1 : _MIRROR_DEPTH + 1][::-1]
    right = idx[-_MIRROR_DEPTH - 1 : -1][::-1]
    times = np.concatenate([2 * idx[0] - left, idx, 2 * idx[-1] - right])
    return times.astype(np.float64), np.concatenate([left, idx, right])


def _has_oscillation(data: np.ndarray, directions: np.ndarray) -> bool:
    for direction in directions:
        projection = data @ direction
        max_idx, min_idx = find_extrema_arrays(projection)
        if max_idx.size + min_idx.size >= 3:
            return True
    return False


def memd_decompose(x: MultichannelSignal, cfg: MemdConfig = MemdConfig()) -> AlignedDecomposition:
    """Projection-based multivariate sifting.

    Stopping reuses the two-threshold rule with the Euclidean norm of the
    multivariate mean envelope standing in for |mean|.  Extraction ends
    when no projection oscillates anymore or ``max_imfs`` is reached; the
    remainder becomes the per-channel residual.
    """
    if x.n_channels < 2:
        raise ContractViolation("multivariate sifting needs at least 2 channels")
    directions = hypersphere_directions(cfg.M, x.n_channels, cfg.seed)
    data = x.channels.T.copy()  # (n, channels)
    ecfg = cfg.emd

    modes: list[np.ndarray] = []
    for _ in range(ecfg.max_imfs):
        if not _has_oscillation(data, directions):
            break
        h = data.copy()
        for _it in range(ecfg.max_sift_iters):
            env_mean, amplitude, used = _directional_envelope_stats(h, directions)
            if used == 0:
                break
            sigma = np.linalg.norm(env_mean, axis=1) / np.maximum(amplitude, 1e-300)
            if (
                np.all(sigma < ecfg.theta2)
                and np.mean(sigma < ecfg.theta1) >= 1.0 - ecfg.alpha_fraction
            ):
                break
            h = h - env_mean
        modes.append(h)
        data = data - h

    fs = x.sample_rate_hz
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
