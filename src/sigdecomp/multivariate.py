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

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import find_extrema_arrays, natural_spline
from ._rng import uniforms
from .core import AlignedDecomposition, ContractViolation, MultichannelSignal, RunRecord, _check_fields, _unit_scaled
from .emd import EmdConfig
from .variational import VmdConfig, _variational_modes


@dataclass(frozen=True)
class MemdConfig:
    M: int = 64  # projection directions
    emd: EmdConfig = field(default_factory=EmdConfig)  # stop rule, caps and mirror depth
    seed: int = 0  # offsets the direction set deterministically

    def __post_init__(self):
        _check_fields(self, M=2, seed=0)


@dataclass(frozen=True)
class MvmdConfig(VmdConfig):
    """:class:`~sigdecomp.variational.VmdConfig` with the zero start."""

    init_mode: str = "zeros"  # zero-frequency start works well in practice


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

_GROUP = 64  # directions evaluated at a time: every direction set the recipes use is one group,
# and the rows of one group, overwritten by the next, bound the envelopes held at once


class _Workspace:
    """The arrays of one decompose's envelope statistics whose size grows
    with directions x samples, kept from one sift iteration to the next.
    Each named buffer grows to the largest size asked of it and is not
    freed inside the decompose, so its pages stay mapped between
    iterations, where freeing them let the C heap hand them back to the
    system and fault them in again at the next iteration.

    A stats call holds, in turn: in ``"upper"`` the projections, the
    fit's knot values, a group's upper envelopes and then its rows
    gathered in direction order; in ``"lower"`` the fit's right-hand side
    and a group's lower envelopes, which become its envelope-sum rows; in
    ``"coef"`` the fit's coefficient planes; in ``"amplitude"`` a group's
    amplitude rows; and the two running sums."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple) -> np.ndarray:
        """A C-ordered float64 ``shape`` view of buffer ``name``, whose
        earlier contents it overwrites."""
        size = math.prod(shape)
        buffer = self._buffers.pop(name, np.empty(0))
        if buffer.size < size:
            capacity = max(size, buffer.size + buffer.size // 4)  # a growing fit takes a few steps
            del buffer  # the smaller buffer goes before the larger one comes
            buffer = np.empty(capacity)
        self._buffers[name] = buffer
        return buffer[:size].reshape(shape)


def _directional_envelope_stats(
    data: np.ndarray, directions: np.ndarray, depth: int, work: _Workspace
) -> tuple[np.ndarray, np.ndarray, int]:
    """Mean envelope (n, c) and mean amplitude (n,) over all directions
    with enough projection extrema, knots mirrored ``depth`` deep; also
    returns how many directions were usable.

    One extrema search covers every projection.  A block of maxima or
    minima is keyed by its extrema, and one knot pass mirrors each
    distinct block once, as one block of a single :func:`natural_spline`
    fit.  A direction whose blocks equal an earlier direction's, in either
    order, is a repeat: in 2-D, direction d and its antipode swap maxima
    and minima.  A repeat's envelope-sum and amplitude rows are bitwise
    the earlier direction's, since ``u + l == l + u`` and
    ``|l - u| == |u - l|``.  The directions are taken ``_GROUP`` at a
    time: a group evaluates each distinct row it reads once, and its
    directions' rows are summed in direction order onto the total so far.
    No row outlives its group, so a repeat of a direction in an earlier
    group is evaluated again from the same blocks, with the same bits.

    The projections, knot values, fit planes, rows and sums are written
    into ``work``, :func:`memd_decompose`'s workspace.
    """
    n, n_ch = data.shape
    fit = _fit_blocks(data, directions, depth, work)
    if fit is None:
        return np.zeros((n, n_ch)), np.zeros(n), 0
    pieces, upper, lower = fit
    used = upper.size
    source = _first_seen(zip(np.minimum(upper, lower).tolist(), np.maximum(upper, lower).tolist()))
    sums = {}  # the running envelope sum (n, c) and amplitude sum (n,), channel-major as the rows
    for lo in range(0, used, _GROUP):
        reads = source[lo:lo + _GROUP]
        d, at = np.unique(reads, return_inverse=True)  # the group's distinct rows, and where each direction's is
        in_order = np.array_equal(d, reads)  # each distinct row read once, in order
        for name, rows in zip(("envelope_sum", "amplitude_sum"), _rows(pieces, upper[d], lower[d], work)):
            for part in [rows] if in_order else _gathered(rows, at, work):
                if name in sums:
                    part[0] += sums[name]  # the total first: x + y == y + x, bitwise
                sums[name] = np.add.reduce(part, axis=0, out=work.array(name, part.shape[:0:-1]).T)
    env_sum, amp_sum = sums.values()
    # the mean envelope is laid out as numpy laid out its own sum of the last group's rows: C-ordered
    # where they were gathered, channel-major where read in order.  The stop rule's sum over channels
    # runs in that order, so on 3 channels and more the layout sets its bits
    env_mean = np.empty((n_ch, n)).T if in_order else np.empty((n, n_ch))
    return np.divide(env_sum, 2.0 * used, out=env_mean), amp_sum / (2.0 * used), used


def _fit_blocks(data: np.ndarray, directions: np.ndarray, depth: int, work: _Workspace):
    """The one fit of every distinct block of extrema of the projections,
    and each usable direction's upper and lower block numbers in it; None
    when no direction is usable.  The extrema and key arrays die before
    the fit, its knot arrays on return, before the rows are evaluated."""
    n, n_ch = data.shape
    projections = np.matmul(data, directions.T, out=work.array("upper", (n, len(directions))))
    blocks = _distinct_blocks(projections, depth)
    if blocks is None:
        return None
    times, sources, starts, block = blocks
    k = times.size
    knots = data.take(sources, axis=0, out=work.array("upper", (k, n_ch)), mode="clip")  # "raise" buffers out
    planes = work.array("lower", (n_ch, k)).T, work.array("coef", (4, n_ch, k - 1))
    pieces = natural_spline(times, knots, np.arange(n, dtype=np.float64), starts, out=planes)
    return pieces, *block.reshape(2, -1)  # each usable direction's upper block number, then its lower


def _distinct_blocks(projections: np.ndarray, depth: int):
    """The mirrored knots of each distinct block of extrema of the
    projections (their times, source samples and block starts), and the
    number in them of each usable direction's upper block, then of each
    one's lower block; None when no direction is usable."""
    n, n_dir = projections.shape
    (max_idx, max_dir), (min_idx, min_dir) = find_extrema_arrays(projections)
    n_max = np.bincount(max_dir, minlength=n_dir)
    n_min = np.bincount(min_dir, minlength=n_dir)
    usable = (n_max >= 2) & (n_min >= 2)
    if not usable.any():
        return None
    idx = np.concatenate([max_idx[usable[max_dir]], min_idx[usable[min_dir]]])  # upper blocks, then lower
    counts = np.concatenate([n_max[usable], n_min[usable]])
    packed = idx.astype(np.min_scalar_type(n))  # a block's key: its extrema's bytes, in the fewest that hold them
    raw, ends = packed.tobytes(), (np.cumsum(counts) * packed.itemsize).tolist()
    first = _first_seen(raw[a:b] for a, b in zip([0] + ends[:-1], ends))
    fresh = first == np.arange(first.size)
    block = np.cumsum(fresh)[first] - 1  # each block's number in the fit
    return *_mirrored_knots(idx[np.repeat(fresh, counts)], counts[fresh], depth), block


def _first_seen(keys) -> np.ndarray:
    """The position at which each key first appears."""
    first = {}
    return np.array([first.setdefault(key, i) for i, key in enumerate(keys)], dtype=np.intp)


def _rows(pieces, upper: np.ndarray, lower: np.ndarray, work: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """The envelope-sum rows (d, n, c) and amplitude rows (d, n) of the
    directions whose upper and lower envelopes are blocks ``upper`` and
    ``lower`` of ``pieces``, one channel at a time: channel c's difference
    goes to the amplitude (c = 0) or to channel 0's spent upper plane,
    then its sum over the lower plane.  The squares are summed over the
    channels in channel order and rooted: np.linalg.norm's own steps, so
    its bits.  The sums are returned in the lower envelopes' buffer."""
    n_ch, n = pieces.coef.shape[1], pieces.q.size
    u = pieces.values(upper, work.array("upper", (n_ch, upper.size * n)))
    l = pieces.values(lower, work.array("lower", (n_ch, lower.size * n)))
    amp = work.array("amplitude", (upper.size, n))
    for c in range(n_ch):
        square = np.subtract(u[..., c], l[..., c], out=amp if c == 0 else u[..., 0])
        np.add(u[..., c], l[..., c], out=l[..., c])
        square *= square
        if c:
            amp += square
    return l, np.sqrt(amp, out=amp)


def _gathered(rows: np.ndarray, at: np.ndarray, work: _Workspace):
    """The rows ``rows[at]`` in runs of at most ``len(rows)``, each run
    gathered into the upper envelopes' spent buffer, channel-major as the
    rows are, so that take copies the run alone.  Summed run after run
    onto a running total, they are added in the order of one sum over
    ``rows[at]``."""
    planes = rows.reshape(rows.shape[:2] + (-1,)).transpose(2, 0, 1)  # (c, rows, n), as they lie in memory
    for a in range(0, at.size, len(rows)):  # mode="clip": the indices are in range, and "raise" buffers ``out``
        taken = at[a:a + len(rows)]
        out = work.array("upper", (len(planes), taken.size, planes.shape[2]))
        yield planes.take(taken, axis=1, out=out, mode="clip").transpose(1, 2, 0).reshape(taken.shape + rows.shape[1:])


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
    Sifts at unit peak.  The record stops ``exhausted`` or ``max_iters`` and counts
    each sift's envelope-statistics calls and the directions each one used.
    """
    if x.n_channels < 2:
        raise ContractViolation("multivariate sifting needs at least 2 channels")
    directions = hypersphere_directions(cfg.M, x.n_channels, cfg.seed)
    channels, exp = _unit_scaled(x.channels)
    data = channels.T.copy()  # (n, channels)
    ecfg = cfg.emd

    work = _Workspace()  # the envelope statistics' arrays, reused by every sift iteration
    modes: list[np.ndarray] = []
    sifts: list[tuple[int, ...]] = []  # the directions used in each sift iteration, per sift
    stop = "max_iters"
    for _ in range(ecfg.max_imfs):
        h, used_per_iteration = data, []
        for it in range(ecfg.max_sift_iters):
            env_mean, amplitude, used = _directional_envelope_stats(h, directions, ecfg.boundary, work)
            used_per_iteration.append(used)
            if used == 0 or ecfg.sift_converged(np.linalg.norm(env_mean, axis=1), amplitude):
                break
            h = h - env_mean
        sifts.append(tuple(used_per_iteration))
        if used == 0 and it == 0:  # nothing to sift: the remainder stays the residual
            stop = "exhausted"
            break
        modes.append(h)
        data = data - h

    counters = {"sift_iterations": tuple(map(len, sifts)), "directions_used": tuple(sifts)}
    record = RunRecord("memd", sum(map(len, sifts)), stop, counters=counters)
    return AlignedDecomposition.of([m.T for m in modes], data.T, x.sample_rate_hz, exp=exp, record=record)


# ---------------------------------------------------------------------------
# joint variational decomposition
# ---------------------------------------------------------------------------

def mvmd_decompose(
    x: MultichannelSignal, cfg: MvmdConfig = MvmdConfig()
) -> tuple[AlignedDecomposition, RunRecord]:
    """Joint variational decomposition with one shared frequency per mode.

    Per-channel spectra receive Wiener-style updates against the shared
    center frequency, whose update pools |spectrum|^2 over channels;
    modes are returned ascending in frequency.  This is the engine
    behind :func:`~sigdecomp.variational.vmd_decompose`, run on every
    channel at once, and returns its record beside it in the same way.
    """
    modes, centers, residual, exp, record = _variational_modes(x.channels, cfg, "mvmd")
    return AlignedDecomposition.of(modes, residual, x.sample_rate_hz, centers * x.sample_rate_hz, exp, record), record
