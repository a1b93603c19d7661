"""Wavelet synchrosqueezing: CWT, phase-transform reassignment, greedy
penalized ridge extraction, and per-ridge mode reconstruction.

An analytic Morlet CWT over log-spaced scales is squeezed by adding each
kept coefficient to the bin of its phase derivative.  The CWT walks the
grid in blocks of scale rows and the squeeze in blocks of time columns
(``_BLOCK_CELLS`` each), so their temporaries do not grow with the input.
A cell's bin lies in its own column, so the squeeze adds up each block's
cells with one ``np.add.at`` in row-major order and writes the sums over
the columns it has just read: a decompose holds one complex grid, the
CWT and then the squeezed values, beside the float ridge energy, in one
allocation.  One band rule names the cells around a ridge:
extraction zeroes them before seeking the next ridge, and reconstruction
sums their real parts per frame in one bincount and scales by the
wavelet's admissibility constant; no step loops over frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

from ._kernels import walk_ridge
from .core import ContractViolation, Decomposition, NumericalFailure, RunRecord, Signal, _check_fields, _unit_scaled


@dataclass(frozen=True)
class SstConfig:
    n_voices: int = 32  # scales per octave
    morlet_w0: float = 6.0  # wavelet center frequency, rad
    gamma: float = 1e-6  # magnitude threshold, relative to max |W|
    K: int = 1  # ridges to extract
    start_band: int = 15  # bins zeroed around an extracted ridge
    max_step: int = 15  # max bin change per frame while tracking

    def __post_init__(self):
        _check_fields(self, n_voices=4, gamma=0, K=1, start_band=1, max_step=1)
        if not (self.morlet_w0 > 0 and 0 < _admissibility(self.morlet_w0) < np.inf):
            raise ContractViolation("morlet_w0 must be positive, with a positive finite admissibility")


@dataclass(frozen=True)
class RidgeTrack:
    """Per-frame frequency-bin index plus a validity flag."""

    bins: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if self.bins.shape != self.valid.shape:
            raise ContractViolation("bins and valid must have equal length")


#: consecutive below-threshold frames tolerated before a ridge walk stops;
#: lets tracks ride out brief interference without wandering across long
#: silent stretches into a neighboring component's band
RIDGE_PATIENCE_FRAMES = 32

#: a ridge frame counts as dead when its best energy drops this far below
#: the ridge's seed energy (40 dB fade), on top of the gamma floor
RIDGE_FADE_REL = 1e-4


#: cells of the grid one block covers (256 KiB of complex), a block of
#: scale rows in the CWT and of time columns in the squeeze; each holds
#: about 80 bytes of temporaries per cell of a block, and these do not grow
#: with the input length
_BLOCK_CELLS = 2**14


def _blocks(n: int, across: int) -> list[slice]:
    """Consecutive slices of ``n`` rows (or columns) of ``across`` cells
    each, about ``_BLOCK_CELLS`` cells and at least one row per slice."""
    step = max(1, _BLOCK_CELLS // across)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


@lru_cache(maxsize=8)
def _admissibility(w0: float) -> float:
    # (1/2) * integral of psi_hat(xi)/xi over xi > 0, by dense trapezoid
    xi = np.linspace(max(w0 - 10.0, 1e-6), w0 + 10.0, 20001)
    psi = np.pi**-0.25 * np.exp(-0.5 * (xi - w0) ** 2)
    return 0.5 * float(np.trapezoid(psi / xi, xi))


def _scale_frequencies_hz(x: Signal, cfg: SstConfig) -> np.ndarray:
    """The CWT's analysis frequencies, one per coefficient row, log-spaced from 2/duration up to Nyquist."""
    if len(x) < 64:
        raise ContractViolation("CWT needs at least 64 samples")
    fmin = 2.0 / x.duration_s
    fmax = x.sample_rate_hz / 2.0
    if fmin >= fmax:
        raise ContractViolation("signal too short for the scale grid")
    n_octaves = np.log2(fmax / fmin)
    count = int(np.ceil(n_octaves * cfg.n_voices)) + 1
    return fmin * 2.0 ** (np.arange(count) / cfg.n_voices)


def _grid_out(out: np.ndarray | None, shape: tuple[int, int]) -> np.ndarray:
    """A new complex grid of ``shape``, or ``out`` once it is checked to be one."""
    if out is None:
        return np.empty(shape, dtype=complex)
    if out.shape != shape or out.dtype != complex or not out.flags.c_contiguous or not out.flags.writeable:
        raise ContractViolation(f"out must be a writable C-contiguous complex array of shape {shape}")
    return out


def cwt_morlet(
    x: Signal, cfg: SstConfig = SstConfig(), *, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic Morlet CWT; returns (coefficients, frequencies_hz).

    Coefficient rows are ordered by ascending frequency (descending
    scale); each row is the inverse FFT of the spectrum multiplied by the
    scaled wavelet window, i.e. an L1-normalized transform where a unit
    tone keeps scale-independent magnitude.  The wavelet is analytic, so
    the window is built on bins ``0 … (n - 1) // 2`` only (0 Hz up to,
    not including, Nyquist); the inverse FFT zero-fills the rest.  The
    coefficients go to ``out`` when it is given: a C-contiguous complex
    ``(n_scales, n)`` array, which is returned.
    """
    freqs_hz = _scale_frequencies_hz(x, cfg)
    n = len(x)
    n_pos = (n + 1) // 2
    xi = 2.0 * np.pi * np.fft.fftfreq(n, 1.0 / x.sample_rate_hz)[:n_pos]  # rad/s
    spectrum = np.fft.fft(x.samples)[:n_pos]
    scales = cfg.morlet_w0 / (2.0 * np.pi * freqs_hz)  # seconds
    coeffs = _grid_out(out, (freqs_hz.size, n))
    for rows in _blocks(freqs_hz.size, n):
        # psi_hat(s*xi), zero at 0 Hz
        arg = scales[rows, None] * xi[None, :]
        window = np.where(arg > 0.0, np.pi**-0.25 * np.exp(-0.5 * (arg - cfg.morlet_w0) ** 2), 0.0)
        np.fft.ifft(spectrum[None, :] * window, n=n, axis=1, out=coeffs[rows])
    return coeffs, freqs_hz


@dataclass(frozen=True)
class SqueezedGrid:
    """Synchrosqueezed transform with the complex values retained.

    ``values`` is (frequency x time); ``energy()`` gives the
    nonnegative density used for ridge extraction.  ``gamma_abs`` is the
    resolved absolute magnitude threshold, and ``log_step``/``admissibility``
    carry the constants needed to invert the transform; reconstructed
    modes take the input's ``sample_rate_hz``.
    """

    sample_rate_hz: float
    freqs_hz: np.ndarray
    values: np.ndarray
    gamma_abs: float
    log_step: float
    admissibility: float
    dropped_mass: float

    def energy(self, out: np.ndarray | None = None) -> np.ndarray:
        """``|values|**2``, in ``out`` (a float array of the grid's shape) when given."""
        if out is None:
            return np.abs(self.values) ** 2
        if out.shape != self.values.shape or out.dtype != np.float64:
            raise ContractViolation(f"out must be a float array of shape {self.values.shape}")
        return np.square(np.abs(self.values, out=out), out=out)  # the bits of ``** 2``


def synchrosqueeze(
    W: np.ndarray, freqs_hz: np.ndarray, x: Signal, cfg: SstConfig = SstConfig(), *, out: np.ndarray | None = None
) -> SqueezedGrid:
    """Reassign CWT cells to the frequency bin of their phase derivative.

    Cells with magnitude at or below ``cfg.gamma`` (relative to the max)
    contribute nothing.  Output bins reuse the log-spaced scale grid, so
    no resampling is involved; reassigned mass that falls outside the
    grid is accounted in ``dropped_mass``.  The squeezed values go to
    ``out`` when it is given: a C-contiguous complex array of ``W``'s
    shape.  ``out=W`` squeezes in place, bit for bit as into a new grid;
    any other overlap with ``W`` raises.

    The grid is walked in blocks of time columns, each read with the
    column after it for the phase difference.  A cell's bin lies in its
    own column, so once a block is read its sums are complete: they are
    added up from zero in ascending scale order, as one scatter over the
    whole grid would, and written over the block's columns.
    """
    if W.shape != (freqs_hz.size, len(x)):
        raise ContractViolation("coefficient matrix must be (n_scales, n_samples)")
    if out is not None and out is not W and np.may_share_memory(out, W):
        raise ContractViolation("out must be the coefficients themselves or not overlap them")
    values = _grid_out(out, W.shape)
    n_bins, n_t = W.shape

    peak = float(np.max([np.abs(W[rows]).max(initial=0.0) for rows in _blocks(n_bins, n_t)], initial=0.0))
    if not np.isfinite(peak * peak):
        raise NumericalFailure("wavelet energy is not finite")
    gamma_abs = cfg.gamma * peak
    log_step = np.log(2.0) / cfg.n_voices
    to_hz = x.sample_rate_hz / (2.0 * np.pi)

    # one block's columns and the next one, row by row, and its per-cell
    # arrays, reused from block to block
    blocks = _blocks(n_t, n_bins)
    size = n_bins * (blocks[0].stop + 1)
    block_buf, phase_buf = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    omega_buf, magnitude_buf = np.empty(size), np.empty(size)
    keep_buf, hit_buf = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    frames = np.arange(n_t, dtype=np.float64)
    flat = values.reshape(-1)  # a view
    dropped, dropped_at = [], []
    for cols in blocks:
        width = cols.stop - cols.start
        span = min(cols.stop + 1, n_t) - cols.start  # with the next column, if any
        m = n_bins * span
        block = block_buf[:m]
        np.copyto(block.reshape(n_bins, span), W[:, cols.start : cols.start + span])

        # per-cell instantaneous frequency: one-sample finite difference of
        # the coefficient phase (the discrete form of Im(dW/dt / W) / 2pi),
        # which stays unbiased on tones and alias-free below Nyquist.  Taken
        # along the rows end to end, a row's last step runs into the next
        # row: that cell is the next block's column, left out below, or the
        # grid's last column, which repeats the column before
        phase = phase_buf[: m - 1]
        np.conjugate(block[:-1], out=phase)
        np.multiply(block[1:], phase, out=phase)  # at most peak**2, which fits
        omega = omega_buf[:m]
        np.arctan2(phase.imag, phase.real, out=omega[:-1])  # np.angle
        omega[-1] = 0.0  # no step starts at the last cell
        omega *= to_hz
        grid = omega.reshape(n_bins, span)
        if span == width:  # the grid's last column repeats the one before
            grid[:, -1] = grid[:, -2] if width > 1 else last
        last = grid[:, width - 1].copy()

        magnitude = magnitude_buf[:m]
        np.abs(block, out=magnitude)
        keep = keep_buf[:m]
        np.greater(magnitude, gamma_abs, out=keep)
        keep.reshape(n_bins, span)[:, width:] = False  # the next block's column
        # each cell's bin, nan or -inf where the frequency is not positive
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(omega, freqs_hz[0], out=omega)
            np.log(omega, out=omega)
            np.divide(omega, log_step, out=omega)
            np.rint(omega, out=omega)
        hit = hit_buf[:m]
        np.greater_equal(omega, 0.0, out=hit)
        hit &= keep
        hit &= omega < n_bins
        np.greater(keep, hit, out=keep)  # what stays kept falls outside the grid
        lost = keep.nonzero()[0]
        dropped.append(magnitude[lost])
        dropped_at.append(lost // span * n_t + lost % span + cols.start)

        cells = hit.nonzero()[0]
        picked = block[cells]
        omega *= n_t
        grid += frames[cols.start : cols.start + span]  # each cell's target, as a flat index of the grid
        values[:, cols] = 0.0
        np.add.at(flat, omega[cells].astype(np.int64), picked)

    return SqueezedGrid(
        sample_rate_hz=x.sample_rate_hz,
        freqs_hz=freqs_hz.copy(),
        values=values,
        gamma_abs=gamma_abs,
        log_step=log_step,
        admissibility=_admissibility(cfg.morlet_w0),
        # the dropped magnitudes in row-major order, summed as one array
        dropped_mass=float(np.concatenate(dropped)[np.concatenate(dropped_at).argsort()].sum()),
    )


def extract_ridges(
    S: SqueezedGrid, cfg: SstConfig, K: int, *, out: np.ndarray | None = None
) -> list[RidgeTrack]:
    """Greedy energy-ridge tracking, strongest ridge first.

    Each ridge seeds at the global maximum of the remaining energy and
    extends both ways, moving at most ``cfg.max_step`` bins per frame;
    frames whose best in-window energy falls below the squeeze threshold,
    or 40 dB below the ridge's seed energy, are flagged invalid.  A band of
    ``cfg.start_band`` bins around an extracted ridge is zeroed before the
    next one is sought.  Seeks ``K`` ridges (not ``cfg.K``); returns fewer
    tracks when the energy is exhausted; raises :class:`NumericalFailure`
    when the energy overflows.  The energy is worked on in ``out`` when
    it is given (see :meth:`SqueezedGrid.energy`).
    """
    if K < 1:
        raise ContractViolation("K must be >= 1")
    with np.errstate(over="ignore"):  # reported just below
        energy = S.energy(out)
    gamma_floor = S.gamma_abs * S.gamma_abs  # inf, not OverflowError, on overflow: no cell is above it
    if not np.isfinite(energy).all():
        raise NumericalFailure("squeezed energy is not finite")
    n_t = energy.shape[1]
    tracks: list[RidgeTrack] = []
    for _ in range(K):
        seed_flat = int(energy.argmax())
        seed_f, seed_t = divmod(seed_flat, n_t)
        if energy[seed_f, seed_t] <= gamma_floor:
            break
        floor = max(gamma_floor, RIDGE_FADE_REL * energy[seed_f, seed_t])
        bins, valid = walk_ridge(
            energy, seed_f, seed_t, cfg.max_step, floor, RIDGE_PATIENCE_FRAMES
        )
        tracks.append(RidgeTrack(bins=bins, valid=valid))
        energy[_band(tracks[-1], energy.shape, cfg.start_band)] = 0.0
    return tracks


def _band(track: RidgeTrack, shape: tuple[int, int], half_width: int) -> tuple[np.ndarray, np.ndarray]:
    """``(bins, frames)`` of the cells within ``half_width`` bins of a ridge, valid frames only.
    A band wider than the grid's rows holds just those rows, so its width is clipped there."""
    if track.bins.shape != shape[1:]:
        raise ContractViolation("ridge track must give one bin per frame of the grid")
    frames = track.valid.nonzero()[0]
    half_width = min(half_width, shape[0])
    bins = track.bins[frames, None] + np.arange(-half_width, half_width + 1)
    inside = (bins >= 0) & (bins < shape[0])
    return bins[inside], frames[inside.nonzero()[0]]


def reconstruct_mode(S: SqueezedGrid, track: RidgeTrack, half_width: int) -> Signal:
    """Invert the squeezed transform over a band around one ridge.

    Sums the real squeezed values within ``half_width`` bins of the track
    (one bin per frame of the grid) per valid frame and rescales by the
    wavelet admissibility constant; invalid frames contribute zero.
    """
    bins, frames = _band(track, S.values.shape, half_width)
    band_sum = np.bincount(frames, S.values.real[bins, frames], S.values.shape[1])
    return Signal((S.log_step / S.admissibility) * band_sum, S.sample_rate_hz)


def sst_decompose(x: Signal, cfg: SstConfig) -> Decomposition:
    """Full pipeline: CWT, squeeze, extract ``cfg.K`` ridges, reconstruct.

    Modes are ordered by ascending mean ridge frequency; the residual is
    the input minus the mode sum.  IF tracks report the ridge-bin
    frequency per frame.  It runs at unit peak.  Its record, ``exhausted`` below ``cfg.K`` ridges,
    else ``converged``, times the four stages and counts the ridges and the ``dropped_mass``.

    The complex grid (the CWT, squeezed in place) and the float ridge
    energy are one allocation of 24 bytes per cell: two grids apart would
    sit in the allocator's heap, where a small block left between them
    could make the next call's grids grow the heap.
    """
    samples, exp = _unit_scaled(x.samples)
    unit = Signal(samples, x.sample_rate_hz)
    shape = (_scale_frequencies_hz(unit, cfg).size, len(unit))
    grids = np.empty((3, *shape))  # the complex grid's bytes in planes 0 and 1, the energy in plane 2
    W = grids[:2].reshape(-1).view(complex).reshape(shape)
    clock = [perf_counter()]
    W, freqs_hz = cwt_morlet(unit, cfg, out=W)
    clock.append(perf_counter())
    S = synchrosqueeze(W, freqs_hz, unit, cfg, out=W)
    clock.append(perf_counter())
    tracks = sorted(extract_ridges(S, cfg, cfg.K, out=grids[2]), key=lambda tr: np.mean(S.freqs_hz[tr.bins]))
    clock.append(perf_counter())
    modes = [reconstruct_mode(S, tr, cfg.start_band).samples for tr in tracks]
    tracks_hz = [S.freqs_hz[tr.bins] for tr in tracks]
    clock.append(perf_counter())
    stages = zip(("cwt", "squeeze", "ridges", "reconstruct"), clock, clock[1:])
    counters = {"ridges_found": len(tracks), "ridges_requested": cfg.K, "dropped_mass": S.dropped_mass}
    record = RunRecord("sst", 0, "exhausted" if len(tracks) < cfg.K else "converged",
                       stage_seconds={stage: end - start for stage, start, end in stages}, counters=counters)
    return Decomposition.of(modes, samples - np.sum(modes, axis=0), x.sample_rate_hz, None, tracks_hz, exp, record)
