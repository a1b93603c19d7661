"""Wavelet synchrosqueezing: CWT, phase-transform reassignment, greedy
penalized ridge extraction, and per-ridge mode reconstruction.

An analytic Morlet CWT over log-spaced scales is squeezed by adding each
kept coefficient to the bin of its phase derivative.  Both stages walk
the grid in blocks of scale rows (``_BLOCK_CELLS``), so a decompose holds
the CWT and the squeezed grid, and the block temporaries do not grow
with the input; the squeeze scatters each block into the grid with
``np.add.at``, in row-major order.  One band rule names the cells around a ridge:
extraction zeroes them before seeking the next ridge, and reconstruction
sums their real parts per frame in one bincount and scales by the
wavelet's admissibility constant; no step loops over frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import walk_ridge
from .core import ContractViolation, Decomposition, NumericalFailure, Signal, _check_fields, _scaled_back, _unit_scaled


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


#: cells of the grid one block of scale rows covers (256 KiB of complex);
#: the CWT and the squeeze hold about 80 bytes of temporaries per cell of
#: a block, and these do not grow with the input length
_BLOCK_CELLS = 2**14


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive row slices of about ``_BLOCK_CELLS`` cells, at least one row each."""
    step = max(1, _BLOCK_CELLS // n_cols)
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


@lru_cache(maxsize=8)
def _admissibility(w0: float) -> float:
    # (1/2) * integral of psi_hat(xi)/xi over xi > 0, by dense trapezoid
    xi = np.linspace(max(w0 - 10.0, 1e-6), w0 + 10.0, 20001)
    psi = np.pi**-0.25 * np.exp(-0.5 * (xi - w0) ** 2)
    return 0.5 * float(np.trapezoid(psi / xi, xi))


def _scale_frequencies_hz(x: Signal, cfg: SstConfig) -> np.ndarray:
    """Log-spaced analysis frequencies from 2/duration up to Nyquist."""
    fmin = 2.0 / x.duration_s
    fmax = x.sample_rate_hz / 2.0
    if fmin >= fmax:
        raise ContractViolation("signal too short for the scale grid")
    n_octaves = np.log2(fmax / fmin)
    count = int(np.ceil(n_octaves * cfg.n_voices)) + 1
    return fmin * 2.0 ** (np.arange(count) / cfg.n_voices)


def cwt_morlet(x: Signal, cfg: SstConfig = SstConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Analytic Morlet CWT; returns (coefficients, frequencies_hz).

    Coefficient rows are ordered by ascending frequency (descending
    scale); each row is the inverse FFT of the spectrum multiplied by the
    scaled wavelet window, i.e. an L1-normalized transform where a unit
    tone keeps scale-independent magnitude.  The wavelet is analytic, so
    the window is built on bins ``0 … (n - 1) // 2`` only (0 Hz up to,
    not including, Nyquist); the inverse FFT zero-fills the rest.
    """
    if len(x) < 64:
        raise ContractViolation("CWT needs at least 64 samples")
    freqs_hz = _scale_frequencies_hz(x, cfg)
    n = len(x)
    n_pos = (n + 1) // 2
    xi = 2.0 * np.pi * np.fft.fftfreq(n, 1.0 / x.sample_rate_hz)[:n_pos]  # rad/s
    spectrum = np.fft.fft(x.samples)[:n_pos]
    scales = cfg.morlet_w0 / (2.0 * np.pi * freqs_hz)  # seconds
    coeffs = np.empty((freqs_hz.size, n), dtype=complex)
    for rows in _row_blocks(freqs_hz.size, n):
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

    def energy(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def synchrosqueeze(
    W: np.ndarray, freqs_hz: np.ndarray, x: Signal, cfg: SstConfig = SstConfig()
) -> SqueezedGrid:
    """Reassign CWT cells to the frequency bin of their phase derivative.

    Cells with magnitude at or below ``cfg.gamma`` (relative to the max)
    contribute nothing.  Output bins reuse the log-spaced scale grid, so
    no resampling is involved; reassigned mass that falls outside the
    grid is accounted in ``dropped_mass``.
    """
    if W.shape != (freqs_hz.size, len(x)):
        raise ContractViolation("coefficient matrix must be (n_scales, n_samples)")
    n_bins, n_t = W.shape
    blocks = _row_blocks(n_bins, n_t)

    peak = float(np.max([np.abs(W[rows]).max(initial=0.0) for rows in blocks], initial=0.0))
    if not np.isfinite(peak * peak):
        raise NumericalFailure("wavelet energy is not finite")
    gamma_abs = cfg.gamma * peak
    log_step = np.log(2.0) / cfg.n_voices
    to_hz = x.sample_rate_hz / (2.0 * np.pi)

    values = np.zeros(W.shape, dtype=complex)
    real, imag = values.real.reshape(-1), values.imag.reshape(-1)  # views
    dropped = []
    for rows in blocks:
        block = W[rows]
        # per-cell instantaneous frequency: one-sample finite difference of
        # the coefficient phase (the discrete form of Im(dW/dt / W) / 2pi),
        # which stays unbiased on tones and alias-free below Nyquist
        phase = block[:, 1:] * np.conj(block[:, :-1])  # at most peak**2, which fits
        omega = np.empty(block.shape)
        np.arctan2(phase.imag, phase.real, out=omega[:, :-1])  # np.angle
        omega[:, :-1] *= to_hz
        omega[:, -1] = omega[:, -2]

        magnitude = np.abs(block)
        keep = magnitude > gamma_abs
        cells = np.flatnonzero(keep & (omega > 0.0))
        bins = np.rint(np.log(omega.ravel()[cells] / freqs_hz[0]) / log_step).astype(np.int64)
        inside = (bins >= 0) & (bins < n_bins)
        cells = cells[inside]
        keep.ravel()[cells] = False  # what stays kept falls outside the grid
        dropped.append(magnitude[keep])

        # row-major input order, so each cell adds up its contributions as
        # one bincount over the whole grid would
        flat = bins[inside] * n_t + cells % n_t
        picked = block.ravel()[cells]
        np.add.at(real, flat, picked.real)
        np.add.at(imag, flat, picked.imag)

    return SqueezedGrid(
        sample_rate_hz=x.sample_rate_hz,
        freqs_hz=freqs_hz.copy(),
        values=values,
        gamma_abs=gamma_abs,
        log_step=log_step,
        admissibility=_admissibility(cfg.morlet_w0),
        dropped_mass=float(np.concatenate(dropped).sum()),  # one row-major sum
    )


def extract_ridges(S: SqueezedGrid, cfg: SstConfig, K: int) -> list[RidgeTrack]:
    """Greedy energy-ridge tracking, strongest ridge first.

    Each ridge seeds at the global maximum of the remaining energy and
    extends both ways, moving at most ``cfg.max_step`` bins per frame;
    frames whose best in-window energy falls below the squeeze threshold,
    or 40 dB below the ridge's seed energy, are flagged invalid.  A band of
    ``cfg.start_band`` bins around an extracted ridge is zeroed before the
    next one is sought.  Seeks ``K`` ridges (not ``cfg.K``); returns fewer
    tracks when the energy is exhausted; raises :class:`NumericalFailure`
    when the energy overflows.
    """
    if K < 1:
        raise ContractViolation("K must be >= 1")
    with np.errstate(over="ignore"):  # reported just below
        energy = S.energy()
    gamma_floor = S.gamma_abs * S.gamma_abs  # inf, not OverflowError, on overflow
    if not (np.isfinite(gamma_floor) and np.all(np.isfinite(energy))):
        raise NumericalFailure("squeezed energy is not finite")
    n_t = energy.shape[1]
    tracks: list[RidgeTrack] = []
    for _ in range(K):
        seed_flat = int(np.argmax(energy))
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
    frames = np.flatnonzero(track.valid)
    half_width = min(half_width, shape[0])
    bins = track.bins[frames, None] + np.arange(-half_width, half_width + 1)
    inside = (bins >= 0) & (bins < shape[0])
    return bins[inside], frames[np.nonzero(inside)[0]]


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
    frequency per frame.  It runs at unit peak.
    """
    samples, exp = _unit_scaled(x.samples)
    unit = Signal(samples, x.sample_rate_hz)
    S = synchrosqueeze(*cwt_morlet(unit, cfg), unit, cfg)
    tracks = sorted(extract_ridges(S, cfg, cfg.K), key=lambda tr: np.mean(S.freqs_hz[tr.bins]))
    modes = [reconstruct_mode(S, tr, cfg.start_band).samples for tr in tracks]
    residual = samples - np.sum(modes, axis=0)
    return Decomposition(
        modes=tuple(Signal(_scaled_back(m, exp), x.sample_rate_hz) for m in modes),
        residual=Signal(_scaled_back(residual, exp), x.sample_rate_hz),
        if_tracks_hz=tuple(S.freqs_hz[tr.bins] for tr in tracks),
    )
