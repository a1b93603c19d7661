"""Variational decompositions: bandlimited (VMD) and chirp-capable (VNCMD).

VMD alternates Wiener-filter-like spectral mode updates with center-
frequency recentering inside an augmented-Lagrangian scheme; it assumes
each component is narrow-band.  The iteration runs on multichannel data
with one center per mode pooled over the channels, so VMD is its
one-channel case and MVMD (``multivariate.mvmd_decompose``) uses it too.  VNCMD drops that assumption by jointly
demodulating each component against an evolving instantaneous-frequency
track, solving smoothness-penalized least squares for the quadrature
envelopes and nudging the tracks with a filtered frequency increment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import lapack
from .core import (
    ContractViolation, Decomposition, Diverged, NumericalFailure, Signal, _check_fields, _scaled_back, _unit_scaled
)


@dataclass(frozen=True)
class VmdConfig:
    K: int = 3
    alpha: float = 500.0  # bandwidth penalty
    tau: float = 0.0  # dual ascent rate; 0 leaves reconstruction slack for noise
    tol: float = 1e-7
    max_iters: int = 500
    init_mode: str = "uniform"  # zeros | uniform: the starting center frequencies

    def __post_init__(self):
        _check_fields(self, K=1, tau=0, max_iters=1)
        if not (self.alpha > 0 and self.tol > 0):
            raise ContractViolation("alpha and tol must be positive")
        if self.init_mode not in ("zeros", "uniform"):
            raise ContractViolation("init_mode must be zeros or uniform")


@dataclass(frozen=True)
class ConvergenceReport:
    final_update_norm: float
    converged: bool
    objective_trace: tuple[float, ...]

    @property
    def iterations(self) -> int:
        return len(self.objective_trace)


_TINY = np.finfo(np.float64).tiny  # floors a denominator without setting a scale


def _update_norm(modes: np.ndarray, prev: np.ndarray, power, prev_power=None) -> float:
    """Relative update of a sweep: the sum over modes of ``power(mode -
    prev) / (prev_power + _TINY)``, ``power`` giving each mode's sum of
    squares and ``prev_power`` defaulting to ``power(prev)``.  The methods
    iterate at unit peak, where these sums fit; a diverging sweep reads
    inf or NaN, never convergence."""
    if prev_power is None:
        prev_power = power(prev)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(sum(power(modes - prev) / (prev_power + _TINY)))


def _spectral_power(u: np.ndarray) -> np.ndarray:
    """Sum of squared magnitudes of each mode's spectra, ``(K, C, bins)``."""
    return np.array([np.vdot(mode, mode).real for mode in u])


def _power(modes: np.ndarray) -> np.ndarray:
    """Sum of squares of each mode, ``(K, n)``."""
    return np.sum(modes**2, axis=1)


def _variational_modes(
    channels: np.ndarray, cfg: VmdConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ConvergenceReport]:
    """Joint Wiener-update / augmented-Lagrangian iteration on ``(C, n)`` data.

    Every mode keeps one spectrum per channel and one center frequency
    shared by all channels, recentred on the spectral power pooled over
    the channels; with one channel this is plain VMD.  The ``cfg.K``
    centers start at 0 (``init_mode="zeros"``) or spread evenly below
    Nyquist (``"uniform"``).  Returns the modes ``(K, C, n)``
    and their centers (cycles/sample), both ascending in frequency, the
    residual ``(C, n)`` and the report.

    The iteration keeps only the one-sided spectrum of the mirrored
    input, bins ``0 … (t_len - 1) // 2``: the modes are analytic, so the
    negative half stays zero, and the Nyquist bin, which is its own
    mirror image, is left out too.  One inverse real FFT rebuilds the
    real modes with the Nyquist bin at zero.  It runs at unit peak.
    """
    channels, exp = _unit_scaled(channels)
    n_ch, n = channels.shape
    k = cfg.K
    if k >= n / 2:
        raise ContractViolation("K must be smaller than half the sample count")

    half_n = n // 2
    mirrored = np.concatenate(
        [channels[:, :half_n][:, ::-1], channels, channels[:, n - half_n :][:, ::-1]],
        axis=1,
    )
    t_len = mirrored.shape[1]
    n_bins = (t_len + 1) // 2  # 0 Hz up to, not including, Nyquist
    freqs = np.arange(n_bins) / t_len  # cycles/sample
    spectrum = np.fft.fft(mirrored, axis=1)[:, :n_bins]
    input_power = np.vdot(spectrum, spectrum).real

    # starting centers in cycles/sample
    omega = 0.5 * np.arange(1, k + 1) / (k + 1) if cfg.init_mode == "uniform" else np.zeros(k)
    u = np.zeros((k, n_ch, n_bins), dtype=complex)
    u_prev = np.zeros_like(u)
    lam = np.zeros((n_ch, n_bins), dtype=complex)
    bin_width = 1.0 / t_len
    collision_run = np.zeros((k, k), dtype=int)

    trace: list[float] = []
    update_norm = np.inf
    converged = False

    # an overflow in the sweep leaves u non-finite (and a center NaN), which is reported
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(cfg.max_iters):
            u_prev[:] = u
            acc = u.sum(axis=0)  # (channels, n_bins)
            half_lam = lam / 2.0
            for i in range(k):
                acc -= u[i]
                np.divide(
                    spectrum - acc + half_lam,
                    1.0 + 2.0 * cfg.alpha * (freqs - omega[i]) ** 2,
                    out=u[i],
                )
                power = np.abs(u[i]) ** 2
                denom = power.sum()
                if denom > 0.0:
                    # one channel needs no pooling; skipping the reduction keeps VMD fast
                    pooled = power[0] if n_ch == 1 else power.sum(axis=0)
                    omega[i] = float((pooled @ freqs) / denom)
                acc += u[i]
            lam = lam + cfg.tau * (spectrum - acc)

            if not np.all(np.isfinite(u.view(np.float64))):
                raise NumericalFailure("variational iteration produced non-finite values")

            # keep center frequencies from locking onto one another
            for i in range(k):
                for j in range(i + 1, k):
                    if abs(omega[i] - omega[j]) < bin_width:
                        collision_run[i, j] += 1
                        if collision_run[i, j] >= 5:
                            later = j if omega[j] >= omega[i] else i
                            omega[later] += 2.0 * bin_width
                            collision_run[i, j] = 0
                    else:
                        collision_run[i, j] = 0

            # the first sweep starts from zero modes: it is measured against
            # the input's power, and it stops only if it moved nothing
            update_norm = _update_norm(u, u_prev, _spectral_power, None if iteration else input_power)
            trace.append(update_norm)
            if update_norm < cfg.tol and (iteration or update_norm == 0.0):
                converged = True
                break

    order = np.argsort(omega)
    lo = t_len // 4
    modes = np.fft.irfft(u[order], n=t_len, axis=-1)[..., lo : lo + n]

    report = ConvergenceReport(
        final_update_norm=update_norm,
        converged=converged,
        objective_trace=tuple(trace),
    )
    return _scaled_back(modes, exp), omega[order], _scaled_back(channels - modes.sum(axis=0), exp), report


def vmd_decompose(
    x: Signal, cfg: VmdConfig = VmdConfig()
) -> tuple[Decomposition, ConvergenceReport]:
    """Decompose into ``cfg.K`` bandlimited modes with center frequencies.

    The input is mirrored to double length before the frequency-domain
    iteration and trimmed afterwards, suppressing boundary splitting.
    Modes come back sorted by ascending center frequency; the residual is
    the input minus the mode sum.  Non-convergence inside ``max_iters``
    is reported, not raised; non-finite iterates raise
    :class:`NumericalFailure`.
    """
    modes, centers, residual, report = _variational_modes(x.samples[None, :], cfg)
    fs = x.sample_rate_hz
    decomp = Decomposition(
        modes=tuple(Signal(m, fs) for m in modes[:, 0]),
        residual=Signal(residual[0], fs),
        center_freqs_hz=tuple(float(f * fs) for f in centers),
    )
    return decomp, report


# ---------------------------------------------------------------------------
# VNCMD
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VncmdConfig:
    K: int
    init_if_hz: tuple[float, ...]
    alpha: float = 1e-3  # envelope smoothness: penalty weight is 1/alpha
    mu: float = 0.5  # step applied to the filtered IF increment
    tol: float = 1e-6
    max_iters: int = 300
    if_smooth_frac: float = 0.01  # moving-average width for IF increments, as fraction of N

    def __post_init__(self):
        _check_fields(self, K=1, max_iters=1, if_smooth_frac=0)
        if not len(self.init_if_hz) == len(set(self.init_if_hz)) == self.K:
            raise ContractViolation("need K distinct initial frequencies, one per mode")
        if not (self.alpha > 0 and self.mu > 0 and self.tol > 0):
            raise ContractViolation("alpha, mu and tol must be positive")
        if self.if_smooth_frac > 1.0:
            raise ContractViolation("if_smooth_frac must be within [0, 1]")


def _smoothing_bands(n: int, weight: float) -> np.ndarray:
    """``weight * D2^T D2`` for interleaved (a0, b0, a1, b1, ...) unknowns.

    D2 is the second-difference operator on a track of ``n`` samples.
    The layout is LAPACK ``dgbsv``'s for four sub- and four
    superdiagonals: 13 rows, rows 0-3 left zero as room for the LU
    fill-in, row ``8 - d`` holding offset ``+d``, and Fortran order, so
    that the array reaches LAPACK without a copy.  Rows 4-12 are
    ``solve_banded((4, 4), ...)``'s layout.  Each track couples with
    itself at sample offsets 0, 1 and 2, which interleaving puts at
    offsets 0, 2 and 4; the lower bands copy the upper ones because the
    matrix is symmetric.
    """
    m = 2 * n
    main = np.full(n, 6.0)
    main[0] = main[-1] = 1.0
    main[1] = main[-2] = 5.0
    off1 = np.full(n - 1, -4.0)
    off1[0] = off1[-1] = -2.0
    off2 = np.full(n - 2, 1.0)

    bands = np.zeros((13, m), order="F")
    for d, stencil in ((0, main), (2, off1), (4, off2)):
        bands[8 - d, d::2] = weight * stencil  # the a track
        bands[8 - d, d + 1 :: 2] = weight * stencil  # the b track
    for d in (2, 4):
        bands[8 + d, : m - d] = bands[8 - d, d:]
    return bands


def solve_banded(bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the bandwidth-4 system in ``dgbsv`` layout, both arguments
    overwritten; the routine and the result are those of
    ``scipy.linalg.solve_banded((4, 4), bands[4:], rhs)``, without its
    argument copies and finiteness scan.  A singular system raises
    :class:`NumericalFailure`.  This is VNCMD's one solve call site,
    which the benchmark's probe wraps by this name.  ``dgbsv`` comes from
    :func:`._kernels.lapack`, so no run loads ``scipy.linalg``."""
    _, _, solution, info = lapack().dgbsv(4, 4, bands, rhs, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise NumericalFailure("VNCMD envelope system is singular")
    return solution


def _envelope_solve(
    residual: np.ndarray, cos_t: np.ndarray, sin_t: np.ndarray, smoothing: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for quadrature envelopes (a, b) of one mode.

    Minimizes ||r - a*cos - b*sin||^2 + weight*(||D2 a||^2 + ||D2 b||^2)
    with D2 the second-difference operator; ``smoothing`` holds the
    weighted D2 part in the ``dgbsv`` layout of :func:`_smoothing_bands`.
    Unknowns are interleaved (a0, b0, a1, b1, ...), so the normal
    equations have bandwidth 4: the data term couples a_t with b_t
    (offsets 0 and +-1, rows 8, 7 and 9) and the smoothing term each
    track with itself two samples away (offsets 0, +-2 and +-4).  Solved
    directly for determinism, on a copy of ``smoothing``.
    """
    bands = smoothing.copy(order="F")
    bands[8, 0::2] += cos_t * cos_t
    bands[8, 1::2] += sin_t * sin_t
    cs = cos_t * sin_t
    bands[7, 1::2] = cs  # (a_t, b_t)
    bands[9, 0::2] = cs  # (b_t, a_t)

    rhs = np.empty(2 * residual.size)
    rhs[0::2] = residual * cos_t
    rhs[1::2] = residual * sin_t
    solution = solve_banded(bands, rhs)
    if not np.all(np.isfinite(solution)):
        raise NumericalFailure("VNCMD envelope solve produced non-finite envelopes")
    return solution[0::2], solution[1::2]


def _moving_average(x: np.ndarray, width: int) -> np.ndarray:
    if width <= 1:
        return x
    kernel = np.ones(width) / width
    pad = width // 2
    padded = np.concatenate([np.full(pad, x[0]), x, np.full(width - 1 - pad, x[-1])])
    return np.convolve(padded, kernel, mode="valid")


def vncmd_decompose(
    x: Signal, cfg: VncmdConfig
) -> tuple[Decomposition, ConvergenceReport]:
    """Joint demodulation of ``cfg.K`` chirp modes with IF tracking.

    Alternates banded envelope solves per mode with a demodulation-based
    frequency correction: the increment from the quadrature pair is
    zero-phase moving-average filtered and applied with step ``mu``.  The
    objective trace records the penalized cost after each sweep.  The
    frequency update is a heuristic step, so convergence is not
    guaranteed: :class:`Diverged` (carrying partial results) is raised
    when the mode update norm grows for 10 consecutive iterations, and
    results can vary sharply with the initial frequencies.  It runs at
    unit peak; outputs and cost trace, partial ones too, are scaled back.
    """
    n = len(x)
    fs = x.sample_rate_hz
    nyquist = fs / 2.0
    for f0 in cfg.init_if_hz:
        if not 0.0 < f0 < nyquist:
            raise ContractViolation("initial frequencies must lie in (0, Nyquist)")

    dt = 1.0 / fs
    weight = 1.0 / cfg.alpha
    ma_width = max(int(round(cfg.if_smooth_frac * n)), 1)
    k = cfg.K
    samples, exp = _unit_scaled(x.samples)
    with np.errstate(over="ignore"):  # reported just below
        smoothing = _smoothing_bands(n, weight)
    if not np.all(np.isfinite(smoothing)):
        raise ContractViolation(
            f"alpha={cfg.alpha!r} is too small: the smoothing bands (weight 1/alpha) are not finite"
        )

    if_tracks = np.tile(np.asarray(cfg.init_if_hz, dtype=float)[:, None], (1, n))
    a = np.zeros((k, n))
    b = np.zeros((k, n))
    modes = np.zeros((k, n))

    def sweep() -> None:
        """Refit every mode's envelopes on the current IF tracks, in place.

        Gauss-Seidel order: each mode is fitted against the latest
        versions of the others.
        """
        steps = (if_tracks[:, 1:] + if_tracks[:, :-1]) / 2.0 * dt  # trapezoid rule
        phase = 2.0 * np.pi * np.concatenate([np.zeros((k, 1)), np.cumsum(steps, axis=1)], axis=1)
        cos_t, sin_t = np.cos(phase), np.sin(phase)
        for i in range(k):
            residual = samples - (modes.sum(axis=0) - modes[i])
            if not (np.all(np.isfinite(residual)) and np.all(np.isfinite(cos_t[i]))):
                raise NumericalFailure("VNCMD sweep produced a non-finite mode or IF track")
            a[i], b[i] = _envelope_solve(residual, cos_t[i], sin_t[i], smoothing)
            modes[i] = a[i] * cos_t[i] + b[i] * sin_t[i]

    sweep()

    trace: list[float] = []
    update_norm = np.inf
    growth_run = 0

    for _ in range(cfg.max_iters):
        modes_prev = modes.copy()

        # demodulation-based frequency increment of every mode
        da = np.gradient(a, dt, axis=1)
        db = np.gradient(b, dt, axis=1)
        # the envelope power is checked, up to the increment's 2 pi factor (an
        # infinite denominator would read as a zero increment); an infinite
        # increment clips like any huge one, and a NaN one fails the sweep's IF check
        with np.errstate(over="ignore", invalid="ignore"):
            denom = a**2 + b**2
            peak = denom.max(axis=1, keepdims=True)
            if not np.all(np.isfinite(2.0 * np.pi * peak)):
                raise NumericalFailure("VNCMD iteration produced non-finite envelope power")
            floor = 1e-10 * np.maximum(peak, _TINY)
            raw = (b * da - a * db) / (2.0 * np.pi * np.maximum(denom, floor))
            increments = np.array([_moving_average(row, ma_width) for row in raw])

        if_tracks[:] = np.clip(if_tracks + cfg.mu * increments, 0.0, nyquist)
        sweep()

        data = samples - modes.sum(axis=0)
        d2a = np.diff(a, n=2, axis=1)
        d2b = np.diff(b, n=2, axis=1)
        # Python's sum adds the per-mode terms one at a time in mode order, here
        # and in the update norm; np.sum regroups them from 8 modes on
        smooth = sum(np.sum(d2a * d2a, axis=1) + np.sum(d2b * d2b, axis=1))
        cost = float(np.sum(data * data) + weight * smooth)
        trace.append(cost)
        if not np.isfinite(cost):
            raise NumericalFailure("VNCMD iteration produced non-finite cost")

        new_norm = _update_norm(modes, modes_prev, _power)
        growth_run = growth_run + 1 if new_norm > update_norm else 0
        update_norm = new_norm
        if growth_run >= 10 or update_norm < cfg.tol:
            break

    decomp = Decomposition(
        modes=tuple(Signal(m, fs) for m in _scaled_back(modes, exp)),
        residual=Signal(_scaled_back(samples - modes.sum(axis=0), exp), fs),
        if_tracks_hz=tuple(if_tracks),
    )
    with np.errstate(over="ignore"):  # a cost past float64's range reads inf
        trace = np.ldexp(trace, 2 * exp)
    report = ConvergenceReport(
        final_update_norm=update_norm if np.isfinite(update_norm) else 0.0,
        converged=update_norm < cfg.tol,
        objective_trace=tuple(trace.tolist()),
    )
    if growth_run >= 10:
        raise Diverged(
            "VNCMD update norm grew for 10 consecutive iterations",
            decomposition=decomp,
            report=report,
        )
    return decomp, report
