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
    ContractViolation, Decomposition, Diverged, NumericalFailure, RunRecord, Signal, _check_fields, _unit_scaled
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


_TINY = np.finfo(np.float64).tiny  # floors a denominator without setting a scale


def _update_norm(modes: np.ndarray, prev: np.ndarray, power, prev_power=None, diff=None) -> float:
    """Relative update of a sweep: the sum over modes, one at a time from
    the first, of ``power(mode - prev) / (prev_power + _TINY)``, ``power``
    giving one mode's sum of squares and ``prev_power`` defaulting to
    ``power(prev)`` of the same mode.  ``modes - prev`` is written to
    ``diff`` when it is given.  The methods iterate at unit peak, where
    these sums fit; a diverging sweep reads inf or NaN, never convergence.
    Each caller runs it inside its run's ``np.errstate`` guard, which
    silences that overflow."""
    diff = np.subtract(modes, prev, out=diff)
    total = 0
    for step, base in zip(diff, prev):
        total += power(step) / ((power(base) if prev_power is None else prev_power) + _TINY)
    return float(total)


def _spectral_power(mode: np.ndarray) -> np.float64:
    """Sum of squared magnitudes of one mode's spectra, ``(C, bins)``."""
    return np.vdot(mode, mode).real


def _power(mode: np.ndarray) -> np.float64:
    """Sum of squares of one mode, ``(n,)``."""
    return np.add.reduce(mode * mode)


def _variational_modes(
    channels: np.ndarray, cfg: VmdConfig, method: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, RunRecord]:
    """Joint Wiener-update / augmented-Lagrangian iteration on ``(C, n)`` data.

    Every mode keeps one spectrum per channel and one center frequency
    shared by all channels, recentred on the spectral power pooled over
    the channels; with one channel this is plain VMD.  The ``cfg.K``
    centers start at 0 (``init_mode="zeros"``) or spread evenly below
    Nyquist (``"uniform"``).  Returns the modes ``(K, C, n)``
    and their centers (cycles/sample), both ascending in frequency, the
    residual ``(C, n)``, the exponent that scales modes and residual back
    from unit peak (``Decomposition.of``) and ``method``'s record, each
    sweep's update norm in its trace.

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
    step = np.empty_like(u)  # the sweep's update, for its norm
    lam = np.zeros((n_ch, n_bins), dtype=complex)
    bin_width = 1.0 / t_len
    collision_run = np.zeros((k, k), dtype=int)

    # one mode's Wiener numerator, its filter and its power, written in place
    # by each mode update of every sweep
    numerator = np.empty((n_ch, n_bins), dtype=complex)
    wiener = np.empty(n_bins)
    power = np.empty((n_ch, n_bins))
    bandwidth = 2.0 * cfg.alpha

    trace: list[float] = []
    stop = "max_iters"

    # an overflow in the sweep leaves u non-finite (and a center NaN), which is reported
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(cfg.max_iters):
            u_prev[:] = u
            acc = np.add.reduce(u, axis=0)  # (channels, n_bins)
            half_lam = lam / 2.0
            for i in range(k):
                acc -= u[i]
                np.subtract(spectrum, acc, out=numerator)
                numerator += half_lam
                np.subtract(freqs, omega[i], out=wiener)
                np.square(wiener, out=wiener)  # the bits of ``** 2``
                wiener *= bandwidth
                wiener += 1.0  # 1 + 2 alpha (f - omega_i)**2
                np.divide(numerator, wiener, out=u[i])  # complex by real, as numpy divides them
                np.square(np.abs(u[i], out=power), out=power)
                denom = np.add.reduce(power, axis=None)
                if denom > 0.0:
                    pooled = np.add.reduce(power, axis=0)
                    omega[i] = float((pooled @ freqs) / denom)
                acc += u[i]
            lam = lam + cfg.tau * (spectrum - acc)

            if not np.isfinite(u.view(np.float64)).all():
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
            update_norm = _update_norm(u, u_prev, _spectral_power, None if iteration else input_power, step)
            trace.append(update_norm)
            if update_norm < cfg.tol and (iteration or update_norm == 0.0):
                stop = "converged"
                break

    order = np.argsort(omega)
    lo = t_len // 4
    modes = np.fft.irfft(u[order], n=t_len, axis=-1)[..., lo : lo + n]

    record = RunRecord(method, len(trace), stop, tuple(trace))
    return modes, omega[order], channels - modes.sum(axis=0), exp, record


def vmd_decompose(x: Signal, cfg: VmdConfig = VmdConfig()) -> tuple[Decomposition, RunRecord]:
    """Decompose into ``cfg.K`` bandlimited modes with center frequencies.

    The input is mirrored to double length before the frequency-domain
    iteration and trimmed afterwards, suppressing boundary splitting.
    Modes come back sorted by ascending center frequency; the residual is
    the input minus the mode sum.  Non-convergence inside ``max_iters``
    is recorded (``max_iters``), not raised; non-finite iterates raise
    :class:`NumericalFailure`.  Returns the decomposition and its record.
    """
    modes, centers, residual, exp, record = _variational_modes(x.samples[None, :], cfg, "vmd")
    fs = x.sample_rate_hz
    return Decomposition.of(modes[:, 0], residual[0], fs, centers * fs, exp=exp, record=record), record


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


def _fit_envelopes(
    trig: np.ndarray, residual: np.ndarray, smoothing: np.ndarray, system: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """One mode's quadrature envelopes (a, b), a ``(2, n)`` pair, a over b.

    They minimize ||r - a*cos - b*sin||^2 + weight*(||D2 a||^2 + ||D2 b||^2)
    with D2 the second-difference operator, r the ``residual`` and ``trig``
    the carrier pair ``(cos, sin)``, ``(2, n)``; ``smoothing`` holds the
    weighted D2 part in the ``dgbsv`` layout of :func:`_smoothing_bands`.
    Unknowns are interleaved (a0, b0, a1, b1, ...), so the normal equations
    have bandwidth 4: the data term couples a_t with b_t (offsets 0 and +-1,
    rows 8, 7 and 9) and the smoothing term each track with itself two
    samples away (offsets 0, +-2 and +-4).  They go to ``system``, ``(13,
    2n)`` in Fortran order so that LAPACK takes it without a copy, and
    their right-hand side to ``rhs``, ``(2n,)``; the solve
    (:func:`solve_banded`, looked up at each call) overwrites both and may
    return a view of ``rhs``.  A singular system or non-finite envelopes
    raise :class:`NumericalFailure`.
    """
    n = residual.size
    entries = system.T.reshape(n, 2, 13)  # by sample, then a or b, then row
    system[:] = smoothing
    np.add(trig * trig, smoothing[8].reshape(n, 2).T, out=entries[..., 8].T)  # the a_t and the b_t entries
    np.multiply(trig[0], trig[1], out=entries[:, 1, 7])  # (a_t, b_t)
    entries[:, 0, 9] = entries[:, 1, 7]  # (b_t, a_t)
    np.multiply(trig, residual, out=rhs.reshape(n, 2).T)
    solution = solve_banded(system, rhs)
    if not np.isfinite(solution).all():
        raise NumericalFailure("VNCMD envelope solve produced non-finite envelopes")
    return solution.reshape(n, 2).T


def vncmd_decompose(x: Signal, cfg: VncmdConfig) -> tuple[Decomposition, RunRecord]:
    """Joint demodulation of ``cfg.K`` chirp modes with IF tracking.

    Alternates banded envelope solves per mode with a demodulation-based
    frequency correction: the increment from the quadrature pair is
    zero-phase moving-average filtered and applied with step ``mu``.  The
    record's trace holds the penalized cost after each sweep, and its
    ``final_update_norm`` counter the last update norm.  The frequency
    update is a heuristic step, so convergence is not guaranteed:
    :class:`Diverged` (carrying partial results) is raised when the mode
    update norm grows for 10 consecutive iterations, and results can vary
    sharply with the initial frequencies.  It runs at unit peak; outputs
    and cost trace, partial ones too, are scaled back.

    Each mode's envelopes are one ``(2, n)`` pair, a over b, so that the
    increment, its gradients and the cost's second differences take every
    envelope in one call; the solve works on them interleaved (a0, b0, a1,
    b1, ...), and each solution is copied back to its pair.  The envelope
    system, its right-hand side, the phases, carriers, gradients and
    increments are buffers allocated once per run, which every mode,
    sweep or iteration overwrites; every value and every floating-point
    operation's order are those of one envelope at a time.
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
    if not np.isfinite(smoothing).all():
        raise ContractViolation(
            f"alpha={cfg.alpha!r} is too small: the smoothing bands (weight 1/alpha) are not finite"
        )

    if_tracks = np.tile(np.asarray(cfg.init_if_hz, dtype=float)[:, None], (1, n))
    envelopes = np.zeros((k, 2, n))  # each mode's a over its b
    modes = np.zeros((k, n))
    modes_prev = np.empty((k, n))
    steps = np.empty((k, n - 1))
    phase = np.zeros((k, n))  # column 0 stays 0
    trig = np.empty((k, 2, n))  # each mode's cos over its sin
    system = np.empty((13, 2 * n), order="F")
    rhs = np.empty(2 * n)
    residual = np.empty(n)
    terms = np.empty((2, n))
    grad = np.empty((k, 2, n))
    power = np.empty((k, 2, n))
    slopes = np.empty((k, 2, n - 1))  # the envelopes' first and second differences
    bends = np.empty((k, 2, n - 2))
    pad = ma_width // 2
    padded = np.empty((k, n + ma_width - 1))  # each mode's raw increment, its ends repeated
    raw = padded[:, pad : pad + n]
    increments = np.empty((k, n))
    kernel = np.ones(ma_width) / ma_width

    def sweep() -> None:
        """Refit every mode's envelopes on the current IF tracks, in place.

        Gauss-Seidel order: each mode is fitted against the latest
        versions of the others.
        """
        np.add(if_tracks[:, 1:], if_tracks[:, :-1], out=steps)
        np.divide(steps, 2.0, out=steps)
        np.multiply(steps, dt, out=steps)  # trapezoid rule
        steps.cumsum(axis=1, out=phase[:, 1:])
        np.multiply(phase, 2.0 * np.pi, out=phase)
        np.cos(phase, out=trig[:, 0])
        np.sin(phase, out=trig[:, 1])
        finite_tracks = np.isfinite(phase).all(axis=1)
        for i in range(k):
            np.subtract(np.add.reduce(modes, axis=0, out=residual), modes[i], out=residual)
            np.subtract(samples, residual, out=residual)
            if not (np.isfinite(residual).all() and finite_tracks[i]):
                raise NumericalFailure("VNCMD sweep produced a non-finite mode or IF track")
            envelopes[i] = _fit_envelopes(trig[i], residual, smoothing, system, rhs)
            np.multiply(envelopes[i], trig[i], out=terms)
            np.add(terms[0], terms[1], out=modes[i])

    # one guard for the run: an overflow leaves a value non-finite, and every
    # one is checked (the residuals, tracks, envelopes, envelope power and cost)
    with np.errstate(over="ignore", invalid="ignore"):
        sweep()

        trace: list[float] = []
        update_norm = np.inf
        growth_run = 0

        for _ in range(cfg.max_iters):
            np.copyto(modes_prev, modes)

            # demodulation-based frequency increment of every mode, from the
            # envelopes' gradients: numpy.gradient's central differences inside,
            # one-sided ones at the two ends
            np.subtract(envelopes[..., 2:], envelopes[..., :-2], out=grad[..., 1:-1])
            grad[..., 1:-1] /= 2.0 * dt
            np.subtract(envelopes[..., 1], envelopes[..., 0], out=grad[..., 0])
            np.subtract(envelopes[..., -1], envelopes[..., -2], out=grad[..., -1])
            grad[..., :: n - 1] /= dt  # samples 0 and n - 1
            # the envelope power is checked, up to the increment's 2 pi factor (an
            # infinite denominator would read as a zero increment); an infinite
            # increment clips like any huge one, and a NaN one fails the sweep's IF check
            np.multiply(envelopes, envelopes, out=power)
            denom = np.add(power[:, 0], power[:, 1], out=power[:, 0])
            peak = denom.max(axis=1, keepdims=True)
            if not np.isfinite(2.0 * np.pi * peak).all():
                raise NumericalFailure("VNCMD iteration produced non-finite envelope power")
            floor = 1e-10 * np.maximum(peak, _TINY)
            np.multiply(envelopes[:, ::-1], grad, out=grad)  # b da over a db
            np.subtract(grad[:, 0], grad[:, 1], out=raw)
            np.maximum(denom, floor, out=denom)
            denom *= 2.0 * np.pi
            raw /= denom
            padded[:, :pad] = raw[:, :1]  # the zero-phase moving average, the identity at width 1
            padded[:, pad + n :] = raw[:, -1:]
            for i in range(k):
                increments[i] = np.convolve(padded[i], kernel, mode="valid")

            increments *= cfg.mu
            increments += if_tracks
            increments.clip(0.0, nyquist, out=if_tracks)
            sweep()

            data = np.subtract(samples, np.add.reduce(modes, axis=0, out=residual), out=residual)
            np.subtract(envelopes[..., 1:], envelopes[..., :-1], out=slopes)  # np.diff(envelopes, n=2)
            np.subtract(slopes[..., 1:], slopes[..., :-1], out=bends)
            bends *= bends
            smooth_pairs = np.add.reduce(bends, axis=-1)
            # Python's sum adds the per-mode terms one at a time in mode order, here
            # and in the update norm; np.sum regroups them from 8 modes on
            smooth = sum(smooth_pairs[:, 0] + smooth_pairs[:, 1])
            cost = float(np.add.reduce(data * data) + weight * smooth)
            trace.append(cost)
            if not np.isfinite(cost):
                raise NumericalFailure("VNCMD iteration produced non-finite cost")

            new_norm = _update_norm(modes, modes_prev, _power)
            growth_run = growth_run + 1 if new_norm > update_norm else 0
            update_norm = new_norm
            if growth_run >= 10 or update_norm < cfg.tol:
                break

    with np.errstate(over="ignore"):  # a cost past float64's range reads inf
        trace = np.ldexp(trace, 2 * exp)
    stop = "diverged" if growth_run >= 10 else "converged" if update_norm < cfg.tol else "max_iters"
    record = RunRecord("vncmd", len(trace), stop, tuple(trace.tolist()), counters={"final_update_norm": update_norm})
    decomp = Decomposition.of(modes, samples - modes.sum(axis=0), fs, tracks=if_tracks, exp=exp, record=record)
    if stop == "diverged":
        raise Diverged("VNCMD update norm grew for 10 consecutive iterations", decomposition=decomp)
    return decomp, record
