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
from scipy.linalg import solve_banded

from .core import (
    ContractViolation,
    Decomposition,
    Diverged,
    NumericalFailure,
    Signal,
)


def _check_variational_config(cfg, init_modes: tuple[str, ...]) -> None:
    """Shared ``__post_init__`` checks of the VMD and MVMD configs."""
    if cfg.K < 1:
        raise ContractViolation("K must be >= 1")
    if cfg.alpha <= 0 or cfg.tol <= 0 or cfg.tau < 0:
        raise ContractViolation("alpha/tol must be positive, tau nonnegative")
    if cfg.init_mode not in init_modes:
        raise ContractViolation(
            f"init_mode must be {', '.join(init_modes[:-1])} or {init_modes[-1]}"
        )


@dataclass(frozen=True)
class VmdConfig:
    K: int = 3
    alpha: float = 500.0  # bandwidth penalty
    tau: float = 0.0  # dual ascent rate; 0 leaves reconstruction slack for noise
    tol: float = 1e-7
    max_iters: int = 500
    init_mode: str = "uniform"  # zeros | uniform | random
    seed: int = 0  # used by init_mode="random" only

    def __post_init__(self):
        _check_variational_config(self, ("zeros", "uniform", "random"))


@dataclass(frozen=True)
class ConvergenceReport:
    iterations: int
    final_update_norm: float
    converged: bool
    objective_trace: tuple[float, ...]

    def __post_init__(self):
        if len(self.objective_trace) != self.iterations:
            raise ContractViolation("trace length must equal iteration count")


def _initial_centers(k: int, init_mode: str, seed: int = 0) -> np.ndarray:
    """Starting center frequencies in cycles/sample for ``init_mode``."""
    if init_mode == "uniform":
        return 0.5 * np.arange(1, k + 1) / (k + 1)
    if init_mode == "random":
        rng = np.random.Generator(np.random.Philox(seed))
        return np.sort(rng.random(k) * 0.5)
    return np.zeros(k)


def _variational_modes(
    channels: np.ndarray, omega: np.ndarray, cfg
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ConvergenceReport]:
    """Joint Wiener-update / augmented-Lagrangian iteration on ``(C, n)`` data.

    Every mode keeps one spectrum per channel and one center frequency
    shared by all channels, recentred on the spectral power pooled over
    the channels; with one channel this is plain VMD.  ``cfg`` supplies
    ``alpha``, ``tau``, ``tol`` and ``max_iters``; ``omega`` holds the
    initial centers in cycles/sample.  Returns the modes ``(K, C, n)``
    and their centers (cycles/sample), both ascending in frequency, the
    residual ``(C, n)`` and the report.
    """
    n_ch, n = channels.shape
    k = omega.size
    if k >= n / 2:
        raise ContractViolation("K must be smaller than half the sample count")

    half_n = n // 2
    mirrored = np.concatenate(
        [channels[:, :half_n][:, ::-1], channels, channels[:, n - half_n :][:, ::-1]],
        axis=1,
    )
    t_len = mirrored.shape[1]
    half = t_len // 2
    freqs = (np.arange(t_len) - half) / t_len  # cycles/sample, 0 at index `half`

    spectrum_plus = np.fft.fftshift(np.fft.fft(mirrored, axis=1), axes=1)
    spectrum_plus[:, :half] = 0.0

    omega = omega.copy()
    u = np.zeros((k, n_ch, t_len), dtype=complex)
    u_prev = np.zeros_like(u)
    lam = np.zeros((n_ch, t_len), dtype=complex)
    pos = slice(half, t_len)
    pos_freqs = freqs[pos]
    bin_width = 1.0 / t_len
    collision_run = np.zeros((k, k), dtype=int)

    trace: list[float] = []
    update_norm = np.inf
    converged = False
    iterations = 0

    for iteration in range(cfg.max_iters):
        u_prev[:] = u
        acc = u.sum(axis=0)  # (channels, t_len)
        half_lam = lam / 2.0
        for i in range(k):
            acc -= u[i]
            np.divide(
                spectrum_plus - acc + half_lam,
                1.0 + 2.0 * cfg.alpha * (freqs - omega[i]) ** 2,
                out=u[i],
            )
            power = np.abs(u[i, :, pos]) ** 2
            denom = power.sum()
            if denom > 0.0:
                # one channel needs no pooling; skipping the reduction keeps VMD fast
                pooled = power[0] if n_ch == 1 else power.sum(axis=0)
                omega[i] = float((pooled @ pos_freqs) / denom)
            acc += u[i]
        lam = lam + cfg.tau * (spectrum_plus - acc)

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

        diff = u - u_prev
        update_norm = float(
            sum(
                np.vdot(diff[i], diff[i]).real / (np.vdot(u_prev[i], u_prev[i]).real + 1e-30)
                for i in range(k)
            )
        )
        trace.append(update_norm)
        iterations = iteration + 1
        if update_norm < cfg.tol:
            converged = True
            break

    # rebuild time-domain modes from the positive-frequency half spectra
    order = np.argsort(omega)
    full = np.zeros((k, n_ch, t_len), dtype=complex)
    full[..., half:] = u[order, :, half:]
    m = t_len - half - 1  # positive bins above zero; odd lengths have no Nyquist bin
    full[..., half - m : half] = np.conj(u[order, :, half + 1 :][..., ::-1])
    if t_len % 2 == 0:
        full[..., 0] = np.conj(full[..., -1])
    series = np.real(np.fft.ifft(np.fft.ifftshift(full, axes=-1), axis=-1))
    lo = t_len // 4
    modes = series[..., lo : lo + n]

    report = ConvergenceReport(
        iterations=iterations,
        final_update_norm=update_norm,
        converged=converged,
        objective_trace=tuple(trace),
    )
    return modes, omega[order], channels - modes.sum(axis=0), report


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
    modes, centers, residual, report = _variational_modes(
        x.samples[None, :], _initial_centers(cfg.K, cfg.init_mode, cfg.seed), cfg
    )
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
        if len(self.init_if_hz) != self.K:
            raise ContractViolation("need one initial frequency per mode")
        if len(set(self.init_if_hz)) != self.K:
            raise ContractViolation("initial frequencies must be distinct")
        if self.alpha <= 0 or self.mu <= 0 or self.tol <= 0:
            raise ContractViolation("alpha, mu and tol must be positive")


def _envelope_solve(
    residual: np.ndarray, cos_t: np.ndarray, sin_t: np.ndarray, weight: float
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for quadrature envelopes (a, b) of one mode.

    Minimizes ||r - a*cos - b*sin||^2 + weight*(||D2 a||^2 + ||D2 b||^2)
    with D2 the second-difference operator.  Unknowns are interleaved
    (a0, b0, a1, b1, ...) which makes the normal equations banded with
    bandwidth 5; solved directly for determinism.
    """
    n = residual.size
    m = 2 * n
    bands = np.zeros((11, m))  # 5 super-, main, 5 sub-diagonals

    # D2^T D2 pentadiagonal stencil for a natural second-difference matrix
    main = np.full(n, 6.0)
    main[0] = main[-1] = 1.0
    main[1] = main[-2] = 5.0
    off1 = np.full(n - 1, -4.0)
    off1[0] = off1[-1] = -2.0
    off2 = np.full(n - 2, 1.0)

    c2 = cos_t * cos_t
    s2 = sin_t * sin_t
    cs = cos_t * sin_t

    # diagonal (offset 0): data term + smoothness main diagonal
    bands[5, 0::2] = weight * main + c2
    bands[5, 1::2] = weight * main + s2
    # offset +-1: a(t)-b(t) coupling from the data term
    bands[4, 1::2] = cs  # super-diagonal entries (a_t, b_t)
    bands[6, 0:m - 1:2] = cs  # sub-diagonal mirror
    # offset +-2: smoothness +-1 coupling within each track
    bands[3, 2::2] = weight * off1
    bands[3, 3::2] = weight * off1
    bands[7, 0:m - 2:2] = weight * off1
    bands[7, 1:m - 2:2] = weight * off1
    # offset +-4: smoothness +-2 coupling
    bands[1, 4::2] = weight * off2
    bands[1, 5::2] = weight * off2
    bands[9, 0:m - 4:2] = weight * off2
    bands[9, 1:m - 4:2] = weight * off2

    rhs = np.empty(m)
    rhs[0::2] = residual * cos_t
    rhs[1::2] = residual * sin_t
    solution = solve_banded((5, 5), bands, rhs)
    return solution[0::2], solution[1::2]


def _second_difference_energy(track: np.ndarray) -> float:
    d2 = np.diff(track, n=2)
    return float(np.sum(d2 * d2))


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
    results can vary sharply with the initial frequencies.
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
    samples = x.samples

    if_tracks = np.tile(np.asarray(cfg.init_if_hz, dtype=float)[:, None], (1, n))
    a = np.zeros((k, n))
    b = np.zeros((k, n))
    modes = np.zeros((k, n))
    cos_t = np.zeros((k, n))
    sin_t = np.zeros((k, n))

    def refresh_phase(i: int) -> None:
        phase = 2.0 * np.pi * np.concatenate([[0.0], np.cumsum((if_tracks[i, 1:] + if_tracks[i, :-1]) / 2.0 * dt)])
        cos_t[i] = np.cos(phase)
        sin_t[i] = np.sin(phase)

    for i in range(k):
        refresh_phase(i)

    def penalized_cost() -> float:
        data = samples - modes.sum(axis=0)
        smooth = sum(
            _second_difference_energy(a[i]) + _second_difference_energy(b[i])
            for i in range(k)
        )
        return float(np.sum(data * data) + weight * smooth)

    def solve_all_envelopes() -> None:
        for i in range(k):
            others = modes.sum(axis=0) - modes[i]
            a[i], b[i] = _envelope_solve(samples - others, cos_t[i], sin_t[i], weight)
            modes[i] = a[i] * cos_t[i] + b[i] * sin_t[i]

    solve_all_envelopes()

    trace: list[float] = []
    update_norm = np.inf
    prev_update_norm = np.inf
    growth_run = 0
    converged = False
    iterations = 0

    def build_result() -> tuple[Decomposition, ConvergenceReport]:
        mode_signals = tuple(Signal(modes[i], fs) for i in range(k))
        residual = Signal(samples - modes.sum(axis=0), fs)
        decomp = Decomposition(
            modes=mode_signals,
            residual=residual,
            if_tracks_hz=tuple(if_tracks[i].copy() for i in range(k)),
        )
        report = ConvergenceReport(
            iterations=iterations,
            final_update_norm=float(update_norm) if np.isfinite(update_norm) else 0.0,
            converged=converged,
            objective_trace=tuple(trace),
        )
        return decomp, report

    for iteration in range(cfg.max_iters):
        modes_prev = modes.copy()

        # demodulation-based frequency increment per mode
        increments = np.zeros((k, n))
        for i in range(k):
            da = np.gradient(a[i], dt)
            db = np.gradient(b[i], dt)
            denom = a[i] ** 2 + b[i] ** 2
            floor = 1e-10 * max(float(denom.max()), 1e-30)
            raw = (b[i] * da - a[i] * db) / (2.0 * np.pi * np.maximum(denom, floor))
            increments[i] = _moving_average(raw, ma_width)

        if_tracks[:] = np.clip(if_tracks + cfg.mu * increments, 0.0, nyquist)
        for i in range(k):
            refresh_phase(i)
        solve_all_envelopes()
        cost = penalized_cost()

        diff = modes - modes_prev
        update_norm = float(
            sum(
                np.sum(diff[i] ** 2) / (np.sum(modes_prev[i] ** 2) + 1e-30)
                for i in range(k)
            )
        )
        trace.append(cost)
        iterations = iteration + 1

        if not np.isfinite(cost):
            raise NumericalFailure("VNCMD iteration produced non-finite cost")

        if update_norm > prev_update_norm:
            growth_run += 1
        else:
            growth_run = 0
        prev_update_norm = update_norm

        if growth_run >= 10:
            decomp, report = build_result()
            raise Diverged(
                "VNCMD update norm grew for 10 consecutive iterations",
                decomposition=decomp,
                report=report,
            )

        if update_norm < cfg.tol:
            converged = True
            break

    return build_result()
