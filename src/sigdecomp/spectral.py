"""Analytic signals, instantaneous amplitude/frequency, and the
time-frequency energy grid rendered from a decomposition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, Decomposition, ModeModel, NumericalFailure, Signal


@dataclass(frozen=True)
class TFGrid:
    """Time x frequency energy-density matrix.

    ``energy`` is indexed (frequency, time); all entries are nonnegative
    and finite.  ``dropped_energy`` accounts for mass whose instantaneous
    frequency fell outside the grid during rendering.
    """

    times_s: np.ndarray
    freqs_hz: np.ndarray
    energy: np.ndarray
    dropped_energy: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=np.float64)
        f = np.asarray(self.freqs_hz, dtype=np.float64)
        e = np.asarray(self.energy, dtype=np.float64)
        if e.shape != (f.size, t.size):
            raise ContractViolation("energy must be shaped (n_freqs, n_times)")
        if not np.all(np.isfinite(e)) or np.any(e < 0):
            raise ContractViolation("energy entries must be finite and nonnegative")
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "freqs_hz", f)
        object.__setattr__(self, "energy", e)

    @property
    def total_energy(self) -> float:
        return float(self.energy.sum())


def analytic_signal(x: Signal) -> np.ndarray:
    """Analytic extension of ``x`` via the frequency-domain construction.

    Only bins ``0 … n // 2`` of the spectrum are kept, since the analytic
    signal has no negative frequencies: the positive bins are doubled and
    DC and, for even ``n``, Nyquist are left as they are, so the real part
    of the result equals the input.  The inverse FFT zero-fills the
    negative half.
    """
    if len(x) < 4:
        raise ContractViolation("analytic signal needs at least 4 samples")
    n = len(x)
    spectrum = np.fft.fft(x.samples)[: n // 2 + 1]
    spectrum[1 : (n + 1) // 2] *= 2.0
    return np.fft.ifft(spectrum, n)


def ia_if(x: Signal) -> ModeModel:
    """Instantaneous amplitude, unwrapped phase, and frequency of a mode.

    The caller is responsible for ``x`` being narrow-band; for broadband
    input the tracks are still computed but carry no physical meaning.
    Frequency is the centered finite difference of the unwrapped analytic
    phase (one-sided at the ends) divided by 2*pi; the first and last two
    samples are boundary-affected and should not be trusted.
    """
    z = analytic_signal(x)
    ia = np.abs(z)
    phase = np.unwrap(np.angle(z))
    if_hz = np.gradient(phase, 1.0 / x.sample_rate_hz) / (2.0 * np.pi)
    return ModeModel(ia_track=ia, phase_track=phase, if_track_hz=if_hz)


def hilbert_spectrum(d: Decomposition, n_freq_bins: int, fmax_hz: float) -> TFGrid:
    """Deposit each mode's squared amplitude at its instantaneous frequency.

    Nearest-bin deposit on a linear frequency axis covering [0, fmax_hz];
    contributions with IF outside that range are dropped and tallied in
    ``dropped_energy``.  Overflowing energy raises :class:`NumericalFailure`.
    """
    if n_freq_bins < 2:
        raise ContractViolation("need at least 2 frequency bins")
    if not (np.isfinite(fmax_hz) and fmax_hz > 0.0):
        raise ContractViolation("fmax_hz must be a positive finite number")
    nyquist = d.residual.sample_rate_hz / 2.0
    if fmax_hz > nyquist * (1.0 + 1e-12):
        raise ContractViolation("fmax_hz exceeds the Nyquist frequency")

    times = d.residual.times()
    freqs = np.linspace(0.0, fmax_hz, n_freq_bins)
    energy = np.zeros((n_freq_bins, times.size))
    dropped = 0.0
    for mode in d.modes:
        model = ia_if(mode)
        ia2 = model.ia_track**2
        f = model.if_track_hz
        inside = (f >= 0.0) & (f <= fmax_hz)
        dropped += float(ia2[~inside].sum())
        bins = np.rint(f[inside] / fmax_hz * (n_freq_bins - 1)).astype(np.int64)
        energy[bins, np.flatnonzero(inside)] += ia2[inside]  # one deposit per frame
    if not np.all(np.isfinite(energy)):
        raise NumericalFailure("time-frequency energy overflows")
    return TFGrid(times_s=times, freqs_hz=freqs, energy=energy, dropped_energy=dropped)
