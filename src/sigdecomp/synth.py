"""Deterministic test-signal generators and calibrated noise injection.

Two synthetic benchmark signals are provided: a 10 s narrow-band
three-component mixture sampled at 256 Hz (with an optional time-frequency
gap cut into its highest component), and a 1 s wide-band pair at 512 Hz
consisting of an exponentially growing chirp plus a sinusoid amplitude-
modulated by Gaussian-smoothed Brownian motion.  A bivariate sinusoid
mixture supports the mode-alignment studies.

All stochastic pieces (Brownian envelope, white noise) are driven by the
seeded Philox/Box-Muller helpers in :mod:`sigdecomp._rng`, so outputs are
bit-reproducible for a given seed on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rng
from .core import ContractViolation, MultichannelSignal, Signal, _check_fields, _is_finite_number

S1_SAMPLE_RATE_HZ = 256.0
S1_DURATION_S = 10.0

#: where the high component of the narrow-band signal is silenced by default
DEFAULT_GAP = (4.0, 5.0)


@dataclass(frozen=True)
class GapSpec:
    """Half-open time interval [start_s, end_s) zeroed out of a component."""

    start_s: float
    end_s: float

    def __post_init__(self):
        if not 0.0 <= self.start_s < self.end_s:
            raise ContractViolation("gap must satisfy 0 <= start < end")

    def validate_within(self, duration_s: float) -> None:
        if self.end_s > duration_s:
            raise ContractViolation(
                f"gap [{self.start_s}, {self.end_s}) exceeds signal duration {duration_s}"
            )


def _check_sizes(duration_s: float, rate_name: str, rate: float) -> None:
    """A duration and a sample rate are positive and finite, and so is their product."""
    for name, value in (("duration_s", duration_s), (rate_name, rate)):
        if not (_is_finite_number(value) and value > 0):
            raise ContractViolation(f"{name} must be a positive finite number, not {value}")
    if not np.isfinite(float(duration_s) * float(rate)):
        raise ContractViolation(f"duration_s * {rate_name} must be a finite sample count, not {duration_s} * {rate}")


@dataclass(frozen=True)
class S2Config:
    """Wide-band test-signal parameters.

    ``drift`` and ``volatility`` shape the Brownian amplitude envelope;
    ``smoothing_sigma_s`` is the width of the Gaussian filter applied to
    it and ``carrier_hz`` the frequency of the modulated tone.
    """

    duration_s: float = 1.0
    sample_rate_hz: float = 512.0
    drift: float = -0.1
    volatility: float = 0.1
    smoothing_sigma_s: float = 0.020
    carrier_hz: float = 180.0
    rng_seed: int = 0

    def __post_init__(self):
        _check_fields(self, rng_seed=0)
        _check_sizes(self.duration_s, "sample_rate_hz", self.sample_rate_hz)
        n = self.duration_s * self.sample_rate_hz
        if abs(n - round(n)) > 1e-9:
            raise ContractViolation("duration * sample rate must be an integer sample count")
        if self.smoothing_sigma_s <= 0 or self.carrier_hz <= 0:
            raise ContractViolation("smoothing width and carrier frequency must be positive")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))


def gen_s1(gap: GapSpec | None = GapSpec(*DEFAULT_GAP)) -> tuple[Signal, list[Signal]]:
    """Narrow-band three-component mixture; returns (composite, references).

    The third component is zeroed on the gap interval (pass ``gap=None``
    to keep it continuous); the composite is the samplewise sum of the
    three returned references.
    """
    if gap is not None:
        gap.validate_within(S1_DURATION_S)
    fs = S1_SAMPLE_RATE_HZ
    t = np.arange(int(S1_DURATION_S * fs)) / fs

    c1 = (1.0 + 0.2 * np.cos(t)) * np.cos(30.0 * np.pi * (2.0 * t + 0.3 * np.cos(t)))
    c2 = (
        (1.0 + 0.3 * np.cos(2.0 * t))
        * np.exp(-t / 15.0)
        * np.cos(30.0 * np.pi * (2.4 * t + 0.5 * t**1.2 + 0.3 * np.sin(t)))
    )
    c3 = np.cos(30.0 * np.pi * (5.3 * t + 0.2 * t**1.3))
    if gap is not None:
        c3 = np.where((t >= gap.start_s) & (t < gap.end_s), 0.0, c3)

    refs = [Signal(c1, fs), Signal(c2, fs), Signal(c3, fs)]
    composite = Signal(c1 + c2 + c3, fs)
    return composite, refs


def s1_if_laws(t: np.ndarray) -> list[np.ndarray]:
    """Closed-form instantaneous-frequency tracks (Hz) of the three
    narrow-band components, from the analytic phase derivatives."""
    return [
        15.0 * (2.0 - 0.3 * np.sin(t)),
        15.0 * (2.4 + 0.6 * t**0.2 + 0.3 * np.cos(t)),
        15.0 * (5.3 + 0.26 * t**0.3),
    ]


def _gaussian_smooth(x: np.ndarray, sigma_samples: float) -> np.ndarray:
    # reflect-padded direct convolution, kernel truncated at 4 sigma
    half = max(int(np.ceil(4.0 * sigma_samples)), 1)
    k = np.arange(-half, half + 1)
    kernel = np.exp(-0.5 * (k / sigma_samples) ** 2)
    kernel /= kernel.sum()
    padded = np.concatenate([x[half:0:-1], x, x[-2 : -half - 2 : -1]])
    return np.convolve(padded, kernel, mode="valid")


def gen_s2(cfg: S2Config = S2Config()) -> tuple[Signal, list[Signal]]:
    """Wide-band pair: growing chirp plus Brownian-AM tone.

    The tone's envelope is 1 + Gaussian-smoothed Brownian motion
    (Euler increments with the configured drift and volatility), clipped
    below at 0.05 so the amplitude stays positive.  Deterministic for a
    given ``cfg.rng_seed``.
    """
    fs = cfg.sample_rate_hz
    n = cfg.n_samples
    t = np.arange(n) / fs

    chirp = np.exp(0.8 * t) * np.cos(
        1.1 * np.pi * (0.8 + 50.0 * t - 100.0 * t**2 + 416.0 * t**3 - 200.0 * t**4)
    )

    dt = 1.0 / fs
    steps = cfg.drift * dt + cfg.volatility * np.sqrt(dt) * _rng.normals(n - 1, cfg.rng_seed)
    brownian = np.concatenate([[0.0], np.cumsum(steps)])
    envelope = 1.0 + _gaussian_smooth(brownian, cfg.smoothing_sigma_s * fs)
    envelope = np.maximum(envelope, 0.05)
    am_tone = envelope * np.cos(2.0 * np.pi * cfg.carrier_hz * t)

    refs = [Signal(chirp, fs), Signal(am_tone, fs)]
    return Signal(chirp + am_tone, fs), refs


def s21_if_law(t: np.ndarray) -> np.ndarray:
    """Closed-form instantaneous frequency (Hz) of the wide-band chirp."""
    return 0.55 * (50.0 - 200.0 * t + 1248.0 * t**2 - 800.0 * t**3)


#: per-mode, per-channel frequency content of the bivariate test signal;
#: ``None`` marks a channel where the mode must be absent
MV_EXPECTED_TABLE: tuple[tuple[float | None, float | None], ...] = (
    (2.0, 2.0),
    (None, 20.0),
    (50.0, 50.0),
)

MV_DEFAULT_DURATION_S = 2.0
MV_DEFAULT_SAMPLE_RATE_HZ = 256.0


def mv_component_bank(duration_s: float, fs: float) -> dict[float, np.ndarray]:
    """Unit sinusoids used to assemble the bivariate test signal."""
    t = np.arange(int(round(duration_s * fs))) / fs
    return {f: np.sin(2.0 * np.pi * f * t) for f in (2.0, 20.0, 50.0)}


def gen_mv_test(
    duration_s: float = MV_DEFAULT_DURATION_S,
    fs: float = MV_DEFAULT_SAMPLE_RATE_HZ,
) -> tuple[MultichannelSignal, tuple[tuple[float | None, float | None], ...]]:
    """Bivariate alignment test signal and its expected mode table.

    Each channel sums the unit sinusoids that ``MV_EXPECTED_TABLE`` puts
    in it: 2 Hz + 50 Hz in channel 1, 2 Hz + 20 Hz + 50 Hz in channel 2.
    """
    _check_sizes(duration_s, "fs", fs)
    if fs <= 100.0:
        raise ContractViolation("sample rate must exceed 100 Hz for the 50 Hz component")
    bank = mv_component_bank(duration_s, fs)
    channels = [
        sum(bank[row[c]] for row in MV_EXPECTED_TABLE if row[c] is not None) for c in range(2)
    ]
    return MultichannelSignal(np.stack(channels), fs), MV_EXPECTED_TABLE


def add_wgn(x: Signal, snr_db: float, seed: int) -> Signal:
    """Add white Gaussian noise scaled so the realized SNR is exact.

    The drawn noise vector is rescaled to make
    ``10*log10(sum(x^2)/sum(n^2))`` equal ``snr_db`` exactly, so the
    quoted SNR is a property of the realization, not just its
    expectation.  Deterministic for a given seed.
    """
    if not np.isfinite(snr_db):
        raise ContractViolation("snr_db must be finite")
    signal_power = float(np.sum(x.samples**2))
    if signal_power == 0.0:
        raise ContractViolation("SNR is undefined for an all-zero signal")
    noise = _rng.normals(len(x), seed)
    target_power = signal_power / 10.0 ** (snr_db / 10.0)
    noise *= np.sqrt(target_power / np.sum(noise**2))
    return Signal(x.samples + noise, x.sample_rate_hz)
