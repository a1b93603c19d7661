"""Core data types and elementary signal arithmetic.

Every algorithm in the package operates on :class:`Signal` (a uniformly
sampled real series plus its sample rate) and produces a
:class:`Decomposition` (ordered modes plus residual).  Values are
immutable after construction and all operations are pure functions, so
everything here is safe to use concurrently.

Samples are kept in float64 throughout: reconstruction-quality figures
are logs of norm ratios and shed precision fast in float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

#: relative tolerance for sample-rate equality (rates often come from division)
RATE_RTOL = 1e-9


class ContractViolation(ValueError):
    """An argument broke a documented precondition."""


class NotEnoughExtrema(RuntimeError):
    """Envelope interpolation needs more extrema; the residual is reached."""


class NumericalFailure(RuntimeError):
    """An iteration produced non-finite values."""


class Diverged(RuntimeError):
    """An iterative solver moved away from any fixed point.

    Carries the partial result (``decomposition`` and ``report``
    attributes) so callers can inspect how far the run got.
    """

    def __init__(self, message: str, decomposition=None, report=None):
        super().__init__(message)
        self.decomposition = decomposition
        self.report = report


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


def rates_equal(a: float, b: float) -> bool:
    return abs(a - b) <= RATE_RTOL * max(abs(a), abs(b))


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled real time series.

    Invariants: at least two samples, all finite, positive sample rate.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 2:
            raise ContractViolation("signal needs a 1-D sample array of length >= 2")
        if not np.all(np.isfinite(samples)):
            raise ContractViolation("signal samples must be finite")
        rate = float(self.sample_rate_hz)
        if not np.isfinite(rate) or rate <= 0:
            raise ContractViolation("sample_rate_hz must be a positive finite number")
        object.__setattr__(self, "samples", _freeze(samples))
        object.__setattr__(self, "sample_rate_hz", rate)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def times(self) -> np.ndarray:
        """Sample times in seconds, starting at zero."""
        return np.arange(self.samples.size) / self.sample_rate_hz


@dataclass(frozen=True)
class MultichannelSignal:
    """Equal-length channels sharing one sample rate."""

    channels: np.ndarray  # (n_channels, n_samples)
    sample_rate_hz: float

    def __post_init__(self):
        chans = np.atleast_2d(np.asarray(self.channels, dtype=np.float64))
        if chans.ndim != 2 or chans.shape[0] < 1 or chans.shape[1] < 2:
            raise ContractViolation("need >= 1 channel of >= 2 samples each")
        if not np.all(np.isfinite(chans)):
            raise ContractViolation("channel samples must be finite")
        rate = float(self.sample_rate_hz)
        if not np.isfinite(rate) or rate <= 0:
            raise ContractViolation("sample_rate_hz must be a positive finite number")
        object.__setattr__(self, "channels", _freeze(chans))
        object.__setattr__(self, "sample_rate_hz", rate)

    @property
    def n_channels(self) -> int:
        return self.channels.shape[0]

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]

    def channel(self, c: int) -> Signal:
        return Signal(self.channels[c], self.sample_rate_hz)

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) / self.sample_rate_hz


@dataclass(frozen=True)
class Decomposition:
    """Ordered extracted modes plus the non-oscillatory residual.

    Optionally carries one center frequency per mode (spectral methods)
    and/or a per-mode instantaneous-frequency track.
    """

    modes: tuple[Signal, ...]
    residual: Signal
    center_freqs_hz: tuple[float, ...] | None = None
    if_tracks_hz: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        modes = tuple(self.modes)
        for m in modes:
            if len(m) != len(self.residual) or not rates_equal(
                m.sample_rate_hz, self.residual.sample_rate_hz
            ):
                raise ContractViolation("modes and residual must share length and rate")
        object.__setattr__(self, "modes", modes)
        if self.center_freqs_hz is not None:
            cf = tuple(float(f) for f in self.center_freqs_hz)
            if len(cf) != len(modes):
                raise ContractViolation("one center frequency per mode required")
            object.__setattr__(self, "center_freqs_hz", cf)
        if self.if_tracks_hz is not None:
            tracks = tuple(_freeze(t) for t in self.if_tracks_hz)
            if len(tracks) != len(modes):
                raise ContractViolation("one IF track per mode required")
            if any(t.shape != self.residual.samples.shape for t in tracks):
                raise ContractViolation("an IF track needs one value per sample")
            object.__setattr__(self, "if_tracks_hz", tracks)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def reconstruction_error(self, original: Signal) -> float:
        """l2 norm of (original - sum of modes - residual), summed at unit
        peak so that no partial difference overflows."""
        if len(original) != len(self.residual) or not rates_equal(
            original.sample_rate_hz, self.residual.sample_rate_hz
        ):
            raise ContractViolation("original does not match decomposition geometry")
        parts, exp = _unit_scaled(np.stack([original.samples, self.residual.samples, *(m.samples for m in self.modes)]))
        with np.errstate(over="ignore"):  # an error past float64's range is inf
            return float(np.ldexp(_scaled_norm(reduce(np.subtract, parts)), exp))


@dataclass(frozen=True)
class ModeModel:
    """Instantaneous amplitude/phase description of one narrow-band mode."""

    ia_track: np.ndarray
    phase_track: np.ndarray
    if_track_hz: np.ndarray | None = None

    def __post_init__(self):
        ia = np.asarray(self.ia_track, dtype=np.float64)
        ph = np.asarray(self.phase_track, dtype=np.float64)
        if ia.shape != ph.shape:
            raise ContractViolation("amplitude and phase tracks must share length")
        if np.any(ia < 0):
            raise ContractViolation("instantaneous amplitude must be nonnegative")
        object.__setattr__(self, "ia_track", _freeze(ia))
        object.__setattr__(self, "phase_track", _freeze(ph))
        if self.if_track_hz is not None:
            object.__setattr__(self, "if_track_hz", _freeze(np.asarray(self.if_track_hz)))


# ---------------------------------------------------------------------------
# elementary arithmetic
# ---------------------------------------------------------------------------

def _check_compatible(a: Signal, b: Signal) -> None:
    if len(a) != len(b):
        raise ContractViolation(f"length mismatch: {len(a)} vs {len(b)}")
    if not rates_equal(a.sample_rate_hz, b.sample_rate_hz):
        raise ContractViolation(
            f"sample-rate mismatch: {a.sample_rate_hz} vs {b.sample_rate_hz}"
        )


def _scaled_norm(values) -> float:
    """l2 norm of ``values``, summed over ``values / max|values|`` so that no square overflows."""
    scale = float(np.max(np.abs(values), initial=0.0))
    if not 0.0 < scale < np.inf:
        return scale  # all zero, or not finite
    return scale * float(np.sqrt(np.sum(np.square(np.asarray(values) / scale))))


def _unit_scaled(samples: np.ndarray) -> tuple[np.ndarray, int]:
    """``samples`` times the power of two that brings their peak magnitude
    into [0.5, 1), and the exponent that scales them back (0 for all zeros).
    Every method decomposes its input at this unit peak, so no kernel sees
    the input's scale, and only exponents change: an input at an ordinary
    scale keeps its bits (the scaled norms of Higham 2002, §27, applied once)."""
    exp = int(np.frexp(np.max(np.abs(samples), initial=0.0))[1])
    return np.ldexp(samples, -exp), exp


def _scaled_back(values, exp: int) -> np.ndarray:
    """``values`` times ``2**exp``: a method's output at its input's scale.
    Raises :class:`NumericalFailure` where that is past float64's range."""
    with np.errstate(over="ignore"):  # reported just below
        out = np.ldexp(values, exp)
    if not np.all(np.isfinite(out)):
        raise NumericalFailure("an output is not finite at the input's scale")
    return out


def l2_norm(s: Signal) -> float:
    """Square root of the sum of squared samples."""
    return float(np.sqrt(np.sum(s.samples * s.samples)))


def add(a: Signal, b: Signal) -> Signal:
    _check_compatible(a, b)
    return Signal(a.samples + b.samples, a.sample_rate_hz)


def subtract(a: Signal, b: Signal) -> Signal:
    _check_compatible(a, b)
    return Signal(a.samples - b.samples, a.sample_rate_hz)


def scale(a: Signal, g: float) -> Signal:
    return Signal(a.samples * float(g), a.sample_rate_hz)
