"""Core data types and elementary signal arithmetic.

Every algorithm in the package operates on :class:`Signal` (a uniformly
sampled real series plus its sample rate) or :class:`MultichannelSignal`
and produces a :class:`Decomposition` (ordered modes plus residual) or an
:class:`AlignedDecomposition` (modes aligned by index across channels).
Values are immutable after construction and all operations are pure
functions, so everything here is safe to use concurrently.

Samples are kept in float64 throughout: reconstruction-quality figures
are logs of norm ratios and shed precision fast in float32.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
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


def _is_finite_number(value) -> bool:
    """A real number, not a bool, within float64's finite range (an int past it is not)."""
    if isinstance(value, np.generic):
        value = value.item()  # compared as a Python number, a huge int compares exactly
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _check_fields(cfg, **minimums) -> None:
    """The config contract: each field of the dataclass ``cfg`` holds its declared type, a string
    under ``from __future__ import annotations``: an ``int`` an int but not a bool, a ``float`` a
    finite real number (an int stays an int), a ``tuple[float, ...]`` a tuple of those, and ``| None``
    adds None.  Each field in ``minimums`` is at least its bound.  A breach raises naming the field."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        kind = f.type if value is None else f.type.removesuffix(" | None")
        if kind == "int" and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
            raise ContractViolation(f"{f.name} must be an integer, not {value}")
        if kind == "float" and not _is_finite_number(value):
            raise ContractViolation(f"{f.name} must be a finite number, not {value}")
        if kind == "tuple[float, ...]" and not (isinstance(value, tuple) and all(map(_is_finite_number, value))):
            raise ContractViolation(f"{f.name} must be a tuple of finite numbers, not {value}")
        if f.name in minimums and value is not None and value < minimums[f.name]:
            raise ContractViolation(f"{f.name} must be >= {minimums[f.name]}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


def _set_samples(obj, name: str, samples: np.ndarray, kind: str, owned: bool = False) -> None:
    """Check that ``samples`` are finite and the rate of the signal ``obj`` a positive
    finite number, then freeze them into its field ``name`` and its ``sample_rate_hz``
    into a float; ``kind`` names the samples in the error.  ``owned`` samples are a
    fresh float64 array that no caller holds and that is already checked finite
    (:func:`_scaled_signal`): they are frozen in place, with no second scan or copy."""
    if not (owned or np.isfinite(samples).all()):
        raise ContractViolation(f"{kind} samples must be finite")
    rate = float(obj.sample_rate_hz)
    if not np.isfinite(rate) or rate <= 0:
        raise ContractViolation("sample_rate_hz must be a positive finite number")
    if owned:
        samples.flags.writeable = False
    else:
        samples = _freeze(samples)
    object.__setattr__(obj, name, samples)
    object.__setattr__(obj, "sample_rate_hz", rate)


def rates_equal(a: float, b: float) -> bool:
    return abs(a - b) <= RATE_RTOL * max(abs(a), abs(b))


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled real time series.

    Invariants: at least two samples, all finite, positive sample rate.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self, owned: bool = False):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 2:
            raise ContractViolation("signal needs a 1-D sample array of length >= 2")
        _set_samples(self, "samples", samples, "signal", owned)

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
        _set_samples(self, "channels", chans, "channel")

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

    @classmethod
    def of(cls, modes, residual, fs: float, centers=None, tracks=None, exp: int = 0) -> Decomposition:
        """The decomposition at rate ``fs`` of the mode rows ``modes`` and ``residual``, each times
        ``2**exp`` (:func:`_scaled_back`), with ``centers`` and ``tracks`` as its optional fields: a
        method's unit-peak arrays at its input's scale."""
        modes = tuple(_scaled_signal(m, exp, fs) for m in modes)
        return cls(modes, _scaled_signal(residual, exp, fs), centers, tracks)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def reconstruction_error(self, original: Signal) -> float:
        """l2 norm of (original - sum of modes - residual); see :func:`_difference_norm`."""
        if len(original) != len(self.residual) or not rates_equal(
            original.sample_rate_hz, self.residual.sample_rate_hz
        ):
            raise ContractViolation("original does not match decomposition geometry")
        return _difference_norm([original.samples, self.residual.samples, *(m.samples for m in self.modes)])


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
        if len(counts) > 1 or len(self.residuals) != len(self.channel_modes):
            raise ContractViolation("every channel needs the same mode count and one residual")
        if not self.residuals or len({len(r) for r in self.residuals}) > 1 or not all(
            rates_equal(r.sample_rate_hz, self.sample_rate_hz) for r in self.residuals
        ):
            raise ContractViolation("need at least one channel, all of one length and at the decomposition's rate")
        if self.center_freqs_hz is not None:
            object.__setattr__(self, "center_freqs_hz", tuple(float(f) for f in self.center_freqs_hz))
        for c in range(self.n_channels):
            self.channel(c)  # the modes share their residual's length and rate, one center per mode

    @classmethod
    def of(cls, modes, residuals, fs: float, centers=None, exp: int = 0) -> AlignedDecomposition:
        """The decomposition at rate ``fs`` whose mode k of channel c has the
        samples ``modes[k][c]`` and whose residual of channel c has
        ``residuals[c]``, each times ``2**exp`` as in :meth:`Decomposition.of`."""
        channel_modes = tuple(tuple(_scaled_signal(m[c], exp, fs) for m in modes) for c in range(len(residuals)))
        return cls(channel_modes, tuple(_scaled_signal(r, exp, fs) for r in residuals), fs, centers)

    @property
    def n_channels(self) -> int:
        return len(self.channel_modes)

    @property
    def n_modes(self) -> int:
        return len(self.channel_modes[0])

    def channel(self, c: int) -> Decomposition:
        """The modes and residual of channel ``c`` as a one-channel decomposition."""
        return Decomposition(self.channel_modes[c], self.residuals[c], self.center_freqs_hz)

    def reconstruction_error(self, original: MultichannelSignal) -> float:
        """l2 norm of (original - sum of modes - residual) over all channels;
        see :func:`_difference_norm`."""
        if original.channels.shape != (self.n_channels, len(self.residuals[0])) or not rates_equal(
            original.sample_rate_hz, self.sample_rate_hz
        ):
            raise ContractViolation("original does not match decomposition geometry")
        modes = ([m.samples for m in ms] for ms in zip(*self.channel_modes))  # [mode][channel]
        return _difference_norm([original.channels, [r.samples for r in self.residuals], *modes])


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


def _unit_scaled(samples: np.ndarray) -> tuple[np.ndarray, int]:
    """``samples`` times the power of two that brings their peak magnitude
    into [0.5, 1), and the exponent that scales them back (0 for all zeros).
    Every method decomposes its input at this unit peak, so no kernel sees
    the input's scale, and only exponents change: an input at an ordinary
    scale keeps its bits (the scaled norms of Higham 2002, §27, applied once)."""
    exp = int(np.frexp(np.max(np.abs(samples), initial=0.0))[1])
    return np.ldexp(samples, -exp), exp


def _scaled_back(values, exp: int) -> np.ndarray:
    """``values`` times ``2**exp``, a fresh float64 array: a method's output at
    its input's scale.  Raises :class:`NumericalFailure` where that is past
    float64's range."""
    with np.errstate(over="ignore"):  # reported just below
        out = np.ldexp(np.asarray(values, dtype=np.float64), exp)
    if not np.isfinite(out).all():
        raise NumericalFailure("an output is not finite at the input's scale")
    return out


def _scaled_signal(row, exp: int, fs: float) -> Signal:
    """The signal at rate ``fs`` of ``row`` times ``2**exp`` (:func:`_scaled_back`).
    That product is fresh and scanned, so it becomes the signal's samples as it
    is, frozen, where ``Signal`` would scan and copy it again."""
    samples = _scaled_back(row, exp)
    signal = object.__new__(Signal)
    object.__setattr__(signal, "samples", samples)
    object.__setattr__(signal, "sample_rate_hz", fs)
    signal.__post_init__(owned=True)  # the shape and rate checks
    return signal


def _unit_norms(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's 2-norm at the row's own power-of-two unit peak, and the
    exponent that scales it back (0 for a zero row); overwrites ``rows``.
    The package's one l2 norm: no square overflows, no norm underflows."""
    exp = np.frexp(np.maximum(rows.max(axis=-1), -rows.min(axis=-1)))[1]  # with no |x| copy
    np.ldexp(rows, -exp[:, None], out=rows)
    np.multiply(rows, rows, out=rows)
    return np.sqrt(np.sum(rows, axis=-1)), exp


def _difference_norm(parts: list) -> float:
    """l2 norm, over every channel, of ``parts[0]`` minus every later part,
    each part one series or one row per channel.  The differences are
    formed at the unit peak of all the parts, so none overflows; each
    channel's norm is taken at its own unit peak (:func:`_unit_norms`), and
    the norm of those norms at theirs.  A norm past float64's range is inf."""
    scaled, exp = _unit_scaled(np.array(parts, dtype=np.float64))
    norm, own = _unit_norms(np.atleast_2d(reduce(np.subtract, scaled)))
    top = own.max()  # one norm is its own norm: sqrt(x * x) == x for a double x at unit peak
    norm, own = _unit_norms(np.ldexp(norm, own - top)[None])
    with np.errstate(over="ignore"):
        return float(np.ldexp(norm[0], own[0] + top + exp))


def l2_norm(s: Signal) -> float:
    """Square root of the sum of squared samples, summed at unit peak so
    that no square overflows (a norm past float64's range is inf)."""
    return _difference_norm([s.samples])


def add(a: Signal, b: Signal) -> Signal:
    _check_compatible(a, b)
    return Signal(a.samples + b.samples, a.sample_rate_hz)


def subtract(a: Signal, b: Signal) -> Signal:
    _check_compatible(a, b)
    return Signal(a.samples - b.samples, a.sample_rate_hz)


def scale(a: Signal, g: float) -> Signal:
    return Signal(a.samples * float(g), a.sample_rate_hz)
