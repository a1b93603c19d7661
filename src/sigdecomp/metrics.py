"""Reconstruction-quality scoring and mode-to-reference assignment.

The central figure of merit is the quality-of-reconstruction factor
(QRF): ``20*log10(||ref|| / ||ref - est||)`` in dB, higher meaning a
closer match.  A perfect match saturates at +300 dB so that reports stay
serializable and comparisons total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, Signal, _check_compatible, _unit_norms, _unit_scaled

#: sentinel for an exact reconstruction (and overall cap)
QRF_SATURATION_DB = 300.0


def _qrf_table(est: list[Signal], refs: list[Signal]) -> np.ndarray:
    """QRF in dB of every mode in ``est`` against every reference, as an
    ``(E, R)`` table.  Each reference's norm is taken at its own unit peak,
    each difference at the unit peak of its pair (one power of two, as in
    ``core._unit_scaled``) and its norm at the difference's own, so no
    difference overflows, no norm underflows, no series is lost to another's
    scale and exact ``2**k``-scaled inputs give the same bits.  A ratio below
    float64's normal range is taken in the log domain.

    Saturates at +300 dB; raises if the series differ in length or rate, or
    if a reference is zero (the ratio is undefined).
    """
    for s in (*est, *refs):
        _check_compatible(refs[0], s)
    r = np.array([s.samples for s in refs])
    err = r.copy()  # one (R, n) buffer, for the references' norms and then every mode's error
    ref_norm, ref_exp = _unit_norms(err)  # ref_exp: each reference's unit-peak exponent
    if np.any(ref_norm == 0.0):
        raise ContractViolation("QRF is undefined for a zero reference")
    row = np.empty(r.shape[1])
    err_norm = np.empty((len(est), len(refs)))
    err_exp = np.empty((len(est), len(refs)), dtype=int)
    for i, mode in enumerate(est):
        pair_exp = np.maximum(ref_exp, np.frexp(max(mode.samples.max(), -mode.samples.min()))[1])  # with no |x| copy
        np.ldexp(r, -pair_exp[:, None], out=err)
        for j, e in enumerate(-pair_exp):
            err[j] -= np.ldexp(mode.samples, e, out=row)
        err_norm[i], err_exp[i] = _unit_norms(err)
        err_exp[i] += pair_exp
    # an exact match or a ratio past float64's range reads +inf and saturates
    with np.errstate(divide="ignore", over="ignore"):
        quotient, shift = ref_norm / err_norm, ref_exp - err_exp
        ratio = np.ldexp(quotient, shift)
        db = 20.0 * np.log10(ratio)
    low = ratio < np.finfo(np.float64).tiny  # below the normal range, where the ratio lost bits or is zero
    db[low] = 20.0 * (np.log10(quotient[low]) + shift[low] * np.log10(2.0))
    return np.minimum(db, QRF_SATURATION_DB)


def qrf(est: Signal, ref: Signal) -> float:
    """Quality-of-reconstruction factor of ``est`` against ``ref`` in dB."""
    return float(_qrf_table([est], [ref])[0, 0])


@dataclass(frozen=True)
class QrfReport:
    """Injective extracted-to-reference assignment with per-pair QRF.

    ``assignment`` maps extracted-mode index to reference index for every
    matched pair; surplus indices on either side are listed unmatched.
    """

    assignment: tuple[tuple[int, int], ...]
    per_mode_qrf_db: tuple[float, ...]
    total_qrf_db: float
    unmatched_est: tuple[int, ...] = ()
    unmatched_ref: tuple[int, ...] = ()

    def __post_init__(self):
        ests = [e for e, _ in self.assignment]
        refs = [r for _, r in self.assignment]
        if len(set(ests)) != len(ests) or len(set(refs)) != len(refs):
            raise ContractViolation("assignment must be injective")
        if len(self.per_mode_qrf_db) != len(self.assignment):
            raise ContractViolation("one QRF per matched pair required")

    def qrf_for_ref(self, ref_index: int) -> float | None:
        """QRF of the extracted mode assigned to a given reference."""
        for (_, r), value in zip(self.assignment, self.per_mode_qrf_db):
            if r == ref_index:
                return value
        return None


def _max_weight_matching(table: np.ndarray) -> list[tuple[int, int]]:
    """Exact maximum-total assignment of the smaller side of ``table``.

    The Hungarian method as shortest augmenting paths with dual
    potentials, O(n^2 m); same optimum as
    ``scipy.optimize.linear_sum_assignment(table, maximize=True)``, whose
    import would cost the package about 20 MB and 0.2 s.
    """
    flip = table.shape[0] > table.shape[1]
    cost = -(table.T if flip else table)  # rows <= columns, minimized
    n, m = cost.shape
    u = np.zeros(n)  # row potentials
    v = np.zeros(m + 1)  # column potentials; column m is the path's virtual start
    row_of = np.full(m + 1, -1)  # row matched to each column
    for i in range(n):
        row_of[m] = i
        j0 = m
        dist = np.full(m + 1, np.inf)
        prev = np.full(m + 1, m)
        done = np.zeros(m + 1, dtype=bool)
        while row_of[j0] != -1:
            done[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0] - u[i0] - v[:m]
            closer = ~done[:m] & (reduced < dist[:m])
            dist[:m][closer] = reduced[closer]
            prev[:m][closer] = j0
            j1 = int(np.argmin(np.where(done[:m], np.inf, dist[:m])))
            delta = dist[j1]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[:m][~done[:m]] -= delta
            j0 = j1
        while j0 != m:  # flip the matching along the augmenting path
            row_of[j0] = row_of[prev[j0]]
            j0 = prev[j0]
    pairs = [(int(row_of[j]), j) for j in range(m) if row_of[j] != -1]
    return [(j, i) for i, j in pairs] if flip else pairs


def match_components(est: list[Signal], refs: list[Signal]) -> QrfReport:
    """Pair extracted modes with references, maximizing the summed QRF.

    The assignment is exact at any size (:func:`_max_weight_matching`);
    the smaller side is matched completely.  Note the target is the summed
    QRF, not minimal summed error; the two can disagree.
    """
    if not est or not refs:
        raise ContractViolation("both mode lists must be nonempty")
    n_e, n_r = len(est), len(refs)
    table = _qrf_table(est, refs)
    pairs = _max_weight_matching(table)
    pairs.sort(key=lambda p: p[1])
    per_mode = tuple(float(table[i, j]) for i, j in pairs)
    matched_e = {i for i, _ in pairs}
    matched_r = {j for _, j in pairs}
    return QrfReport(
        assignment=tuple(pairs),
        per_mode_qrf_db=per_mode,
        total_qrf_db=float(sum(per_mode)),
        unmatched_est=tuple(i for i in range(n_e) if i not in matched_e),
        unmatched_ref=tuple(j for j in range(n_r) if j not in matched_r),
    )


# ---------------------------------------------------------------------------
# multivariate mode alignment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlignmentScore:
    """Measured per-mode/per-channel dominant frequencies vs expectation.

    ``dominant_freqs_hz[k][c]`` is the FFT-peak frequency of mode ``k``
    in channel ``c``.  ``passed`` requires an injective matching of
    expected rows to decomposition modes where present frequencies agree
    within ``tolerance_hz`` and absent cells carry under 10% of the
    mode's strongest channel energy.
    """

    dominant_freqs_hz: tuple[tuple[float, ...], ...]
    passed: bool
    tolerance_hz: float
    row_to_mode: tuple[int, ...]  # -1 for unmatched expected rows


def dominant_frequency_hz(samples: np.ndarray, fs: float) -> float | np.ndarray:
    """Frequency of the largest-magnitude FFT bin (DC included) of a
    series, or of each series along the last axis of a stack."""
    mag = np.abs(np.fft.rfft(samples))
    peak = np.argmax(mag, axis=-1) * fs / samples.shape[-1]
    return float(peak) if samples.ndim == 1 else peak


def _band_energy(power: np.ndarray, freqs: np.ndarray, f_hz: float, tol_hz: float) -> np.ndarray:
    """Summed ``power`` of the bins within ``tol_hz`` of ``f_hz``, along the
    last axis; the band is one slice because ``freqs`` ascends."""
    lo = np.searchsorted(freqs, f_hz - tol_hz, "left")
    hi = np.searchsorted(freqs, f_hz + tol_hz, "right")
    return power[..., lo:hi].sum(axis=-1)


#: minimum share of a channel-mode's (interior) energy that must sit at the
#: expected frequency: a mode whose band share falls below this is mixing
#: other content in and no longer counts as an aligned narrow-band mode
ALIGNMENT_PURITY_MIN = 0.905


def alignment_score(
    decomposition,
    expected: tuple[tuple[float | None, ...], ...],
    tol_hz: float = 1.0,
) -> AlignmentScore:
    """Score a multichannel decomposition against an expected mode table.

    ``decomposition`` is an :class:`~sigdecomp.core.AlignedDecomposition`;
    ``expected`` has one row per wanted mode with a per-channel frequency
    or ``None`` where that channel should carry (almost) nothing.

    A row is served by mode index ``k`` when, in every channel expecting a
    frequency, mode ``k`` peaks within ``tol_hz`` of it, holds the largest
    share of that frequency's energy among the channel's modes (content
    split across different indices in different channels counts as
    misalignment), and is narrow-band enough that the expected frequency
    carries at least ``ALIGNMENT_PURITY_MIN`` of the mode's interior
    energy (a noise-swollen broadband mode is not an aligned component).
    Every absent cell must stay under 10% of the mode's strongest channel
    energy.  The table passes when all rows are served by distinct mode
    indices, each row taking the first free mode that serves it.
    """
    n_channels = decomposition.n_channels
    n_modes = decomposition.n_modes
    for row in expected:
        if len(row) != n_channels:
            raise ContractViolation("expected table width must equal channel count")

    fs = decomposition.sample_rate_hz
    n = len(decomposition.residuals[0])
    trim = n // 10  # the interior drops a tenth at each end
    stack = np.reshape(
        [[m.samples for m in modes] for modes in decomposition.channel_modes], (n_channels, n_modes, n)
    )
    # at unit peak no square over- or underflows; each test is a ratio or argmax
    stack = _unit_scaled(stack)[0]
    magnitude = np.abs(np.fft.rfft(stack))
    power = magnitude**2
    interior = np.abs(np.fft.rfft(stack[..., trim : n - trim])) ** 2
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    interior_freqs = np.fft.rfftfreq(n - 2 * trim, 1.0 / fs)
    peaks = np.argmax(magnitude, axis=-1) * fs / n  # (channels, modes), as dominant_frequency_hz
    energies = np.sum(stack**2, axis=-1)
    peak_energy = energies.max(axis=0)
    total = interior.sum(axis=-1)
    total = np.where(total > 0.0, total, np.inf)  # a zero interior fails purity as 0 / inf, with no warning

    used = np.zeros(n_modes, dtype=bool)
    row_to_mode = []
    for row in expected:
        ok = (peak_energy > 0.0) & ~used
        for c, want in enumerate(row):
            if want is None:
                ok &= energies[c] < 0.10 * peak_energy
                continue
            ok &= np.abs(peaks[c] - want) <= tol_hz
            if n_modes:  # np.argmax of no modes raises
                ok &= np.arange(n_modes) == np.argmax(_band_energy(power[c], freqs, want, tol_hz))
            share = _band_energy(interior[c], interior_freqs, want, tol_hz)
            ok &= share / total[c] >= ALIGNMENT_PURITY_MIN
        free = np.flatnonzero(ok)
        row_to_mode.append(int(free[0]) if free.size else -1)
        used[free[:1]] = True  # the first free mode that serves the row, if any

    return AlignmentScore(
        dominant_freqs_hz=tuple(tuple(float(f) for f in mode) for mode in peaks.T),
        passed=all(k >= 0 for k in row_to_mode),
        tolerance_hz=tol_hz,
        row_to_mode=tuple(row_to_mode),
    )
