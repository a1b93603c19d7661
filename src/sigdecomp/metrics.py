"""Reconstruction-quality scoring and mode-to-reference assignment.

The central figure of merit is the quality-of-reconstruction factor
(QRF): ``20*log10(||ref|| / ||ref - est||)`` in dB, higher meaning a
closer match.  A perfect match saturates at +300 dB so that reports stay
serializable and comparisons total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, Signal, l2_norm, subtract

#: sentinel for an exact reconstruction (and overall cap)
QRF_SATURATION_DB = 300.0


def qrf(est: Signal, ref: Signal) -> float:
    """Quality-of-reconstruction factor of ``est`` against ``ref`` in dB.

    Saturates at +300 dB; raises if the reference is identically zero
    (the norm ratio is undefined there).
    """
    ref_norm = l2_norm(ref)
    if ref_norm == 0.0:
        raise ContractViolation("QRF is undefined for a zero reference")
    err_norm = l2_norm(subtract(ref, est))
    if err_norm == 0.0:
        return QRF_SATURATION_DB
    return float(min(20.0 * np.log10(ref_norm / err_norm), QRF_SATURATION_DB))


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

    def to_dict(self) -> dict:
        return {
            "assignment": [list(pair) for pair in self.assignment],
            "per_mode_qrf_db": list(self.per_mode_qrf_db),
            "total_qrf_db": self.total_qrf_db,
            "unmatched_est": list(self.unmatched_est),
            "unmatched_ref": list(self.unmatched_ref),
        }


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
    table = np.empty((n_e, n_r))
    for i, e in enumerate(est):
        for j, r in enumerate(refs):
            table[i, j] = qrf(e, r)

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


def _band_energy(samples: np.ndarray, fs: float, f_hz: float, tol_hz: float) -> float:
    spectrum = np.abs(np.fft.rfft(samples)) ** 2
    freqs = np.fft.rfftfreq(samples.size, 1.0 / fs)
    return float(spectrum[(freqs >= f_hz - tol_hz) & (freqs <= f_hz + tol_hz)].sum())


#: minimum share of a channel-mode's (interior) energy that must sit at the
#: expected frequency: a mode whose band share falls below this is mixing
#: other content in and no longer counts as an aligned narrow-band mode
ALIGNMENT_PURITY_MIN = 0.905


def _interior(samples: np.ndarray) -> np.ndarray:
    trim = samples.size // 10
    return samples[trim : samples.size - trim] if trim else samples


def alignment_score(
    decomposition,
    expected: tuple[tuple[float | None, ...], ...],
    tol_hz: float = 1.0,
) -> AlignmentScore:
    """Score a multichannel decomposition against an expected mode table.

    ``decomposition`` is an :class:`~sigdecomp.multivariate.AlignedDecomposition`;
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
    indices.
    """
    n_channels = decomposition.n_channels
    n_modes = decomposition.n_modes
    for row in expected:
        if len(row) != n_channels:
            raise ContractViolation("expected table width must equal channel count")

    fs = decomposition.sample_rate_hz
    freqs = []
    energies = []
    for k in range(n_modes):
        row_f = []
        row_e = []
        for c in range(n_channels):
            samples = decomposition.channel_modes[c][k].samples
            row_f.append(dominant_frequency_hz(samples, fs))
            row_e.append(float(np.sum(samples**2)))
        freqs.append(tuple(row_f))
        energies.append(row_e)

    def holder_of(c: int, f_hz: float) -> int:
        """Mode index carrying the most energy at f_hz in channel c."""
        shares = [
            _band_energy(decomposition.channel_modes[c][k].samples, fs, f_hz, tol_hz)
            for k in range(n_modes)
        ]
        return int(np.argmax(shares)) if shares else -1

    def row_matches(mode_idx: int, row: tuple[float | None, ...]) -> bool:
        peak_energy = max(energies[mode_idx])
        if peak_energy == 0.0:
            return False
        for c, want in enumerate(row):
            if want is None:
                if energies[mode_idx][c] >= 0.10 * peak_energy:
                    return False
            else:
                if abs(freqs[mode_idx][c] - want) > tol_hz:
                    return False
                if holder_of(c, want) != mode_idx:
                    return False
                seg = _interior(decomposition.channel_modes[c][mode_idx].samples)
                total = float(np.sum(np.abs(np.fft.rfft(seg)) ** 2))
                if total == 0.0 or _band_energy(seg, fs, want, tol_hz) / total < ALIGNMENT_PURITY_MIN:
                    return False
        return True

    used: set[int] = set()
    row_to_mode = []
    for row in expected:
        hit = -1
        for k in range(n_modes):
            if k not in used and row_matches(k, row):
                hit = k
                break
        if hit >= 0:
            used.add(hit)
        row_to_mode.append(hit)

    return AlignmentScore(
        dominant_freqs_hz=tuple(freqs),
        passed=all(k >= 0 for k in row_to_mode),
        tolerance_hz=tol_hz,
        row_to_mode=tuple(row_to_mode),
    )
