"""Experiment harness: accuracy runs, noise-robustness ensembles,
parameter sweeps, and multichannel alignment studies.

Each method carries a per-signal recipe (the tuned configuration used for
benchmark runs); callers can override individual fields.  All suites are
pure functions of their spec and seeds, so reruns are bit-identical.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import AlignedDecomposition, ContractViolation, Diverged, MultichannelSignal, NumericalFailure, RunRecord
from .core import Signal, _check_fields
from .emd import EmdConfig, emd_decompose
from .metrics import AlignmentScore, QrfReport, alignment_score, match_components
from .multivariate import MemdConfig, MvmdConfig, memd_decompose, mvmd_decompose
from .spectral import TFGrid, hilbert_spectrum
from .ssa import SsaConfig, ssa_decompose
from .sst import SstConfig, sst_decompose
from .synth import MV_EXPECTED_TABLE, add_wgn, gen_mv_test, gen_s1, gen_s2, mv_component_bank
from .variational import VmdConfig, VncmdConfig, vmd_decompose, vncmd_decompose

UNIVARIATE_METHODS = ("emd", "vmd", "vncmd", "sst", "ssa")
MULTICHANNEL_METHODS = ("memd", "mvmd")
ALIGNMENT_METHODS = ("vmd-channelwise", "memd", "mvmd")
SIGNAL_IDS = ("s1", "s2")

#: default noise grid: 24 dB down to 3 dB in 3 dB steps
DEFAULT_SNR_GRID_DB = tuple(float(v) for v in range(24, 2, -3))


def generate_signal(signal_id: str) -> tuple[Signal, list[Signal]]:
    if signal_id == "s1":
        return gen_s1()
    if signal_id == "s2":
        return gen_s2()
    raise ValueError(f"unknown signal id: {signal_id}")


def default_config(method: str, signal_id: str, noisy: bool = False):
    """Tuned per-signal configuration for a method.

    ``noisy`` switches the variational reconstruction slack off
    (``tau=0``), which behaves better under noise; clean runs use
    ``tau=0.5`` for tighter reconstruction.  The multichannel recipes
    (``memd``, ``mvmd``) depend on neither ``signal_id`` nor ``noisy``.
    """
    tau = 0.0 if noisy else 0.5
    if method == "emd":
        return EmdConfig()
    if method == "vmd":
        k = 3 if signal_id == "s1" else 2
        return VmdConfig(K=k, alpha=500.0, tau=tau)
    if method == "vncmd":
        if signal_id == "s1":
            return VncmdConfig(
                K=3,
                init_if_hz=(30.0, 50.0, 85.0),
                alpha=5e-6,
                mu=0.4,
                max_iters=120,
                if_smooth_frac=0.01,
            )
        return VncmdConfig(
            K=2,
            init_if_hz=(90.0, 174.0),
            alpha=1e-5,
            mu=0.5,
            max_iters=120,
            if_smooth_frac=0.01,
        )
    if method == "sst":
        if signal_id == "s1":
            return SstConfig(K=4, n_voices=64, start_band=15, max_step=8)
        return SstConfig(K=2, n_voices=64, start_band=15, max_step=15)
    if method == "ssa":
        if signal_id == "s1":
            return SsaConfig(L=110, K=3, window_len=880, hop=220)
        return SsaConfig(L=110, K=2)
    if method == "memd":
        return MemdConfig(M=64)
    if method == "mvmd":
        return MvmdConfig(K=3, alpha=500.0, tau=0.0)
    raise ValueError(f"unknown method: {method}")


def effective_config(
    method: str, signal_id: str, noisy: bool = False, overrides: dict[str, Any] | None = None
):
    """The recipe with ``overrides`` applied: the config a run uses.

    All overrides are applied in one rebuild, so fields that are checked
    together (``K`` and ``init_if_hz``) change together; the config checks
    each value against its field's declared type.
    """
    cfg = default_config(method, signal_id, noisy)
    overrides = overrides or {}
    missing = [key for key in overrides if key not in _field_names(cfg)]
    if missing:
        raise ValueError(f"{method} has no parameter {missing[0]!r}")
    return dataclasses.replace(cfg, **overrides)


def _field_names(cfg) -> set[str]:
    return {f.name for f in dataclasses.fields(cfg)}


def decompose(method: str, x: Signal | MultichannelSignal, cfg):
    """Decompose ``x`` with ``cfg``, as :func:`effective_config` returns it:
    the one caller of the seven methods.  Each decomposition carries its run's record."""
    if method == "emd":
        return emd_decompose(x, cfg)
    if method == "vmd":
        return vmd_decompose(x, cfg)[0]
    if method == "vncmd":
        return vncmd_decompose(x, cfg)[0]
    if method == "sst":
        return sst_decompose(x, cfg)
    if method == "ssa":
        return ssa_decompose(x, cfg)
    if method == "memd":
        return memd_decompose(x, cfg)
    if method == "mvmd":
        return mvmd_decompose(x, cfg)[0]
    raise ValueError(f"unknown method: {method}")


def match_or_empty(modes: list[Signal], refs: list[Signal]) -> QrfReport:
    """Like :func:`match_components`, but a modeless decomposition yields
    an empty report (total 0) instead of an error."""
    if not modes:
        return QrfReport(
            assignment=(),
            per_mode_qrf_db=(),
            total_qrf_db=0.0,
            unmatched_ref=tuple(range(len(refs))),
        )
    return match_components(modes, refs)


def run_accuracy(
    method: str,
    signal_id: str,
    overrides: dict[str, Any] | None = None,
    n_freq_bins: int = 256,
) -> tuple[QrfReport, TFGrid]:
    """Decompose the clean signal, match modes to the generator references,
    and render the time-frequency energy grid of the decomposition."""
    x, refs = generate_signal(signal_id)
    d = decompose(method, x, effective_config(method, signal_id, overrides=overrides))
    report = match_or_empty(list(d.modes), refs)
    grid = hilbert_spectrum(d, n_freq_bins, x.sample_rate_hz / 2.0)
    return report, grid


@dataclass(frozen=True)
class NoiseSuiteSpec:
    method: str
    signal: str
    snr_grid_db: tuple[float, ...] = DEFAULT_SNR_GRID_DB
    n_realizations: int = 50
    base_seed: int = 0

    def __post_init__(self):
        _check_fields(self, n_realizations=2, base_seed=0)
        if not self.snr_grid_db:
            raise ValueError("SNR grid must be nonempty")
        if len(set(self.snr_grid_db)) != len(self.snr_grid_db):
            raise ValueError("SNR levels must be distinct")


@dataclass(frozen=True)
class SuiteResult:
    """A noise suite's successful totals, times and stop reasons per SNR.  The failures (realizations
    that diverged or failed numerically), mean and standard deviation are derived from the totals."""

    spec: NoiseSuiteSpec
    raw_totals_db: dict[float, tuple[float, ...]]
    elapsed_s: dict[float, tuple[float, ...]]
    stop_reasons: dict[float, tuple[str, ...]]  # per realization: the record's, or numerical_failure

    @property
    def failures(self) -> dict[float, int]:
        return {snr: self.spec.n_realizations - len(t) for snr, t in self.raw_totals_db.items()}

    @property
    def mean_total_db(self) -> dict[float, float | None]:
        """Mean total per SNR; None where every realization failed."""
        return {snr: float(np.mean(t)) if t else None for snr, t in self.raw_totals_db.items()}

    @property
    def std_total_db(self) -> dict[float, float]:
        """Sample standard deviation per SNR; 0 below two successes."""
        return {snr: float(np.std(t, ddof=1)) if len(t) > 1 else 0.0 for snr, t in self.raw_totals_db.items()}

    def to_rows(self) -> list[dict[str, float]]:
        return [
            {
                "snr_db": snr,
                "mean_db": self.mean_total_db[snr],
                "std_db": self.std_total_db[snr],
                "failures": self.failures[snr],
            }
            for snr in self.spec.snr_grid_db
        ]


def run_noise_suite(spec: NoiseSuiteSpec) -> SuiteResult:
    """Ensemble of noisy decompositions per SNR level.

    Realization ``i`` uses noise seed ``base_seed + i`` at every SNR.
    Divergences and numerical failures are counted and excluded from the
    mean/std; the mean is None when every realization failed, and the
    standard deviation is the sample estimate (0 when fewer than two
    successes).  Each realization's stop reason is its record's, the
    ``Diverged`` one's too, or ``numerical_failure``.
    """
    x, refs = generate_signal(spec.signal)
    cfg = effective_config(spec.method, spec.signal, noisy=True)
    raws: dict[float, tuple[float, ...]] = {}
    timing: dict[float, tuple[float, ...]] = {}
    reasons: dict[float, tuple[str, ...]] = {}
    for snr in spec.snr_grid_db:
        totals: list[float] = []
        elapsed: list[float] = []
        stops: list[str] = []
        for i in range(spec.n_realizations):
            noisy_x = add_wgn(x, snr, spec.base_seed + i)
            tic = time.perf_counter()
            try:
                d = decompose(spec.method, noisy_x, cfg)
            except (Diverged, NumericalFailure) as exc:
                elapsed.append(time.perf_counter() - tic)
                stops.append(exc.report.stop_reason if isinstance(exc, Diverged) else "numerical_failure")
                continue
            elapsed.append(time.perf_counter() - tic)
            stops.append(d.record.stop_reason)
            totals.append(match_or_empty(list(d.modes), refs).total_qrf_db)
        raws[snr] = tuple(totals)
        timing[snr] = tuple(elapsed)
        reasons[snr] = tuple(stops)
    return SuiteResult(spec=spec, raw_totals_db=raws, elapsed_s=timing, stop_reasons=reasons)


def run_param_sweep(
    method: str, param: str, values: list[Any], signal_id: str
) -> list[dict[str, Any]]:
    """One clean accuracy run per parameter value, other fields at the
    recipe defaults.  The parameter must exist in the method's config;
    invalid values are recorded per row, not raised."""
    if param not in _field_names(default_config(method, signal_id)):
        raise ValueError(f"parameter {param!r} not found in {method}'s configuration")
    rows: list[dict[str, Any]] = []
    for value in values:
        row: dict[str, Any] = {"value": value}
        try:
            report, _ = run_accuracy(method, signal_id, overrides={param: value})
            row["report"] = report
            row["total_qrf_db"] = report.total_qrf_db
        except Exception as exc:  # recorded, sweep continues
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# multichannel alignment studies
# ---------------------------------------------------------------------------

def noisy_mv_signal(
    mv: MultichannelSignal, snr_db: float, base_seed: int
) -> MultichannelSignal:
    """Independent per-channel noise at the same SNR (seed + channel index)."""
    chans = [add_wgn(mv.channel(c), snr_db, base_seed + c).samples for c in range(mv.n_channels)]
    return MultichannelSignal(np.stack(chans), mv.sample_rate_hz)


def vmd_channelwise(mv: MultichannelSignal, K: int) -> AlignedDecomposition:
    """Independent per-channel variational decomposition, index-aligned
    only by each channel's own ascending center frequencies.  Its record
    sums the channels' iterations and stops ``max_iters`` if any channel
    hit its cap, else ``converged``; its counters hold each channel's
    iterations and stop reason."""
    cfg = VmdConfig(K=K, alpha=500.0, tau=0.0)
    per = [decompose("vmd", mv.channel(c), cfg) for c in range(mv.n_channels)]
    iterations = tuple(d.record.iterations for d in per)
    reasons = tuple(d.record.stop_reason for d in per)
    counters = {"channel_iterations": iterations, "channel_stop_reasons": reasons}
    stop = "max_iters" if "max_iters" in reasons else "converged"
    record = RunRecord("vmd-channelwise", sum(iterations), stop, counters=counters)
    modes, residuals = tuple(d.modes for d in per), tuple(d.residual for d in per)
    return AlignedDecomposition(modes, residuals, mv.sample_rate_hz, record=record)


def run_alignment_suite(method: str, snr_db: float, base_seed: int = 0) -> AlignmentScore:
    """Generate the bivariate test signal, add per-channel noise, decompose
    with the requested method, and score against the expected table."""
    return alignment_study(method, snr_db, base_seed)[1]


def alignment_study(
    method: str, snr_db: float, base_seed: int = 0
) -> tuple[AlignedDecomposition, AlignmentScore]:
    """:func:`run_alignment_suite`'s decomposition, whose record says how
    the run ended, and its score."""
    if method not in ALIGNMENT_METHODS:
        raise ValueError(f"unknown alignment method: {method}")
    if base_seed < 0:
        raise ContractViolation("base_seed must be >= 0")
    mv, table = gen_mv_test()
    noisy = noisy_mv_signal(mv, snr_db, base_seed)
    if method == "vmd-channelwise":
        d = vmd_channelwise(noisy, K=3)
    else:
        d = decompose(method, noisy, default_config(method, "mv"))
    return d, alignment_score(d, table, tol_hz=1.0)


def mv_matched_total_qrf(d: AlignedDecomposition, duration_s: float, fs: float) -> float:
    """Summed matched QRF of a bivariate-test decomposition against the
    nonzero per-channel sinusoid references."""
    bank = mv_component_bank(duration_s, fs)
    total = 0.0
    for c in range(d.n_channels):
        refs = [Signal(bank[row[c]], fs) for row in MV_EXPECTED_TABLE if row[c] is not None]
        report = match_components(list(d.channel_modes[c]), refs)
        total += report.total_qrf_db
    return total
