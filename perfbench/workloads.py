"""The four benchmark workloads: their warm-up, their cases, and the checks
on what each case produced.

A workload pass runs every case once.  The problem instances are fixed: the
paper's clean s1/s2 signals, and noise drawn with base seed 0 for the noise
and alignment studies (the repository's default).  With the noise drawn
from the workload seed instead, ten seeds spread study time by 22% and
total QRF by 25% on ``noisy_s2``, and one memd study took 12.7-19.5 s, far
wider than any bound a regression check could use.  Shuffling the case
order by seed moved peak memory by 9% (allocation history), so the order
is fixed too and the seed changes no input.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

UNIVARIATE = ("emd", "vmd", "vncmd", "sst", "ssa")
NOISE_SNR_DB = (12.0, 3.0)
NOISE_REALIZATIONS = 4
NOISE_BASE_SEED = 0
ALIGN_SNR_DB = 10.0
ALIGN_METHODS = ("memd", "mvmd", "vmd-channelwise")
ALIGN_BASE_SEED = 0
TF_BINS = 256
REBUILD_RTOL = 1e-9

@dataclass
class Case:
    """``run`` is the timed work and returns an artifact; ``check`` runs
    untimed on it and returns (total QRF in dB, alignment passed or None,
    problems found)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[float, bool | None, list[str]]]


def _rel_rebuild_error(x: np.ndarray, parts: list[np.ndarray]) -> float:
    return float(np.linalg.norm(x - np.sum(parts, axis=0)) / max(np.linalg.norm(x), 1e-300))


def decomposition_problems(call) -> list[str]:
    """Finite modes and residual, and sum(modes) + residual == input."""
    d, x = call.output, call.signal
    if hasattr(d, "channel_modes"):
        pairs = [
            (x.channels[c], [m.samples for m in d.channel_modes[c]] + [d.residuals[c].samples])
            for c in range(d.n_channels)
        ]
    else:
        pairs = [(x.samples, [m.samples for m in d.modes] + [d.residual.samples])]
    problems = []
    for target, parts in pairs:
        if not all(np.all(np.isfinite(p)) for p in parts):
            problems.append(f"{call.name}: non-finite mode or residual")
        elif (err := _rel_rebuild_error(target, parts)) > REBUILD_RTOL:
            problems.append(f"{call.name}: modes + residual rebuild the input to {err:.2e}")
    return problems


class Workload:
    def __init__(self, name: str, sd, workdir: Path):
        self.name = name
        self.sd = sd  # namespace of sigdecomp modules
        self.workdir = workdir
        self.probes = None  # set by the runner before the passes

    def warm_up(self) -> None:
        """One untimed call of each method the workload uses, on inputs
        small enough that set-up can be repeated."""
        bench = self.sd.bench
        if self.name in ("clean_accuracy", "noisy_s2"):
            for method in UNIVARIATE:
                bench.run_accuracy(method, "s2", n_freq_bins=TF_BINS)
        elif self.name == "multichannel":
            mv, table = self.sd.synth.gen_mv_test(duration_s=0.25)
            noisy = bench.noisy_mv_signal(mv, ALIGN_SNR_DB, ALIGN_BASE_SEED)
            d = bench.memd_decompose(noisy, self.sd.multivariate.MemdConfig(M=4))
            bench.alignment_score(d, table, tol_hz=1.0)
            bench.mvmd_decompose(noisy, self.sd.multivariate.MvmdConfig(K=3))
            d = bench.vmd_channelwise(noisy, K=3)
            bench.mv_matched_total_qrf(d, 0.25, mv.sample_rate_hz)
        else:
            for case in self.cases():
                case.run()

    def cases(self) -> list[Case]:
        return getattr(self, "_cases_" + self.name)()

    # -- clean_accuracy ----------------------------------------------------

    def _cases_clean_accuracy(self) -> list[Case]:
        bench = self.sd.bench

        def case(method, signal_id):
            def run():
                return bench.run_accuracy(method, signal_id, n_freq_bins=TF_BINS)

            def check(artifact):
                report, grid = artifact
                problems = []
                if grid.energy.shape[0] != TF_BINS or not np.all(np.isfinite(grid.energy)):
                    problems.append(f"{method}/{signal_id}: T-F grid is not finite with {TF_BINS} bins")
                return report.total_qrf_db, None, problems

            return Case(f"{method}/{signal_id}", run, check)

        return [case(m, s) for s in ("s1", "s2") for m in UNIVARIATE]

    # -- noisy_s2 ----------------------------------------------------------

    def _cases_noisy_s2(self) -> list[Case]:
        bench = self.sd.bench

        def case(method):
            spec = bench.NoiseSuiteSpec(
                method, "s2", NOISE_SNR_DB, NOISE_REALIZATIONS, NOISE_BASE_SEED
            )

            def run():
                return bench.run_noise_suite(spec)

            def check(result):
                done = sum(len(v) for v in result.raw_totals_db.values())
                done += sum(result.failures.values())
                problems = []
                if done != len(NOISE_SNR_DB) * NOISE_REALIZATIONS:
                    problems.append(f"{method}/s2-noise: {done} realizations accounted for")
                return sum(sum(v) for v in result.raw_totals_db.values()), None, problems

            return Case(f"{method}/s2-noise", run, check)

        return [case(m) for m in UNIVARIATE]

    # -- multichannel ------------------------------------------------------

    def _cases_multichannel(self) -> list[Case]:
        bench = self.sd.bench
        duration = self.sd.synth.MV_DEFAULT_DURATION_S

        def case(method):
            def run():
                score = bench.run_alignment_suite(method, ALIGN_SNR_DB, ALIGN_BASE_SEED)
                d = self.probes.calls[-1].output  # the decomposition just scored
                return bench.mv_matched_total_qrf(d, duration, d.sample_rate_hz), score.passed

            def check(artifact):
                return artifact[0], artifact[1], []

            return Case(f"{method}/mv-10dB", run, check)

        return [case(m) for m in ALIGN_METHODS]

    # -- cli_roundtrip -----------------------------------------------------

    def _cases_cli_roundtrip(self) -> list[Case]:
        def invoke(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.sd.cli.main([str(a) for a in argv])
            return argv[0], code, err.getvalue().strip()

        def fresh(sub):
            path = self.workdir / sub
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir(parents=True)
            return path

        def s1_chain():
            d = fresh("s1")
            return d, [
                invoke(["synth", "--signal", "s1", "--out", d / "s1.csv"]),
                invoke(["decompose", "--method", "vmd", "--input", d / "s1.csv", "--outdir", d / "vmd"]),
                invoke(["tf", "--indir", d / "vmd", "--out", d / "grid.csv", "--bins", TF_BINS]),
            ]

        def mv_chain():
            d = fresh("mv")
            return d, [
                invoke(["synth", "--signal", "mv", "--out", d / "mv.csv"]),
                invoke(["decompose", "--method", "mvmd", "--input", d / "mv.csv", "--outdir", d / "mvmd"]),
            ]

        return [
            Case("vmd/s1-cli", s1_chain, self._check_s1_chain),
            Case("mvmd/mv-cli", mv_chain, self._check_mv_chain),
        ]

    @staticmethod
    def _exit_problems(steps) -> list[str]:
        return [f"cli {cmd} exited {code}: {err}" for cmd, code, err in steps if code != 0]

    @staticmethod
    def _read_bundle(outdir: Path) -> tuple[list[np.ndarray], np.ndarray, float]:
        """Modes and residual of a decompose output directory, read with
        numpy rather than the package's own reader.  Raises OSError or
        ValueError (with KeyError for a bad manifest) when files are
        missing or malformed."""
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        if manifest["n_modes"] != len(manifest["mode_files"]) or not manifest["mode_files"]:
            raise ValueError(f"{outdir.name}: manifest lists {len(manifest['mode_files'])} mode files")

        def load(name):
            return np.loadtxt(outdir / name, delimiter=",", skiprows=2, ndmin=2)

        modes = [load(name) for name in manifest["mode_files"]]
        return modes, load(manifest["residual_file"]), float(manifest["sample_rate_hz"])

    def _check_s1_chain(self, artifact):
        d, steps = artifact
        problems = self._exit_problems(steps)
        if problems:
            return 0.0, None, problems
        sd = self.sd
        try:
            modes, residual, fs = self._read_bundle(d / "vmd")
            x = np.loadtxt(d / "s1.csv", delimiter=",", skiprows=2, ndmin=2)[:, 0]
            grid = np.loadtxt(d / "grid.csv", delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError, KeyError) as exc:
            return 0.0, None, [f"vmd/s1-cli output: {exc}"]
        if grid.shape != (x.size, TF_BINS + 1) or not np.all(np.isfinite(grid)):
            problems.append(f"vmd/s1-cli: grid is {grid.shape}, want ({x.size}, {TF_BINS + 1})")
        parts = [m[:, 0] for m in modes] + [residual[:, 0]]
        if (err := _rel_rebuild_error(x, parts)) > REBUILD_RTOL:
            problems.append(f"vmd/s1-cli: mode files rebuild the input to {err:.2e}")
        _, refs = sd.synth.gen_s1()
        report = sd.metrics.match_components([sd.core.Signal(m[:, 0], fs) for m in modes], refs)
        return report.total_qrf_db, None, problems

    def _check_mv_chain(self, artifact):
        d, steps = artifact
        problems = self._exit_problems(steps)
        if problems:
            return 0.0, None, problems
        sd = self.sd
        try:
            modes, residual, fs = self._read_bundle(d / "mvmd")
            x = np.loadtxt(d / "mv.csv", delimiter=",", skiprows=2, ndmin=2)
        except (OSError, ValueError, KeyError) as exc:
            return 0.0, None, [f"mvmd/mv-cli output: {exc}"]
        n_ch = x.shape[1]
        for c in range(n_ch):
            parts = [m[:, c] for m in modes] + [residual[:, c]]
            if (err := _rel_rebuild_error(x[:, c], parts)) > REBUILD_RTOL:
                problems.append(f"mvmd/mv-cli: mode files rebuild channel {c} to {err:.2e}")
        aligned = sd.multivariate.AlignedDecomposition(
            channel_modes=tuple(tuple(sd.core.Signal(m[:, c], fs) for m in modes) for c in range(n_ch)),
            residuals=tuple(sd.core.Signal(residual[:, c], fs) for c in range(n_ch)),
            sample_rate_hz=fs,
        )
        qrf = sd.bench.mv_matched_total_qrf(aligned, x.shape[0] / fs, fs)
        return qrf, None, problems
