"""sigdecomp benchmark: end-to-end and per-layer metrics over four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload clean_accuracy --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median over
fresh processes of importing sigdecomp and making one untimed warm-up call
of each method the workload uses), ``study_s`` (median time of one warm
pass over the workload's cases), ``qrf_total_db`` (summed matched total QRF
of a pass) and ``peak_rss_mb``; it also prints ``fail_ratio``,
``aligned_ratio``, per-case rows and machine facts.  ``--trace 1`` runs
half its time untraced and half with probes at every layer boundary, and
reports each layer's counts and share of the traced pass, plus the tracing
overhead.  Every pass is checked; a failed check makes the command exit 1.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``setup_s`` and ``study_s`` are reference seconds: wall time scaled by the
mean speed of a fixed unit of pure-Python reference work
(``REFERENCE_UNIT_S`` over the time of one unit), sampled before, during
(from a SIGALRM handler every ``SAMPLE_INTERVAL_S``) and after the timed
work; the sampling time itself is subtracted.  On a shared 2-core VM the
same noise-suite pass took 1.09-1.98 s within minutes as the host's load
changed, so wall-time medians of 15-s runs spread 12-19%.  Which reference
work tracks a workload depends on its mix: over ten runs each, study_s
spread (IQR over median) 5.1/6.0/4.0/16.4% for clean_accuracy, noisy_s2,
multichannel and cli_roundtrip scaled by an integer loop alone, and
7.6/4.0/9.8/2.1% scaled by an integer loop plus float formatting and
parsing; ``REFERENCE_WORK`` gives each workload the better of the two.
Wall times are printed as ``*_wall_s``.

The command re-executes itself once with BLAS pinned to one thread and a
fixed ``PYTHONHASHSEED`` (both recorded under ``machine``).  On a 2-core
machine a threaded OpenBLAS made the first s1 SSA call take 1.1 s instead
of 0.18 s and warm SSA calls slower and noisier; with a random hash seed per
process, ``cli_roundtrip``'s ``study_s`` spread 8-10% over runs against 4%
with a fixed one.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
WORKLOAD_NAMES = ("clean_accuracy", "noisy_s2", "multichannel", "cli_roundtrip")
SETUP_PROCESSES = 3
# Reference work per workload: (integer iterations, floats formatted and
# parsed) in one unit, the mix whose speed tracked the workload's passes best.
REFERENCE_WORK = {
    "clean_accuracy": (12_000, 0),
    "noisy_s2": (7_000, 900),
    "multichannel": (12_000, 0),
    "cli_roundtrip": (7_000, 900),
}
REFERENCE_UNIT_S = 0.001  # nominal time of one unit (sets the scale of reference seconds)
SAMPLE_INTERVAL_S = 0.05
SETUP_TIMEOUT_S = 120
MODULES = (
    "bench", "cli", "core", "emd", "io", "metrics", "multivariate",
    "spectral", "ssa", "sst", "synth", "variational", "_accel",
)

# End-to-end metrics printed by --trace 0 (BENCHMARK.json lists the same).
END_TO_END = (
    ("setup_s", "s"),
    ("study_s", "s"),
    ("qrf_total_db", "dB"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics printed by --trace 1: (name, unit, (source, key)).  A
# count is per pass and must repeat exactly; a "%" share is the layer's total
# or self time as a percentage of the traced pass, median over traced passes.
PER_LAYER = (
    ("kernels.natural_spline.calls", "count", ("calls", "kernels.natural_spline")),
    ("kernels.natural_spline.knots", "count", ("count", "kernels.natural_spline.knots")),
    ("kernels.natural_spline.total_pct", "%", ("total", "kernels.natural_spline")),
    ("kernels.find_extrema_arrays.calls", "count", ("calls", "kernels.find_extrema_arrays")),
    ("kernels.find_extrema_arrays.total_pct", "%", ("total", "kernels.find_extrema_arrays")),
    ("kernels.walk_ridge.calls", "count", ("calls", "kernels.walk_ridge")),
    ("kernels.walk_ridge.total_pct", "%", ("total", "kernels.walk_ridge")),
    ("sst.cwt_morlet.total_pct", "%", ("total", "sst.cwt_morlet")),
    ("sst.synchrosqueeze.total_pct", "%", ("total", "sst.synchrosqueeze")),
    ("sst.extract_ridges.total_pct", "%", ("total", "sst.extract_ridges")),
    ("sst.reconstruct_mode.total_pct", "%", ("total", "sst.reconstruct_mode")),
    ("sst.ridges_found", "count", ("count", "sst.ridges_found")),
    ("sst.ridges_requested", "count", ("count", "sst.ridges_requested")),
    ("variational.solve_banded.calls", "count", ("calls", "variational.solve_banded")),
    ("variational.solve_banded.total_pct", "%", ("total", "variational.solve_banded")),
    ("variational.vmd_decompose.total_pct", "%", ("total", "variational.vmd_decompose")),
    ("variational.vmd_decompose.self_pct", "%", ("self", "variational.vmd_decompose")),
    ("variational.vmd_decompose.iterations", "count", ("count", "variational.vmd_decompose.iterations")),
    ("variational.vncmd_decompose.total_pct", "%", ("total", "variational.vncmd_decompose")),
    ("variational.vncmd_decompose.self_pct", "%", ("self", "variational.vncmd_decompose")),
    ("variational.vncmd_decompose.iterations", "count", ("count", "variational.vncmd_decompose.iterations")),
    ("emd.emd_decompose.total_pct", "%", ("total", "emd.emd_decompose")),
    ("emd.emd_decompose.self_pct", "%", ("self", "emd.emd_decompose")),
    ("emd.emd_decompose.modes", "count", ("count", "emd.emd_decompose.modes")),
    ("ssa.ssa_decompose.total_pct", "%", ("total", "ssa.ssa_decompose")),
    ("ssa.ssa_decompose.self_pct", "%", ("self", "ssa.ssa_decompose")),
    ("ssa.embed.calls", "count", ("calls", "ssa.embed")),
    ("multivariate.memd_decompose.total_pct", "%", ("total", "multivariate.memd_decompose")),
    ("multivariate.memd_decompose.self_pct", "%", ("self", "multivariate.memd_decompose")),
    ("multivariate.mvmd_decompose.total_pct", "%", ("total", "multivariate.mvmd_decompose")),
    ("multivariate.mvmd_decompose.self_pct", "%", ("self", "multivariate.mvmd_decompose")),
    ("multivariate.mvmd_decompose.iterations", "count", ("count", "multivariate.mvmd_decompose.iterations")),
    ("metrics.match_components.calls", "count", ("calls", "metrics.match_components")),
    ("metrics.match_components.total_pct", "%", ("total", "metrics.match_components")),
    ("metrics.alignment_score.calls", "count", ("calls", "metrics.alignment_score")),
    ("metrics.alignment_score.total_pct", "%", ("total", "metrics.alignment_score")),
    ("spectral.hilbert_spectrum.calls", "count", ("calls", "spectral.hilbert_spectrum")),
    ("spectral.hilbert_spectrum.total_pct", "%", ("total", "spectral.hilbert_spectrum")),
    *(
        (f"io.{fn}.{kind}", unit, (src, key))
        for fn in (
            "read_csv_signal", "write_signals_csv", "write_decomposition",
            "read_decomposition", "write_tfgrid_csv",
        )
        for kind, unit, src, key in (
            ("total_pct", "%", "total", f"io.{fn}"),
            ("bytes", "bytes", "count", f"io.{fn}.bytes"),
        )
    ),
    ("cli.main.self_pct", "%", ("self", "cli.main")),
    ("bench.self_pct", "%", ("self", "bench.*")),
    ("trace.overhead_pct", "%", ("overhead", "")),
)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def load_sigdecomp():
    """Import sigdecomp from this checkout's ``src``; exits non-zero when
    the checkout has no sources."""
    if not (SRC / "sigdecomp" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'sigdecomp'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("sigdecomp")
    if Path(package.__file__).resolve().parent != SRC / "sigdecomp":
        sys.exit(f"error: imported sigdecomp from {package.__file__}, not from {SRC}")
    return argparse.Namespace(
        **{name.lstrip("_"): importlib.import_module("sigdecomp." + name) for name in MODULES}
    )


def _openblas_threads(np) -> int | None:
    """Thread count OpenBLAS reports, when numpy ships it as a library."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(sd) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _openblas_threads(np),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "numba_present": importlib.util.find_spec("numba") is not None,
        "numba_kernels_active": bool(sd.accel.NUMBA_ENABLED),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def reference_unit_s(work: tuple[int, int]) -> float:
    """Time of one unit of fixed pure-Python work: integer arithmetic, then
    float formatting and parsing (allocation-heavy, like the CSV writers)."""
    n_int, n_float = work
    tic = perf_counter()
    total = 0
    for i in range(n_int):
        total += i * i
    text = ",".join(repr(i * 0.37) for i in range(n_float))
    sum(float(v) for v in text.split(",") if v)
    return perf_counter() - tic


class SpeedSampler:
    """Times the reference loop around and, every ``SAMPLE_INTERVAL_S``,
    during the work inside the ``with`` block; ``reference_s(wall)`` turns
    the block's wall time into reference seconds."""

    def __init__(self, workload: str):
        self.work = REFERENCE_WORK[workload]
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self, *_):
        unit = reference_unit_s(self.work)
        self.samples.append(unit)
        self.spent_s += unit

    def __enter__(self):
        for _ in range(5):
            self.samples.append(reference_unit_s(self.work))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(5):
            self.samples.append(reference_unit_s(self.work))

    def reference_s(self, wall_s: float) -> float:
        # mean speed over the samples, so a speed change during a long pass
        # weighs in by the share of the pass it lasted
        speed = statistics.fmean(REFERENCE_UNIT_S / unit for unit in self.samples)
        return (wall_s - self.spent_s) * speed


def setup_probe(workload: str) -> None:
    """Body of a fresh set-up process: import, warm up, print the time."""
    workdir = WORKDIR / f"setup-{os.getpid()}"
    with SpeedSampler(workload) as speed:
        start = perf_counter()
        sd = load_sigdecomp()
        from workloads import Workload

        try:
            Workload(workload, sd, workdir).warm_up()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        wall = perf_counter() - start
    print(json.dumps({"wall_s": wall - speed.spent_s, "ref_s": speed.reference_s(wall)}))


def measure_setup(workload: str) -> list[dict]:
    samples = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _call_counters(calls) -> dict[str, int]:
    out: dict[str, int] = {}
    for call in calls:
        if call.iterations is not None:
            key = call.name + ".iterations"
            out[key] = out.get(key, 0) + call.iterations
        if call.name == "emd.emd_decompose" and call.output is not None:
            out["emd.emd_decompose.modes"] = out.get("emd.emd_decompose.modes", 0) + len(call.output.modes)
    return out


def one_pass(workload: str, cases, probes, pass_id: int, decomposition_problems) -> dict:
    """Run every case once, timed in wall and reference seconds, then check
    what the cases produced."""
    probes.calls.clear()
    probes.pass_id = pass_id
    times, artifacts, first_call = [], [], []

    def body():
        for case in cases:
            first_call.append(len(probes.calls))
            tic = perf_counter()
            artifacts.append(case.run())
            times.append(perf_counter() - tic)

    problems = []
    with SpeedSampler(workload) as speed:
        tic = perf_counter()
        try:
            probes.span("perfbench.pass", body)
        except Exception:  # the program failed: report it and stop measuring
            problems.append(f"pass {pass_id} raised:\n{traceback.format_exc()}")
        wall = perf_counter() - tic
    probes.pass_id = -1
    seconds = wall - speed.spent_s
    ref_seconds = speed.reference_s(wall)
    if problems:
        return {"id": pass_id, "seconds": seconds, "ref_seconds": ref_seconds, "problems": problems}

    rows = []
    first_call.append(len(probes.calls))
    for i, case in enumerate(cases):
        calls = probes.calls[first_call[i] : first_call[i + 1]]
        qrf_db, aligned, case_problems = case.check(artifacts[i])
        for call in calls:
            if call.output is not None:
                case_problems += decomposition_problems(call)
        iterations = [c.iterations for c in calls if c.iterations is not None]
        outer = [c for c in calls if c.outermost]
        rows.append({
            "case": case.name,
            "seconds": times[i],
            "qrf_db": qrf_db,
            "aligned": aligned,
            "iterations": sum(iterations) if iterations else None,
            "decompositions": len(outer),
            "failures": sum(c.failed for c in outer),
        })
        problems += case_problems
    counters = _call_counters(probes.calls)
    counters.update(probes.counts.get(pass_id, {}))
    probes.calls.clear()
    return {
        "id": pass_id,
        "seconds": seconds,
        "ref_seconds": ref_seconds,
        "problems": problems,
        "rows": rows,
        "qrf_total_db": sum(r["qrf_db"] for r in rows),
        "counters": counters,
    }


def timed_passes(workload: str, cases, probes, budget_s: float, first_id: int, decomposition_problems) -> list[dict]:
    """Passes until ``budget_s`` has elapsed (at least one)."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < budget_s:
        passes.append(one_pass(workload, cases, probes, first_id + len(passes), decomposition_problems))
        if passes[-1]["problems"]:
            break
    return passes


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def layer_table(probes, passes: list[dict]) -> dict[str, dict]:
    """Per span name: calls per pass, median total/self seconds per pass and
    their median share of the traced pass."""
    per_pass = probes.per_pass()
    ids = [p["id"] for p in passes]
    names = sorted({n for i in ids for n in per_pass[i]})
    pass_s = [per_pass[i]["perfbench.pass"]["total_s"] for i in ids]
    table = {}
    for name in names:
        rows = [per_pass[i].get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}) for i in ids]
        table[name] = {
            "calls": rows[0]["calls"],
            "total_s": statistics.median(r["total_s"] for r in rows),
            "self_s": statistics.median(r["self_s"] for r in rows),
            "total_pct": statistics.median(100.0 * r["total_s"] / s for r, s in zip(rows, pass_s)),
            "self_pct": statistics.median(100.0 * r["self_s"] / s for r, s in zip(rows, pass_s)),
        }
    bench_self = [
        sum(row["self_s"] for name, row in per_pass[i].items() if name.startswith("bench.")) / s
        for i, s in zip(ids, pass_s)
    ]
    table["bench.*"] = {"self_pct": 100.0 * statistics.median(bench_self)}
    return table


def per_layer_metrics(table: dict, counters: dict, overhead_pct: float) -> dict:
    metrics = {}
    for name, unit, (source, key) in PER_LAYER:
        if source == "calls":
            value = table.get(key, {}).get("calls", 0)
        elif source == "count":
            value = counters.get(key, 0)
        elif source == "overhead":
            value = overhead_pct
        else:
            value = table.get(key, {}).get(source + "_pct", 0.0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, sd) -> tuple[dict, dict]:
    import workloads
    from probes import Probes

    setup = measure_setup(name)
    workdir = WORKDIR / f"{name}-{os.getpid()}"
    wl = workloads.Workload(name, sd, workdir)
    cases = wl.cases()
    modules = {"sigdecomp." + m: getattr(sd, m.lstrip("_")) for m in MODULES}
    failure_types = (sd.core.Diverged, sd.core.NumericalFailure)
    budget = seconds / 2.0 if trace else seconds
    untraced, traced, probes = [], [], None
    try:
        tic = perf_counter()
        wl.warm_up()
        setup_in_process = perf_counter() - tic
        for tracing in (False, True) if trace else (False,):
            probes = wl.probes = Probes(tracing, failure_types)
            probes.install(modules)
            passes = timed_passes(name, cases, probes, budget, len(untraced), workloads.decomposition_problems)
            probes.restore()
            if tracing:
                traced = passes
            else:
                untraced = passes
                if passes[-1]["problems"]:
                    break
    finally:
        if probes is not None:
            probes.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    problems = [msg for p in passes for msg in p["problems"]]
    good = [p for p in passes if not p["problems"]]
    if len({p["qrf_total_db"] for p in good}) > 1:
        problems.append("qrf_total_db differs between passes: " + str([p["qrf_total_db"] for p in good]))
    if len({json.dumps(p["counters"], sort_keys=True) for p in (traced or good)}) > 1:
        problems.append("exact-repeat counters differ between passes")

    q1, med, q3 = _quartiles([p["ref_seconds"] for p in untraced])
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_facts(sd),
        "setup_s": statistics.median(x["ref_s"] for x in setup),
        "setup_wall_s": statistics.median(x["wall_s"] for x in setup),
        "setup_samples": setup,
        "setup_in_process_wall_s": setup_in_process,
        "study_s": med,
        "study_q1_s": q1,
        "study_q3_s": q3,
        "study_wall_s": statistics.median(p["seconds"] for p in untraced),
        "passes": len(untraced),
        "peak_rss_mb": peak_rss_mb(),
        "problems": problems,
    }
    if good:
        rows = good[0]["rows"]
        decompositions = sum(r["decompositions"] for r in rows)
        failures = sum(r["failures"] for r in rows)
        aligned = [r["aligned"] for r in rows if r["aligned"] is not None]
        timed = [p for p in untraced if not p["problems"]]
        record.update({
            "qrf_total_db": good[0]["qrf_total_db"],
            "decompositions": decompositions,
            "failures": failures,
            "fail_ratio": failures / max(decompositions, 1),
            "aligned_ratio": sum(aligned) / len(aligned) if aligned else None,
            "counters": (traced or good)[0]["counters"],
            "cases": [
                {**row, "seconds": statistics.median(p["rows"][i]["seconds"] for p in timed)}
                for i, row in enumerate(rows)
            ],
        })
        record["counters_digest"] = hashlib.sha256(
            json.dumps(record["counters"], sort_keys=True).encode()
        ).hexdigest()[:16]

    metrics = {}
    if not problems and not trace:
        metrics = {key: {"value": record[key], "unit": unit} for key, unit in END_TO_END}
    if not problems and trace:
        traced_s = statistics.median(p["ref_seconds"] for p in traced)
        overhead_pct = 100.0 * (traced_s / med - 1.0)
        table = layer_table(probes, traced)
        record.update({
            "traced_study_s": traced_s,
            "traced_passes": len(traced),
            "trace_overhead_pct": overhead_pct,
            "layers": table,
        })
        metrics = per_layer_metrics(table, record["counters"], overhead_pct)
        WORKDIR.mkdir(exist_ok=True)
        probes.write_spans(WORKDIR / f"spans_{name}_seed{seed}.csv")
    contract = {
        "correct": not problems,
        "attempted": len(passes),
        "failed": len(passes) - len(good),
        "metrics": metrics,
    }
    return contract, record


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def print_summary(record: dict, contract: dict) -> None:
    def fmt(v):
        return "n/a" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))

    r = record
    print(f"== {r['workload']}  seed {r['seed']}  trace {int(r['trace'])}  "
          f"passes {r['passes']}  correct {contract['correct']}")
    print(f"  setup_s        {fmt(r['setup_s'])} s   (wall {fmt(r['setup_wall_s'])} s, median of "
          f"{len(r['setup_samples'])} fresh processes; in process {fmt(r['setup_in_process_wall_s'])} s)")
    print(f"  study_s        {fmt(r['study_s'])} s   (q1 {fmt(r['study_q1_s'])}, q3 {fmt(r['study_q3_s'])}, "
          f"n={r['passes']}; wall {fmt(r['study_wall_s'])} s)")
    if "qrf_total_db" in r:
        print(f"  qrf_total_db   {fmt(r['qrf_total_db'])} dB")
        print(f"  fail_ratio     {fmt(r['fail_ratio'])}   ({r['failures']}/{r['decompositions']} decompositions)")
        print(f"  aligned_ratio  {fmt(r['aligned_ratio'])}")
    print(f"  peak_rss_mb    {fmt(r['peak_rss_mb'])} MB")
    for row in r.get("cases", []):
        print(f"    {row['case']:<22} {row['seconds'] * 1e3:9.2f} ms wall  {row['qrf_db']:9.3f} dB  "
              f"iters {fmt(row['iterations'])}  failed {row['failures']}/{row['decompositions']}"
              + ("" if row["aligned"] is None else f"  aligned {row['aligned']}"))
    if "layers" in r:
        print(f"  traced study_s {fmt(r['traced_study_s'])} s, overhead {r['trace_overhead_pct']:+.2f}%")
        for name, row in sorted(r["layers"].items(), key=lambda kv: -kv[1].get("total_pct", 0.0)):
            if "calls" in row:
                print(f"    {name:<36} calls {row['calls']:>7}  total {row['total_pct']:6.2f}%  "
                      f"self {row['self_pct']:6.2f}%  ({row['total_s'] * 1e3:.2f} ms/pass wall)")
    for problem in r["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sigdecomp end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="recorded; the problem instances are fixed (see workloads.py)")
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # thread counts and the hash seed only take effect at start-up
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    sd = load_sigdecomp()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        contract, record = run_workload(name, args.seed, args.seconds, bool(args.trace), sd)
        print_summary(record, contract)
        print(json.dumps(record))
        results.append((name, contract))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(c["correct"] for _, c in results),
            "attempted": sum(c["attempted"] for _, c in results),
            "failed": sum(c["failed"] for _, c in results),
            "metrics": {f"{n}.{k}": v for n, c in results for k, v in c["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
