"""Call probes installed at the import sites of sigdecomp's layers.

A probe replaces a module attribute with a wrapper.  While tracing, the
wrapper records one span per call -- (name, start, end, parent span index,
pass id) -- and adds to per-pass counters.  Entry-point probes (the method
functions as ``sigdecomp.bench`` and ``sigdecomp.cli`` name them) also keep
each decomposition's input, output and iteration count so the benchmark can
check outputs; those stay installed in untraced runs, where they take no
timestamps.  ``Probes.restore`` puts every original attribute back.

Spans are kept in memory and aggregated (or written out) after the passes.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Call:
    """One decomposition seen at an entry point."""

    name: str
    signal: object  # Signal or MultichannelSignal handed to the method
    output: object | None  # Decomposition or AlignedDecomposition
    failed: bool  # raised Diverged or NumericalFailure
    iterations: int | None
    outermost: bool  # not nested inside another entry point


# Counters run after a traced call returns: counter(probes, span name, args, result).

def _count_knots(probes, name, args, result):
    probes.count(name + ".knots", len(args[0]))


def _count_ridges(probes, name, args, result):
    probes.count("sst.ridges_requested", int(args[2]))
    probes.count("sst.ridges_found", len(result))


def _file_bytes(path_arg: int, filename: str | None = None):
    """Counts the size of the one file a call reads or writes itself."""

    def counter(probes, name, args, result):
        path = os.fspath(args[path_arg])
        if filename is not None:
            path = os.path.join(path, filename)
        probes.count(name + ".bytes", os.path.getsize(path))

    return counter


# (module, attribute, span name, counter).  Kernels and stages are wrapped
# where the calling module looks them up, so every call is seen.
LAYER_SITES = (
    ("sigdecomp.emd", "natural_spline", "kernels.natural_spline", _count_knots),
    ("sigdecomp.multivariate", "natural_spline", "kernels.natural_spline", _count_knots),
    ("sigdecomp.emd", "find_extrema_arrays", "kernels.find_extrema_arrays", None),
    ("sigdecomp.multivariate", "find_extrema_arrays", "kernels.find_extrema_arrays", None),
    ("sigdecomp.sst", "walk_ridge", "kernels.walk_ridge", None),
    ("sigdecomp.variational", "solve_banded", "variational.solve_banded", None),
    ("sigdecomp.sst", "cwt_morlet", "sst.cwt_morlet", None),
    ("sigdecomp.sst", "synchrosqueeze", "sst.synchrosqueeze", None),
    ("sigdecomp.sst", "extract_ridges", "sst.extract_ridges", _count_ridges),
    ("sigdecomp.sst", "reconstruct_mode", "sst.reconstruct_mode", None),
    ("sigdecomp.ssa", "embed", "ssa.embed", None),
    ("sigdecomp.bench", "match_components", "metrics.match_components", None),
    ("sigdecomp.bench", "alignment_score", "metrics.alignment_score", None),
    ("sigdecomp.bench", "hilbert_spectrum", "spectral.hilbert_spectrum", None),
    ("sigdecomp.cli", "hilbert_spectrum", "spectral.hilbert_spectrum", None),
    ("sigdecomp.io", "read_csv_signal", "io.read_csv_signal", _file_bytes(0)),
    ("sigdecomp.io", "write_signals_csv", "io.write_signals_csv", _file_bytes(0)),
    ("sigdecomp.io", "write_decomposition", "io.write_decomposition", _file_bytes(1, "manifest.json")),
    ("sigdecomp.io", "read_decomposition", "io.read_decomposition", _file_bytes(0, "manifest.json")),
    ("sigdecomp.io", "write_tfgrid_csv", "io.write_tfgrid_csv", _file_bytes(0)),
    ("sigdecomp.cli", "main", "cli.main", None),
    ("sigdecomp.bench", "run_accuracy", "bench.run_accuracy", None),
    ("sigdecomp.bench", "run_noise_suite", "bench.run_noise_suite", None),
    ("sigdecomp.bench", "run_alignment_suite", "bench.run_alignment_suite", None),
    ("sigdecomp.bench", "mv_matched_total_qrf", "bench.mv_matched_total_qrf", None),
    ("sigdecomp.bench", "decompose", "bench.decompose", None),
    ("sigdecomp.bench", "generate_signal", "bench.generate_signal", None),
    ("sigdecomp.bench", "match_or_empty", "bench.match_or_empty", None),
    ("sigdecomp.bench", "noisy_mv_signal", "bench.noisy_mv_signal", None),
)

# Method entry points: (module, attribute, span name).
ENTRY_SITES = (
    ("sigdecomp.bench", "emd_decompose", "emd.emd_decompose"),
    ("sigdecomp.bench", "vmd_decompose", "variational.vmd_decompose"),
    ("sigdecomp.bench", "vncmd_decompose", "variational.vncmd_decompose"),
    ("sigdecomp.bench", "sst_decompose", "sst.sst_decompose"),
    ("sigdecomp.bench", "ssa_decompose", "ssa.ssa_decompose"),
    ("sigdecomp.bench", "memd_decompose", "multivariate.memd_decompose"),
    ("sigdecomp.bench", "mvmd_decompose", "multivariate.mvmd_decompose"),
    ("sigdecomp.bench", "vmd_channelwise", "bench.vmd_channelwise"),
    ("sigdecomp.cli", "memd_decompose", "multivariate.memd_decompose"),
    ("sigdecomp.cli", "mvmd_decompose", "multivariate.mvmd_decompose"),
)


class Probes:
    """Installs the wrappers, holds what they record, and restores the
    original attributes.  ``tracing=False`` installs only the entry-point
    capture."""

    def __init__(self, tracing: bool, failure_types: tuple[type, ...]):
        self.tracing = tracing
        self.failure_types = failure_types
        self.spans: list = []
        self.counts: dict[int, Counter] = {}
        self.calls: list[Call] = []
        self.pass_id = -1  # spans and counts outside a pass are not aggregated
        self._stack: list[int] = []
        self._entry_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts.setdefault(self.pass_id, Counter())[key] += n

    def span(self, name: str, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span (a no-op wrapper when not tracing)."""
        if not self.tracing:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.pass_id)

    # -- wrappers ----------------------------------------------------------

    def _layer(self, name, fn, counter):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self, name, args, result)
            return result

        return probe

    def _entry(self, name, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            outermost = self._entry_depth == 0
            self._entry_depth += 1
            try:
                result = self.span(name, fn, *args, **kwargs)
            except self.failure_types as exc:
                report = getattr(exc, "report", None)
                iterations = report.iterations if report is not None else None
                self.calls.append(Call(name, args[0], None, True, iterations, outermost))
                raise
            finally:
                self._entry_depth -= 1
            output, iterations = result, None
            if isinstance(result, tuple):  # (decomposition, ConvergenceReport)
                output, iterations = result[0], result[1].iterations
            self.calls.append(Call(name, args[0], output, False, iterations, outermost))
            return result

        return probe

    def _replace(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, modules: dict[str, object]) -> None:
        for mod_name, attr, name in ENTRY_SITES:
            module = modules[mod_name]
            self._replace(module, attr, self._entry(name, getattr(module, attr)))
        if not self.tracing:
            return
        for mod_name, attr, name, counter in LAYER_SITES:
            module = modules[mod_name]
            self._replace(module, attr, self._layer(name, getattr(module, attr), counter))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- aggregation -------------------------------------------------------

    def per_pass(self) -> dict[int, dict[str, dict[str, float]]]:
        """{pass id: {span name: {"calls", "total_s", "self_s"}}} for spans
        recorded inside a pass.  Self time is a span's duration minus the
        time its direct children cover (spans nest strictly)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, dict[str, float]]] = {}
        for i, (name, start, end, _, pass_id) in enumerate(self.spans):
            if pass_id < 0:
                continue
            row = out.setdefault(pass_id, {}).setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,pass_id\n")
            for name, start, end, parent, pass_id in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{pass_id}\n")
