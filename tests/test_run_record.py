"""The run record every method's decomposition carries: its method, its
iterations, why it stopped and the method's own counters, pinned at the
benchmark recipes."""

import dataclasses
import functools

import numpy as np
import pytest

import sigdecomp
from sigdecomp import bench, multivariate
from sigdecomp.core import STOP_REASONS, ContractViolation, Diverged, RunRecord
from sigdecomp.multivariate import mvmd_decompose
from sigdecomp.synth import add_wgn
from sigdecomp.variational import VmdConfig, vmd_decompose, vncmd_decompose

_RUNS = {}


def run(method, signal_id):
    """The clean recipe's decomposition of ``signal_id`` (``mv``: the two-channel
    signal at 10 dB, noise seed 0), decomposed once per session."""
    if (method, signal_id) not in _RUNS:
        if signal_id == "mv":
            x = bench.noisy_mv_signal(bench.gen_mv_test()[0], 10.0, 0)
        else:
            x = bench.generate_signal(signal_id)[0]
        _RUNS[method, signal_id] = bench.decompose(method, x, bench.default_config(method, signal_id))
    return _RUNS[method, signal_id]


RECIPES = [(m, "s1") for m in bench.UNIVARIATE_METHODS] + [(m, "mv") for m in bench.MULTICHANNEL_METHODS]


def test_record_is_exported():
    assert "RunRecord" in sigdecomp.__all__ and sigdecomp.RunRecord is RunRecord


def test_unknown_stop_reason_rejected():
    with pytest.raises(ContractViolation, match="stop_reason"):
        RunRecord("vmd", 3, "tolerance")


@pytest.mark.parametrize("method, signal_id", RECIPES)
def test_every_recipe_carries_its_record(method, signal_id):
    record = run(method, signal_id).record
    assert record.method == method
    assert record.stop_reason in STOP_REASONS
    assert record.iterations >= 0


def test_equality_ignores_the_record():
    d = run("emd", "s1")
    assert dataclasses.replace(d, record=None) == d


def test_aligned_channel_passes_its_record_on():
    d = run("memd", "mv")
    assert all(d.channel(c).record is d.record for c in range(d.n_channels))


@pytest.mark.parametrize("method", ["vmd", "vncmd", "mvmd"])
def test_pair_holds_one_record(method):
    signal_id = "mv" if method == "mvmd" else "s2"
    if signal_id == "mv":
        x = bench.noisy_mv_signal(bench.gen_mv_test()[0], 10.0, 0)
    else:
        x = bench.generate_signal(signal_id)[0]
    call = {"vmd": vmd_decompose, "vncmd": vncmd_decompose, "mvmd": mvmd_decompose}[method]
    result = call(x, bench.default_config(method, signal_id))
    assert result[1] is result[0].record
    assert result[1].method == method


@pytest.mark.parametrize(
    "method, signal_id, iterations, stop",
    [
        ("vmd", "s1", 33, "converged"),
        ("vmd", "s2", 500, "max_iters"),  # the clean s2 recipe runs to its cap
        ("vncmd", "s1", 120, "max_iters"),
        ("vncmd", "s2", 120, "max_iters"),
        ("mvmd", "mv", 10, "converged"),
    ],
)
def test_variational_stops(method, signal_id, iterations, stop):
    record = run(method, signal_id).record
    assert (record.iterations, record.stop_reason) == (iterations, stop)
    assert len(record.trace) == iterations


def test_vncmd_divergence_carries_the_record():
    x = add_wgn(bench.generate_signal("s2")[0], 12.0, 0)
    with pytest.raises(Diverged) as info:
        bench.decompose("vncmd", x, bench.default_config("vncmd", "s2", noisy=True))
    exc = info.value
    assert (exc.report.stop_reason, exc.report.iterations) == ("diverged", 47)
    assert exc.report is exc.decomposition.record
    assert exc.report.counters["final_update_norm"] > 0


def test_diverged_derives_its_report():
    # the exception holds the decomposition alone; its report is no second copy of the record
    record = RunRecord("vncmd", 3, "diverged")
    exc = Diverged("grew", sigdecomp.Decomposition.of([np.zeros(4)], np.ones(4), 8.0, record=record))
    assert exc.report is exc.decomposition.record is record
    with pytest.raises(TypeError):
        Diverged("grew", exc.decomposition, report=record)
    with pytest.raises(AttributeError):
        exc.report = record


@pytest.mark.parametrize(
    "signal_id, stop, sifts",
    [
        ("s1", "exhausted", (9, 9, 79, 10, 10, 19, 7, 4, 5, 1)),  # the tenth sift finds too few extrema
        ("s2", "max_iters", (5, 10, 7, 100)),  # the fourth sift ends at its cap with no valid mode
    ],
)
def test_emd_sifts(signal_id, stop, sifts):
    d = run("emd", signal_id)
    record = d.record
    assert record.stop_reason == stop
    assert record.counters["sift_iterations"] == sifts
    assert record.iterations == sum(sifts)
    assert record.counters["sift_stops"] == ("converged",) * (len(sifts) - 1) + (stop,)
    assert d.n_modes == len(sifts) - 1


def test_emd_remainder_below_the_floor_converged():
    # an alternating series is its own first mode, leaving a zero remainder
    x = sigdecomp.Signal((-1.0) ** np.arange(512), 256.0)
    record = bench.decompose("emd", x, bench.default_config("emd", "s1")).record
    assert (record.stop_reason, record.counters["sift_iterations"]) == ("converged", (1,))


def test_channelwise_vmd_sums_its_channels():
    # the alignment study's per-channel VMD at 10 dB, noise seed 0: both
    # channels converge, in 250 and 43 iterations
    x = bench.noisy_mv_signal(bench.gen_mv_test()[0], 10.0, 0)
    record = bench.vmd_channelwise(x, K=3).record
    assert (record.method, record.iterations, record.stop_reason) == ("vmd-channelwise", 293, "converged")
    assert record.counters == {"channel_iterations": (250, 43), "channel_stop_reasons": ("converged", "converged")}


def test_channelwise_vmd_stops_at_a_channels_cap(monkeypatch):
    # with a cap of 100 iterations the first channel stops there and the
    # second still converges: the run stopped at its cap
    monkeypatch.setattr(bench, "VmdConfig", functools.partial(VmdConfig, max_iters=100))
    x = bench.noisy_mv_signal(bench.gen_mv_test()[0], 10.0, 0)
    record = bench.vmd_channelwise(x, K=3).record
    assert (record.iterations, record.stop_reason) == (143, "max_iters")
    assert record.counters["channel_stop_reasons"] == ("max_iters", "converged")


def test_memd_counts_envelope_stats_calls(monkeypatch):
    calls = []
    search = multivariate.find_extrema_arrays

    def counted(projections):
        calls.append(projections.shape)
        return search(projections)

    monkeypatch.setattr(multivariate, "find_extrema_arrays", counted)
    x = bench.noisy_mv_signal(bench.gen_mv_test()[0], 10.0, 0)
    d = bench.decompose("memd", x, bench.default_config("memd", "mv"))
    record = d.record
    assert (record.stop_reason, record.iterations) == ("exhausted", 205) and len(calls) == 205
    used = record.counters["directions_used"]
    assert tuple(map(len, used)) == record.counters["sift_iterations"]
    assert sum(map(len, used)) == 205 and used[-1] == (0,)  # the last sift finds no usable direction
    assert used[0] == (64,) * len(used[0]) and max(used[-2]) < 64
    assert d.n_modes == len(used) - 1


@pytest.mark.parametrize("signal_id", ["s1", "s2"])
def test_sst_counts_ridges(signal_id):
    d = run("sst", signal_id)
    record, k = d.record, bench.default_config("sst", signal_id).K
    assert (record.iterations, record.stop_reason) == (0, "converged")
    assert record.counters["ridges_found"] == record.counters["ridges_requested"] == k == d.n_modes
    assert record.counters["dropped_mass"] >= 0
    assert list(record.stage_seconds) == ["cwt", "squeeze", "ridges", "reconstruct"]
    assert all(s >= 0 for s in record.stage_seconds.values())


def test_ssa_counts_triples_per_window():
    record = run("ssa", "s1").record
    assert (record.iterations, record.stop_reason) == (0, "converged")
    assert record.counters["triples_kept"] == (55, 102, 110, 110, 110, 110, 53, 52, 52)  # s1's nine windows
