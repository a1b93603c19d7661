import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sigdecomp import bench, cli, io as sdio, variational
from sigdecomp.bench import (
    NoiseSuiteSpec,
    decompose,
    default_config,
    effective_config,
    match_or_empty,
    run_accuracy,
    run_alignment_suite,
    run_noise_suite,
    run_param_sweep,
)
from sigdecomp.core import Decomposition, MultichannelSignal, Signal
from sigdecomp.emd import EmdConfig, emd_decompose
from sigdecomp.multivariate import (
    AlignedDecomposition,
    MemdConfig,
    MvmdConfig,
    memd_decompose,
    mvmd_decompose,
)
from sigdecomp.ssa import SsaConfig, ssa_decompose
from sigdecomp.sst import SstConfig, sst_decompose
from sigdecomp.variational import VmdConfig, VncmdConfig, vmd_decompose, vncmd_decompose


class TestRecipes:
    def test_every_method_has_both_signal_recipes(self):
        for method in ("emd", "vmd", "vncmd", "sst", "ssa"):
            for sig in ("s1", "s2"):
                cfg = default_config(method, sig)
                assert dataclasses.is_dataclass(cfg)

    def test_multichannel_recipes_are_the_class_defaults(self):
        assert default_config("memd", "mv") == MemdConfig()
        assert default_config("mvmd", "mv") == MvmdConfig()

    def test_noisy_flag_zeroes_tau(self):
        assert default_config("vmd", "s1", noisy=True).tau == 0.0
        assert default_config("vmd", "s1", noisy=False).tau == 0.5

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            default_config("wavelets", "s1")

    def test_override_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            run_param_sweep("vmd", "bogus_param", [1.0], "s1")


class TestAccuracy:
    def test_vmd_beats_emd_on_narrow_band(self):
        vmd_report, _ = run_accuracy("vmd", "s1")
        emd_report, _ = run_accuracy("emd", "s1")
        assert vmd_report.total_qrf_db > emd_report.total_qrf_db

    def test_sst_beats_vmd_on_wide_band(self):
        sst_report, _ = run_accuracy("sst", "s2")
        vmd_report, _ = run_accuracy("vmd", "s2")
        assert sst_report.total_qrf_db > vmd_report.total_qrf_db

    def test_modeless_decomposition_scores_zero(self):
        t = np.arange(512) / 256.0
        ramp = Signal(t, 256.0)
        d = decompose("emd", ramp, effective_config("emd", "s1"))
        report = match_or_empty(list(d.modes), [Signal(np.sin(2 * np.pi * t), 256.0)])
        assert len(report.assignment) == 0
        assert report.total_qrf_db == 0.0

    def test_returns_tf_grid(self):
        report, grid = run_accuracy("vmd", "s2")
        assert grid.energy.shape[0] == 256
        assert grid.total_energy > 0


#: method -> (config for a short two-tone input, the method called directly)
RUN_PATH_CASES = {
    "emd": (EmdConfig(max_imfs=1), emd_decompose),
    "vmd": (VmdConfig(K=2, alpha=500.0), lambda x, c: vmd_decompose(x, c)[0]),
    "vncmd": (VncmdConfig(K=2, init_if_hz=(5.0, 20.0)), lambda x, c: vncmd_decompose(x, c)[0]),
    "sst": (SstConfig(K=2), sst_decompose),
    "ssa": (SsaConfig(L=20, K=2), ssa_decompose),
    "memd": (MemdConfig(M=4), memd_decompose),
    "mvmd": (MvmdConfig(K=2), lambda x, c: mvmd_decompose(x, c)[0]),
}


def two_tones(method):
    t = np.arange(256) / 128.0
    x = np.cos(2 * np.pi * 5.0 * t) + 0.5 * np.cos(2 * np.pi * 20.0 * t)
    if method in bench.MULTICHANNEL_METHODS:
        return MultichannelSignal(np.stack([x, 0.8 * x + 0.1 * np.sin(2 * np.pi * 20.0 * t)]), 128.0)
    return Signal(x, 128.0)


def arrays_of(d):
    if isinstance(d, AlignedDecomposition):
        arrays = [m.samples for modes in d.channel_modes for m in modes] + [r.samples for r in d.residuals]
    else:
        arrays = [m.samples for m in d.modes] + [d.residual.samples] + list(d.if_tracks_hz or ())
    return arrays + [np.asarray(d.center_freqs_hz or ())]


class TestRunPath:
    @pytest.mark.parametrize("method", list(RUN_PATH_CASES))
    def test_equals_the_method_called_directly(self, method):
        cfg, direct = RUN_PATH_CASES[method]
        x = two_tones(method)
        d = decompose(method, x, cfg)
        assert isinstance(d, (Decomposition, AlignedDecomposition))
        expected = arrays_of(direct(x, cfg))
        got = arrays_of(d)
        assert len(got) == len(expected) > 2
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_unknown_method_rejected(self, monkeypatch):
        # the caller hands the config over: decompose looks up no recipe
        monkeypatch.setattr(bench, "default_config", None)
        with pytest.raises(ValueError, match="unknown method"):
            decompose("wavelets", two_tones("emd"), EmdConfig())

    @pytest.mark.parametrize(
        "method, flags",
        [("memd", ("--m-directions", "4")), ("mvmd", ("--k", "2")), ("sst", ("--max-step", "5"))],
    )
    def test_cli_decompose_runs_through_bench(self, tmp_path, monkeypatch, method, flags):
        csv = tmp_path / "mv.csv"
        assert cli.main(["synth", "--signal", "mv", "--duration", "0.25", "--out", str(csv)]) == 0
        runs, written = [], []
        run, write = bench.decompose, sdio.write_decomposition

        def spy_run(name, x, cfg):
            runs.append((name, cfg))
            return run(name, x, cfg)

        def spy_write(d, outdir, **kwargs):
            written.append(kwargs["config"])
            return write(d, outdir, **kwargs)

        monkeypatch.setattr(bench, "decompose", spy_run)
        monkeypatch.setattr(sdio, "write_decomposition", spy_write)
        argv = ["decompose", "--method", method, *flags, "--input", str(csv), "--outdir", str(tmp_path / "d")]
        assert cli.main(argv) == 0
        assert [name for name, _ in runs] == [method]
        cfg = runs[0][1]
        assert len(written) == 1 and written[0] is cfg
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        fields = dataclasses.asdict(cfg)
        assert manifest["config"] == fields
        assert list(manifest["config"]) == [f.name for f in dataclasses.fields(cfg)]
        assert fields[{"memd": "M", "mvmd": "K", "sst": "max_step"}[method]] == int(flags[1])
        if method == "sst":
            assert list(manifest["config"]) == ["n_voices", "morlet_w0", "gamma", "K", "start_band", "max_step"]


class TestNoiseSuite:
    def test_bit_identical_reruns(self):
        spec = NoiseSuiteSpec(
            method="vmd", signal="s2", snr_grid_db=(12.0,), n_realizations=3, base_seed=7
        )
        a = run_noise_suite(spec)
        b = run_noise_suite(spec)
        assert a.raw_totals_db == b.raw_totals_db
        assert a.mean_total_db == b.mean_total_db

    def test_failures_counted_and_excluded(self):
        spec = NoiseSuiteSpec(
            method="vncmd",
            signal="s2",
            snr_grid_db=(12.0,),
            n_realizations=4,
            base_seed=29,
        )
        result = run_noise_suite(spec)
        n_ok = len(result.raw_totals_db[12.0])
        assert n_ok + result.failures[12.0] == 4

    def test_rows_export(self):
        spec = NoiseSuiteSpec(
            method="vmd", signal="s2", snr_grid_db=(24.0, 12.0), n_realizations=2, base_seed=0
        )
        rows = run_noise_suite(spec).to_rows()
        assert [r["snr_db"] for r in rows] == [24.0, 12.0]
        assert all(r["std_db"] >= 0 for r in rows)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSuiteSpec(method="vmd", signal="s1", n_realizations=1)
        with pytest.raises(ValueError):
            NoiseSuiteSpec(method="vmd", signal="s1", snr_grid_db=())
        with pytest.raises(ValueError):
            NoiseSuiteSpec(method="vmd", signal="s1", snr_grid_db=(12.0, 3.0, 12.0))


class TestParamSweep:
    def test_vmd_alpha_rows(self):
        rows = run_param_sweep("vmd", "alpha", [100.0, 500.0], "s1")
        totals = [r["total_qrf_db"] for r in rows]
        assert all(t > 60 for t in totals)

    def test_invalid_value_recorded_not_raised(self):
        rows = run_param_sweep("vmd", "alpha", [-1.0, 500.0], "s1")
        assert "error" in rows[0]
        assert rows[1]["total_qrf_db"] > 60


class TestAlignmentSuite:
    def test_methods_dispatch(self):
        assert run_alignment_suite("mvmd", 40.0, base_seed=0).passed
        assert not run_alignment_suite("vmd-channelwise", 40.0, base_seed=0).passed

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_alignment_suite("emd", 40.0)


class TestProbeContract:
    def test_probe_sites_exist(self, monkeypatch):
        # perfbench wraps these attributes by name; a missing one breaks `--trace 1`
        path = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"
        spec = importlib.util.spec_from_file_location("perfbench_probes", path)
        probes = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, probes)  # dataclasses look their module up
        spec.loader.exec_module(probes)
        sites = [site[:2] for site in probes.LAYER_SITES + probes.ENTRY_SITES]
        assert sites
        missing = [
            f"{module}.{attr}"
            for module, attr in sites
            if not hasattr(importlib.import_module(module), attr)
        ]
        assert missing == []
        assert hasattr(importlib.import_module("sigdecomp._accel"), "NUMBA_ENABLED")

    def test_vncmd_solve_probe_counts_every_solve(self, monkeypatch):
        # perfbench counts VNCMD's envelope solves at this attribute: a solve
        # that bypassed it would make the layer's counters read zero
        calls = []
        solve = variational.solve_banded

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(variational, "solve_banded", counted)
        t = np.arange(256) / 64.0
        x = Signal(np.cos(2 * np.pi * 5.0 * t) + 0.5 * np.cos(2 * np.pi * 14.0 * t), 64.0)
        cfg = VncmdConfig(K=2, init_if_hz=(5.0, 14.0))
        _, report = variational.vncmd_decompose(x, cfg)
        assert report.iterations > 0
        assert len(calls) == cfg.K * (report.iterations + 1)  # one sweep before the iterations
