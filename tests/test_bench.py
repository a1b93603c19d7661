import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from sigdecomp.bench import (
    NoiseSuiteSpec,
    decompose,
    default_configs,
    match_or_empty,
    run_accuracy,
    run_alignment_suite,
    run_noise_suite,
    run_param_sweep,
)
from sigdecomp.core import Signal
from sigdecomp.multivariate import MemdConfig, MvmdConfig


class TestRecipes:
    def test_every_method_has_both_signal_recipes(self):
        for method in ("emd", "vmd", "vncmd", "sst", "ssa"):
            for sig in ("s1", "s2"):
                cfgs = default_configs(method, sig)
                assert "cfg" in cfgs

    def test_multichannel_recipes_are_the_class_defaults(self):
        assert default_configs("memd", "mv") == {"cfg": MemdConfig()}
        assert default_configs("mvmd", "mv") == {"cfg": MvmdConfig()}

    def test_noisy_flag_zeroes_tau(self):
        assert default_configs("vmd", "s1", noisy=True)["cfg"].tau == 0.0
        assert default_configs("vmd", "s1", noisy=False)["cfg"].tau == 0.5

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            default_configs("wavelets", "s1")

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
        d = decompose("emd", ramp, "s1")
        report = match_or_empty(list(d.modes), [Signal(np.sin(2 * np.pi * t), 256.0)])
        assert len(report.assignment) == 0
        assert report.total_qrf_db == 0.0

    def test_returns_tf_grid(self):
        report, grid = run_accuracy("vmd", "s2")
        assert grid.energy.shape[0] == 256
        assert grid.total_energy > 0


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
