import json
import subprocess
import sys

import numpy as np
import pytest

from sigdecomp.core import MultichannelSignal, Signal
from sigdecomp.io import (
    CsvFormatError,
    read_csv_signal,
    read_decomposition,
    write_decomposition,
    write_signals_csv,
)
from sigdecomp.metrics import qrf
from sigdecomp.variational import VmdConfig, vmd_decompose


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "sigdecomp", *args], capture_output=True, text=True, cwd=cwd
    )


class TestCsvRoundTrip:
    def test_exact_roundtrip(self, tmp_path, rng):
        x = rng.normal(size=257)
        path = tmp_path / "sig.csv"
        write_signals_csv(path, {"x": x}, 123.456)
        loaded = read_csv_signal(path)
        assert isinstance(loaded, Signal)
        assert loaded.sample_rate_hz == 123.456
        assert np.array_equal(loaded.samples, x)  # repr round-trip is bit exact

    def test_multichannel_roundtrip(self, tmp_path, rng):
        a, b = rng.normal(size=64), rng.normal(size=64)
        path = tmp_path / "mv.csv"
        write_signals_csv(path, {"ch1": a, "ch2": b}, 64.0)
        loaded = read_csv_signal(path)
        assert isinstance(loaded, MultichannelSignal)
        assert np.array_equal(loaded.channels[0], a)
        assert np.array_equal(loaded.channels[1], b)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# sample_rate=10.0\na,b\n1.0,2.0\n3.0\n")
        with pytest.raises(CsvFormatError, match="line 4"):
            read_csv_signal(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# sample_rate=10.0\na\n1.0\nfoo\n2.0\n")
        with pytest.raises(CsvFormatError, match="line 4"):
            read_csv_signal(path)

    def test_missing_rate_rejected(self, tmp_path):
        path = tmp_path / "norate.csv"
        path.write_text("a\n1.0\n2.0\n")
        with pytest.raises(CsvFormatError, match="sample_rate"):
            read_csv_signal(path)
        # explicit rate rescues the file
        assert read_csv_signal(path, 5.0).sample_rate_hz == 5.0

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            read_csv_signal(path)


class TestDecompositionBundle:
    def test_manifest_roundtrip_preserves_modes(self, tmp_path):
        fs = 512.0
        t = np.arange(512) / fs
        x = Signal(np.cos(2 * np.pi * 10 * t) + np.cos(2 * np.pi * 60 * t), fs)
        d, _ = vmd_decompose(x, VmdConfig(K=2, alpha=500.0, tau=0.5))
        manifest = write_decomposition(d, tmp_path / "out", method="vmd", config=VmdConfig(K=2), original=x)
        assert manifest["n_modes"] == 2
        loaded, manifest2 = read_decomposition(tmp_path / "out")
        assert manifest2["method"] == "vmd"
        for orig, back in zip(d.modes, loaded.modes):
            assert qrf(back, orig) == 300.0  # bit-exact file round trip

    def test_residual_only_bundle(self, tmp_path):
        fs = 64.0
        x = Signal(np.linspace(0, 1, 64), fs)
        from sigdecomp.core import Decomposition

        d = Decomposition(modes=(), residual=x)
        manifest = write_decomposition(d, tmp_path / "res", method="emd")
        assert manifest["mode_files"] == []
        loaded, _ = read_decomposition(tmp_path / "res")
        assert np.array_equal(loaded.residual.samples, x.samples)


class TestCliContract:
    def test_success_exit_zero(self, tmp_path):
        r = run_cli("synth", "--signal", "s2", "--out", str(tmp_path / "s2.csv"))
        assert r.returncode == 0
        sig = read_csv_signal(tmp_path / "s2.csv")
        assert sig.n_samples == 512 if isinstance(sig, MultichannelSignal) else len(sig) == 512

    def test_usage_error_exit_two(self):
        r = run_cli("decompose", "--method", "vmd")  # missing --input
        assert r.returncode == 2

    def test_unknown_method_exit_two(self, tmp_path):
        r = run_cli("decompose", "--method", "nope", "--input", "x.csv")
        assert r.returncode == 2

    def test_numerical_failure_exit_three(self, tmp_path):
        synth = run_cli("synth", "--signal", "s1", "--out", str(tmp_path / "s1.csv"))
        assert synth.returncode == 0
        r = run_cli(
            "decompose", "--method", "vncmd", "--init-if", "30,50,85",
            "--alpha", "0.001", "--mu", "0.2",
            "--input", str(tmp_path / "s1.csv"), "--outdir", str(tmp_path / "x"),
        )
        assert r.returncode == 3

    @pytest.mark.parametrize("flags", [("--alpha", "-5"), ("--alpha", "0"), ("--k", "0")])
    def test_mvmd_invalid_flag_exit_two(self, tmp_path, flags):
        mv = tmp_path / "mv.csv"
        assert run_cli("synth", "--signal", "mv", "--duration", "0.25", "--out", str(mv)).returncode == 0
        r = run_cli("decompose", "--method", "mvmd", "--input", str(mv), "--outdir", str(tmp_path / "d"), *flags)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "d" / "manifest.json").exists()

    def test_mvmd_manifest_records_given_flags(self, tmp_path):
        mv = tmp_path / "mv.csv"
        assert run_cli("synth", "--signal", "mv", "--duration", "0.25", "--out", str(mv)).returncode == 0
        r = run_cli("decompose", "--method", "mvmd", "--input", str(mv), "--outdir", str(tmp_path / "d"), "--k", "2")
        assert r.returncode == 0
        config = json.loads((tmp_path / "d" / "manifest.json").read_text())["config"]
        assert (config["K"], config["alpha"], config["tau"]) == (2, 500.0, 0.0)

    def test_vmd_odd_length_csv_exit_zero(self, tmp_path):
        t = np.arange(511) / 512.0
        write_signals_csv(tmp_path / "x.csv", {"x": np.cos(2 * np.pi * 20 * t) + np.cos(2 * np.pi * 60 * t)}, 512.0)
        r = run_cli("decompose", "--method", "vmd", "--k", "2", "--input", str(tmp_path / "x.csv"), "--outdir", str(tmp_path / "d"))
        assert r.returncode == 0, r.stderr
        d, _ = read_decomposition(tmp_path / "d")
        assert [len(m) for m in d.modes] == [511, 511]

    def test_init_if_with_k_exit_zero(self, tmp_path):
        assert run_cli("synth", "--signal", "s1", "--out", str(tmp_path / "s1.csv")).returncode == 0
        r = run_cli(
            "decompose", "--method", "vncmd", "--k", "2", "--init-if", "30,50",
            "--input", str(tmp_path / "s1.csv"), "--outdir", str(tmp_path / "d"),
        )
        assert r.returncode == 0, r.stderr
        config = json.loads((tmp_path / "d" / "manifest.json").read_text())["config"]
        assert (config["K"], config["init_if_hz"]) == (2, [30.0, 50.0])

    def test_manifest_records_overridden_config(self, tmp_path):
        assert run_cli("synth", "--signal", "s1", "--out", str(tmp_path / "s1.csv")).returncode == 0
        r = run_cli(
            "decompose", "--method", "vmd", "--k", "5", "--alpha", "100",
            "--input", str(tmp_path / "s1.csv"), "--outdir", str(tmp_path / "d"),
        )
        assert r.returncode == 0, r.stderr
        _, manifest = read_decomposition(tmp_path / "d")
        assert (manifest["config"]["K"], manifest["config"]["alpha"]) == (5, 100.0)
        assert manifest["config"]["tau"] == 0.5  # untouched fields keep the recipe's value
        assert manifest["n_modes"] == 5

    def test_column_out_of_range_exit_two(self, tmp_path):
        mv = tmp_path / "mv.csv"
        assert run_cli("synth", "--signal", "mv", "--duration", "0.25", "--out", str(mv)).returncode == 0
        r = run_cli("decompose", "--method", "vmd", "--input", str(mv), "--outdir", str(tmp_path / "d"), "--column", "5")
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert "--column" in r.stderr

    def test_io_failure_exit_four(self, tmp_path):
        r = run_cli("decompose", "--method", "vmd", "--input", str(tmp_path / "missing.csv"))
        assert r.returncode == 4

    def test_pipeline_synth_decompose_tf(self, tmp_path):
        assert run_cli("synth", "--signal", "s1", "--out", str(tmp_path / "s1.csv")).returncode == 0
        r = run_cli(
            "decompose", "--method", "vmd", "--k", "3",
            "--input", str(tmp_path / "s1.csv"), "--outdir", str(tmp_path / "dec"),
        )
        assert r.returncode == 0
        manifest = json.loads((tmp_path / "dec" / "manifest.json").read_text())
        assert manifest["n_modes"] == 3
        assert len(manifest["center_freqs_hz"]) == 3
        r = run_cli("tf", "--indir", str(tmp_path / "dec"), "--out", str(tmp_path / "g.csv"), "--bins", "32")
        assert r.returncode == 0
        header = (tmp_path / "g.csv").read_text().splitlines()[0]
        assert header.startswith("time_s,")
        assert len(header.split(",")) == 33  # time column + 32 frequency bins

    def test_bench_sweep_cli(self, tmp_path):
        out = tmp_path / "sweep.json"
        r = run_cli(
            "bench", "--suite", "sweep", "--method", "vmd", "--signal", "s1",
            "--param", "alpha", "--values", "100,500", "--out", str(out),
        )
        assert r.returncode == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["error"] is None

    def test_bench_sweep_invalid_value_recorded(self, tmp_path):
        out = tmp_path / "sweep.json"
        r = run_cli(
            "bench", "--suite", "sweep", "--method", "vmd", "--signal", "s1",
            "--param", "alpha", "--values=-5,500", "--out", str(out),
        )
        assert r.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["error"] is not None
        assert payload["rows"][1]["error"] is None

    def test_align_cli(self, tmp_path):
        out = tmp_path / "align.json"
        r = run_cli("align", "--method", "mvmd", "--snr", "40", "--out", str(out))
        assert r.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
