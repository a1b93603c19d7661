import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sigdecomp import bench, cli
from sigdecomp import io as sdio
from sigdecomp.core import ContractViolation, Decomposition, MultichannelSignal, NumericalFailure, Signal
from sigdecomp.io import (
    CsvFormatError,
    read_csv_signal,
    read_decomposition,
    write_decomposition,
    write_signals_csv,
)
from sigdecomp.metrics import qrf
from sigdecomp.multivariate import AlignedDecomposition, MvmdConfig, mvmd_decompose
from sigdecomp.spectral import TFGrid, hilbert_spectrum
from sigdecomp.synth import gen_mv_test
from sigdecomp.sst import SstConfig, sst_decompose
from sigdecomp.variational import VmdConfig, VncmdConfig, vmd_decompose, vncmd_decompose


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "sigdecomp", *args], capture_output=True, text=True, cwd=cwd
    )


def main(*args) -> int:
    """The CLI in this process (exceptions surface as test errors)."""
    return cli.main([str(a) for a in args])


@pytest.fixture()
def mv_csv(tmp_path):
    path = tmp_path / "mv.csv"
    assert main("synth", "--signal", "mv", "--duration", "0.25", "--out", path) == 0
    return path


@pytest.fixture()
def s1_csv(tmp_path):
    path = tmp_path / "s1.csv"
    assert main("synth", "--signal", "s1", "--out", path) == 0
    return path


def huge_tones(n, period=3.0):
    """Two tones near 1e300: finite, but their squares overflow."""
    t = np.arange(float(n))
    return 1e300 * np.sin(t / period) + 1e299 * np.sin(t / 1.3)


def bundle_arrays(outdir):
    """Every mode and residual array of a written bundle."""
    d, _ = read_decomposition(outdir)
    if isinstance(d, AlignedDecomposition):
        return [m.samples for ms in d.channel_modes for m in ms] + [r.samples for r in d.residuals]
    return [m.samples for m in d.modes] + [d.residual.samples]


def manifest_of(outdir):
    return json.loads((outdir / "manifest.json").read_text())


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

    @pytest.mark.parametrize("cell", ["nan", "1e400", "-inf"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"# sample_rate=10.0\na\n1.0\n{cell}\n2.0\n")
        with pytest.raises(CsvFormatError, match="line 4: non-finite"):
            read_csv_signal(path)

    def test_missing_rate_rejected(self, tmp_path):
        path = tmp_path / "norate.csv"
        path.write_text("a\n1.0\n2.0\n")
        with pytest.raises(CsvFormatError, match="sample_rate"):
            read_csv_signal(path)
        # explicit rate rescues the file
        assert read_csv_signal(path, 5.0).sample_rate_hz == 5.0

    @pytest.mark.parametrize("rate", ["nan", "inf", "0", "-5"])
    def test_bad_sample_rate_header_names_line(self, tmp_path, capsys, rate):
        path = tmp_path / "bad.csv"
        path.write_text(f"# sample_rate={rate}\nx\n1.0\n2.0\n3.0\n4.0\n")
        for override in (None, 5.0):
            with pytest.raises(CsvFormatError, match="line 1: sample_rate"):
                read_csv_signal(path, override)
        assert main("tf", "--input", path, "--out", tmp_path / "g.csv") == 4
        assert main("tf", "--input", path, "--fs", "5", "--out", tmp_path / "g.csv") == 4
        assert capsys.readouterr().err.count("line 1: sample_rate") == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            read_csv_signal(path)


def reference_signals_csv(path, columns, sample_rate_hz):
    """The reference writer: ``repr(float(v))`` on every numpy cell."""
    arrays = [np.asarray(a, dtype=np.float64) for a in columns.values()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# sample_rate={float(sample_rate_hz)!r}\n")
        fh.write(",".join(columns) + "\n")
        for row in zip(*arrays):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def edge_column(rng, n=64):
    """Normal samples with ``-0.0``, ``0.0``, subnormals and ``±1.7e308`` mixed in."""
    x = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    specials = [-0.0, 0.0, 5e-324, -5e-324, np.nextafter(2.2250738585072014e-308, 0.0), 1.7e308, -1.7e308]
    x[rng.choice(n, size=len(specials), replace=False)] = specials
    return x


@st.composite
def finite_columns(draw):
    n_cols, n_rows = draw(st.integers(1, 3)), draw(st.integers(2, 40))
    cells = st.floats(allow_nan=False, allow_infinity=False, width=64)
    return [draw(hnp.arrays(np.float64, n_rows, elements=cells)) for _ in range(n_cols)]


class TestSignalCsvWriter:
    """The signal writer against the loop that formats numpy scalars."""

    @pytest.mark.parametrize("n_cols", [1, 2, 3])
    def test_matches_reference_writer(self, tmp_path, rng, n_cols):
        columns = {f"c{i}": edge_column(rng) for i in range(n_cols)}
        write_signals_csv(tmp_path / "new.csv", columns, 256.0)
        reference_signals_csv(tmp_path / "ref.csv", columns, 256.0)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 4, 7])  # 0, 1, B - 1, B, B + 1, 2B + 1 at B = 3
    @pytest.mark.parametrize("n_cols", [1, 2, 3, 4])
    def test_matches_reference_across_blocks(self, tmp_path, rng, monkeypatch, n_cols, n_rows):
        monkeypatch.setattr(sdio, "_BLOCK_ROWS", 3, raising=False)
        columns = {f"c{i}": edge_column(rng)[:n_rows] for i in range(n_cols)}
        write_signals_csv(tmp_path / "new.csv", columns, 256.0)
        reference_signals_csv(tmp_path / "ref.csv", columns, 256.0)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_working_set_bounded_by_a_block(self, tmp_path, monkeypatch):
        """Text is formatted a block of rows at a time, so the peak does not
        grow with the file; blocks of 2**10 rows keep the files small."""
        monkeypatch.setattr(sdio, "_BLOCK_ROWS", 2**10)

        def peak(n_rows):
            columns = {f"c{i}": np.random.default_rng(i).normal(size=n_rows) for i in range(4)}
            tracemalloc.start()
            try:
                write_signals_csv(tmp_path / "x.csv", columns, 256.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2**14) <= 1.25 * peak(2**11)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(columns=finite_columns())
    def test_round_trip_is_bit_exact(self, columns):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            write_signals_csv(path, {f"c{i}": a for i, a in enumerate(columns)}, 100.0)
            loaded = read_csv_signal(path)
        back = np.atleast_2d(loaded.samples if isinstance(loaded, Signal) else loaded.channels)
        assert np.array_equal(back.view(np.int64), np.array(columns).view(np.int64))  # -0.0 too

    def test_one_repr_per_cell_and_rate(self, tmp_path, rng, monkeypatch):
        calls = []

        def counted_repr(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(sdio, "repr", counted_repr, raising=False)
        write_signals_csv(tmp_path / "x.csv", {"a": rng.normal(size=50), "b": rng.normal(size=50)}, 10.0)
        assert len(calls) == 2 * 50 + 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_rejected_before_open(self, tmp_path, bad):
        path = tmp_path / "x.csv"
        with pytest.raises(ContractViolation, match="column 'y'"):
            write_signals_csv(path, {"x": [1.0, 2.0, 3.0], "y": [1.0, bad, 2.0]}, 10.0)
        assert not path.exists()

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -10.0])
    def test_bad_rate_rejected_before_open(self, tmp_path, rate):
        path = tmp_path / "x.csv"
        with pytest.raises(ContractViolation, match="sample_rate_hz"):
            write_signals_csv(path, {"x": [1.0, 2.0, 3.0]}, rate)
        assert not path.exists()


class TestSignalCsvReader:
    """Error contract and layout cases of the signal reader."""

    def read_text(self, tmp_path, text, rate=None, encoding="utf-8"):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode(encoding))
        return read_csv_signal(path, rate)

    def test_crlf_line_endings(self, tmp_path):
        x = self.read_text(tmp_path, "# sample_rate=10.0\r\na,b\r\n1.0,2.0\r\n3.0,4.0\r\n")
        assert x.sample_rate_hz == 10.0 and x.channels.tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_lone_cr_line_endings(self, tmp_path):
        x = self.read_text(tmp_path, "# sample_rate=10.0\ra,b\r1.0,2.0\r3.0,4.0\r")
        assert x.sample_rate_hz == 10.0 and x.channels.tolist() == [[1.0, 3.0], [2.0, 4.0]]
        with pytest.raises(CsvFormatError, match="line 4: non-numeric cell"):
            self.read_text(tmp_path, "# sample_rate=10.0\ra\r1.0\rfoo\r2.0\r")

    def test_whitespace_only_lines(self, tmp_path):
        text = "# sample_rate=10.0\n \t\na\n1.0\n\t\n2.0\n   \n3.0\n \n"
        assert self.read_text(tmp_path, text).samples.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(CsvFormatError, match="line 6: non-numeric cell"):
            self.read_text(tmp_path, "# sample_rate=10.0\n \t\na\n1.0\n\t\nfoo\n2.0\n")

    def test_last_line_without_newline(self, tmp_path):
        assert self.read_text(tmp_path, "# sample_rate=10.0\na\n1.0\n2.0").samples.tolist() == [1.0, 2.0]
        with pytest.raises(CsvFormatError, match="line 4: expected 1 cells, found 2"):
            self.read_text(tmp_path, "# sample_rate=10.0\na\n1.0\n2.0,3.0")

    def test_rate_line_below_the_data(self, tmp_path):
        x = self.read_text(tmp_path, "a\n1.0\n2.0\n# sample_rate=20.0\n3.0\n")
        assert x.sample_rate_hz == 20.0 and x.samples.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(CsvFormatError, match="line 4: sample_rate header must be a positive finite number"):
            self.read_text(tmp_path, "a\n1.0\n2.0\n# sample_rate=-1\n3.0\n")
        with pytest.raises(CsvFormatError, match="line 5: bad sample_rate header"):
            self.read_text(tmp_path, "# sample_rate=10.0\na\n1.0\n2.0\n# sample_rate=abc\n")

    def test_blank_and_comment_lines_mid_file(self, tmp_path):
        text = "# sample_rate=10.0\na\n1.0\n\n# note\n2.0\n   \n3.0\n"
        assert self.read_text(tmp_path, text).samples.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(CsvFormatError, match="line 7: non-numeric cell"):
            self.read_text(tmp_path, "# sample_rate=10.0\na\n1.0\n\n# note\n2.0\nfoo\n")
        with pytest.raises(CsvFormatError, match="line 6: expected 1 cells, found 2"):
            self.read_text(tmp_path, "# sample_rate=10.0\na\n1.0\n\n# note\n2.0,3.0\n4.0\n")

    @pytest.mark.parametrize(
        "row, message",
        [("1.0,", "expected 1 cells, found 2"), ("1.0,,", "expected 1 cells, found 3")],
    )
    def test_trailing_comma(self, tmp_path, row, message):
        with pytest.raises(CsvFormatError, match=f"line 4: {message}"):
            self.read_text(tmp_path, f"# sample_rate=10.0\na\n1.0\n{row}\n2.0\n")

    @pytest.mark.parametrize("row", ["1.0,,2.0", ",1.0,2.0", "1.0,2.0,", "1.0, ,2.0"])
    def test_empty_cell(self, tmp_path, row):
        with pytest.raises(CsvFormatError, match="line 4: non-numeric cell"):
            self.read_text(tmp_path, f"# sample_rate=10.0\na,b,c\n1.0,2.0,3.0\n{row}\n")

    def test_header_only_file(self, tmp_path):
        with pytest.raises(CsvFormatError, match="no data rows"):
            self.read_text(tmp_path, "# sample_rate=10.0\na,b\n")

    def test_every_row_short_of_the_names(self, tmp_path):
        with pytest.raises(CsvFormatError, match="line 3: expected 2 cells, found 1"):
            self.read_text(tmp_path, "# sample_rate=10.0\na,b\n1.0\n2.0\n")

    def test_numeric_first_row_is_data(self, tmp_path):
        x = self.read_text(tmp_path, "1.0,2.0\n3.0,4.0\n5.0,6.0\n", rate=5.0)
        assert x.channels.tolist() == [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]
        with pytest.raises(CsvFormatError, match="line 2: expected 2 cells, found 3"):
            self.read_text(tmp_path, "1.0,2.0\n3.0,4.0,5.0\n", rate=5.0)

    def test_byte_order_mark_before_data(self, tmp_path):
        x = self.read_text(tmp_path, "1.0\n2.0\n3.0\n4.0\n", rate=10.0, encoding="utf-8-sig")
        assert x.samples.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_byte_order_mark_before_rate_header(self, tmp_path):
        x = self.read_text(tmp_path, "# sample_rate=10.0\na,b\n1.0,2.0\n3.0,4.0\n", encoding="utf-8-sig")
        assert x.sample_rate_hz == 10.0 and x.channels.tolist() == [[1.0, 3.0], [2.0, 4.0]]

    @pytest.mark.parametrize("cell", ["1_0", "١", "1.0٢"])
    def test_number_syntax_is_numpys(self, tmp_path, cell):
        # Python's float() reads these (1_0 as 10.0); numpy's parser does not
        with pytest.raises(CsvFormatError, match="line 4: non-numeric cell"):
            self.read_text(tmp_path, f"# sample_rate=10.0\na\n1.0\n{cell}\n2.0\n")

    @pytest.mark.parametrize("cell", [" 2.0", "+2.0", "2.", ".2e1", "2E0", "20e-1"])
    def test_number_forms_read(self, tmp_path, cell):
        assert self.read_text(tmp_path, f"# sample_rate=10.0\na,b\n1.0,{cell}\n3.0,4.0\n").channels[1, 0] == 2.0


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

    @pytest.mark.parametrize("method", ["sst", "vncmd", "sst-one-mode", "vmd"])
    def test_if_tracks_roundtrip(self, tmp_path, method):
        fs = 256.0
        t = np.arange(512) / fs
        x = Signal(np.cos(2 * np.pi * 20 * t) + 0.5 * np.cos(2 * np.pi * 70 * t), fs)
        if method == "sst":
            d = sst_decompose(x, SstConfig(K=2))
        elif method == "sst-one-mode":
            d = sst_decompose(x, SstConfig(K=1))
        elif method == "vncmd":
            d, _ = vncmd_decompose(x, VncmdConfig(K=2, init_if_hz=(20.0, 70.0)))
        else:
            d, _ = vmd_decompose(x, VmdConfig(K=2))
        write_decomposition(d, tmp_path / "d", method=method)
        loaded, manifest = read_decomposition(tmp_path / "d")
        if d.if_tracks_hz is None:
            assert loaded.if_tracks_hz is None and manifest["if_tracks_file"] is None
            return
        assert len(loaded.if_tracks_hz) == d.n_modes
        for orig, back in zip(d.if_tracks_hz, loaded.if_tracks_hz):
            assert np.array_equal(orig, back)

    def test_if_tracks_shape_mismatch_is_format_error(self, tmp_path):
        fs = 256.0
        x = Signal(np.cos(2 * np.pi * 20 * np.arange(256) / fs), fs)
        write_decomposition(sst_decompose(x, SstConfig(K=1)), tmp_path)
        write_signals_csv(tmp_path / "if_tracks.csv", {"a": np.ones(256), "b": np.ones(256)}, fs)
        with pytest.raises(CsvFormatError, match="shape"):
            read_decomposition(tmp_path)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_mode_file_rate_mismatch_is_format_error(self, tmp_path, channels):
        x, _ = gen_mv_test(duration_s=0.25)
        d, _ = mvmd_decompose(x, MvmdConfig())
        write_decomposition(d if channels == 2 else d.channel(0), tmp_path)
        columns = {f"ch{c + 1}": d.channel_modes[c][1].samples for c in range(channels)}
        write_signals_csv(tmp_path / "mode_02.csv", columns, 2 * x.sample_rate_hz)
        with pytest.raises(CsvFormatError, match="rate"):
            read_decomposition(tmp_path)

    def test_residual_only_bundle(self, tmp_path):
        fs = 64.0
        x = Signal(np.linspace(0, 1, 64), fs)
        from sigdecomp.core import Decomposition

        d = Decomposition(modes=(), residual=x)
        manifest = write_decomposition(d, tmp_path / "res", method="emd")
        assert manifest["mode_files"] == []
        loaded, _ = read_decomposition(tmp_path / "res")
        assert np.array_equal(loaded.residual.samples, x.samples)


    def test_multichannel_roundtrip(self, tmp_path):
        x, _ = gen_mv_test(duration_s=0.25)
        d, _ = mvmd_decompose(x, MvmdConfig())
        written = write_decomposition(d, tmp_path / "mv", method="mvmd", config=MvmdConfig(), original=x)
        loaded, manifest = read_decomposition(tmp_path / "mv")
        assert isinstance(loaded, AlignedDecomposition)
        assert manifest == json.loads(json.dumps(written))
        assert manifest["n_channels"] == 2
        assert manifest["reconstruction_error"] < 1e-9
        assert loaded.center_freqs_hz == d.center_freqs_hz
        for c in range(2):
            for orig, back in zip(d.channel_modes[c] + (d.residuals[c],), loaded.channel_modes[c] + (loaded.residuals[c],)):
                assert np.array_equal(orig.samples, back.samples)

    def test_both_kinds_share_manifest_keys(self, tmp_path):
        x, _ = gen_mv_test(duration_s=0.25)
        d, _ = mvmd_decompose(x, MvmdConfig())
        multi = write_decomposition(d, tmp_path / "mv", original=x)
        single = write_decomposition(d.channel(0), tmp_path / "one", original=x.channel(0))
        assert list(multi) == list(single)
        assert single["n_channels"] == 1

    @pytest.mark.parametrize("manifest", ["{}", "[]", "not json", '{"mode_files": 3, "residual_file": "r.csv"}'])
    def test_bad_manifest_is_format_error(self, tmp_path, manifest):
        (tmp_path / "manifest.json").write_text(manifest)
        with pytest.raises(CsvFormatError):
            read_decomposition(tmp_path)

    def test_mode_file_shape_mismatch_is_format_error(self, tmp_path):
        x, _ = gen_mv_test(duration_s=0.25)
        d, _ = mvmd_decompose(x, MvmdConfig())
        write_decomposition(d, tmp_path)
        write_signals_csv(tmp_path / "mode_02.csv", {"ch1": d.channel_modes[0][1].samples}, x.sample_rate_hz)
        with pytest.raises(CsvFormatError, match="shape"):
            read_decomposition(tmp_path)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_mode_file_rate_mismatch_is_format_error(self, tmp_path, channels):
        x, _ = gen_mv_test(duration_s=0.25)
        d, _ = mvmd_decompose(x, MvmdConfig())
        write_decomposition(d if channels == 2 else d.channel(0), tmp_path)
        columns = {f"ch{c + 1}": d.channel_modes[c][1].samples for c in range(channels)}
        write_signals_csv(tmp_path / "mode_02.csv", columns, 2 * x.sample_rate_hz)
        with pytest.raises(CsvFormatError, match="rate"):
            read_decomposition(tmp_path)


def dense_tfgrid_csv(path, grid):
    """The reference writer: ``repr`` on every cell."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time_s," + ",".join(repr(float(f)) for f in grid.freqs_hz) + "\n")
        for j, t in enumerate(grid.times_s):
            fh.write(repr(float(t)) + "," + ",".join(repr(float(v)) for v in grid.energy[:, j]) + "\n")


def sparse_energy(rng, shape, density=0.05):
    return np.where(rng.random(shape) < density, rng.exponential(size=shape), 0.0)


def tf_grids(rng):
    """Grids named by what they cover, each one ``(n_freqs, n_times)``."""
    signed_zeros = sparse_energy(rng, (16, 40))
    signed_zeros[rng.random(signed_zeros.shape) < 0.1] = -0.0
    subnormals = sparse_energy(rng, (8, 30))
    subnormals[:, ::3] *= 5e-324 / subnormals.max()  # 0, 5e-324 or a few times that
    subnormals[0, 1] = np.nextafter(2.2250738585072014e-308, 0.0)
    empty_columns = sparse_energy(rng, (12, 25), density=0.3)
    empty_columns[:, [0, 7, 8, 24]] = 0.0
    return {
        "signed_zeros": signed_zeros,
        "subnormals": subnormals,
        "empty_columns": empty_columns,
        "all_zero": np.zeros((5, 6)),
        "dense": rng.random((17, 23)) * 10.0 ** rng.integers(-300, 300, size=(17, 23)),
        "one_by_one": np.array([[0.1]]),
        "one_by_one_negative_zero": np.array([[-0.0]]),
        "two_rows": sparse_energy(rng, (2, 50), density=0.5),
    }


class TestTfGridCsv:
    """The T-F grid writer against the dense loop that formats every cell."""

    @pytest.mark.parametrize("name", list(tf_grids(np.random.default_rng(0))))
    def test_matches_dense_writer(self, tmp_path, rng, name):
        energy = tf_grids(rng)[name]
        n_f, n_t = energy.shape
        grid = TFGrid(np.arange(n_t) / 7.0, np.linspace(0.0, 50.0, n_f), energy)
        sdio.write_tfgrid_csv(tmp_path / "grid.csv", grid)
        dense_tfgrid_csv(tmp_path / "dense.csv", grid)
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()

    def test_cli_grid_formats_only_nonzero_cells(self, tmp_path, s1_csv, monkeypatch):
        # the cli_roundtrip chain: vmd on s1, then a 256-bin grid
        assert main("decompose", "--method", "vmd", "--input", s1_csv, "--outdir", tmp_path / "vmd") == 0
        d, _ = read_decomposition(tmp_path / "vmd")
        grid = hilbert_spectrum(d, 256, d.residual.sample_rate_hz / 2.0)
        calls = []

        def counted_repr(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(sdio, "repr", counted_repr, raising=False)
        assert main("tf", "--indir", tmp_path / "vmd", "--out", tmp_path / "grid.csv", "--bins", 256) == 0
        monkeypatch.undo()
        dense_tfgrid_csv(tmp_path / "dense.csv", grid)
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()
        n_f, n_t = grid.energy.shape
        assert len(calls) == n_f + n_t + np.count_nonzero(grid.energy) < n_f * n_t / 50


#: runs each argv list (JSON) through ``cli.main`` in a fresh interpreter
#: and prints, after the import and after each command, the exit code and
#: whether scipy's LAPACK extension and ``scipy.linalg`` are loaded
SCIPY_PROBE = """
import json, sys
from sigdecomp import cli
def loaded():
    return ["scipy.linalg._flapack" in sys.modules, "scipy.linalg" in sys.modules]
states = [[None, *loaded()]]
for argv in json.loads(sys.argv[1]):
    states.append([cli.main(argv), *loaded()])
print(json.dumps(states))
"""

#: in the order given by its argument, takes the LAPACK routines from
#: ``_kernels.lapack()`` and from ``scipy.linalg.lapack``, and prints whether
#: they are the same objects and whether the kernels' load left
#: ``scipy.linalg`` unimported
IDENTITY_PROBE = """
import json, sys
from sigdecomp import _kernels
if sys.argv[1] == "scipy-first":
    from scipy.linalg import lapack
ours = _kernels.lapack()
alone = "scipy.linalg" not in sys.modules
from scipy.linalg import lapack
print(json.dumps([ours.dgtsv is lapack.dgtsv, ours.dgbsv is lapack.dgbsv, alone]))
"""


def child_env() -> dict:
    """This environment, with the tested package first on the path."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    paths = [package_root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def run_probe(cwd, script, arg) -> list:
    """The JSON that ``script`` prints last, run on ``arg`` in a fresh interpreter."""
    r = subprocess.run([sys.executable, "-c", script, arg], capture_output=True, text=True, cwd=cwd, env=child_env())
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def scipy_states(cwd, commands):
    """``[exit code, LAPACK loaded, scipy.linalg loaded]`` after the import and each command."""
    return run_probe(cwd, SCIPY_PROBE, json.dumps(commands))


class TestScipyOnFirstSolve:
    """scipy's LAPACK extension is loaded alone by the first banded solve,
    not by the import, and no command imports ``scipy.linalg``."""

    def test_only_banded_solves_load_scipy(self, tmp_path):
        decompose = ["decompose", "--signal-profile", "s2", "--input", "s2.csv", "--method"]
        commands = [
            ["synth", "--signal", "s2", "--out", "s2.csv"],
            ["synth", "--signal", "mv", "--duration", "0.25", "--out", "mv.csv"],
            [*decompose, "vmd", "--outdir", "vmd"],
            [*decompose, "sst", "--outdir", "sst"],
            [*decompose, "ssa", "--outdir", "ssa"],
            ["decompose", "--method", "mvmd", "--input", "mv.csv", "--outdir", "mvmd"],
            ["tf", "--indir", "vmd", "--out", "grid.csv"],
            ["tf", "--input", "s2.csv", "--out", "self.csv"],
            [*decompose, "emd", "--outdir", "emd"],  # the spline kernel's dgtsv
        ]
        states = scipy_states(tmp_path, commands)
        assert [code for code, _, _ in states[1:]] == [0] * len(commands)
        assert [lapack for _, lapack, _ in states] == [False] * len(commands) + [True]
        assert not any(linalg for _, _, linalg in states)

    def test_vncmd_loads_scipy(self, tmp_path):  # its envelope solve's dgbsv
        commands = [
            ["synth", "--signal", "s2", "--out", "s2.csv"],
            ["decompose", "--method", "vncmd", "--signal-profile", "s2", "--input", "s2.csv", "--outdir", "d"],
        ]
        assert scipy_states(tmp_path, commands) == [[None, False, False], [0, False, False], [0, True, False]]

    def test_memd_loads_scipy(self, tmp_path):  # the spline kernel's dgtsv
        commands = [
            ["synth", "--signal", "mv", "--duration", "0.25", "--out", "mv.csv"],
            ["decompose", "--method", "memd", "--m-directions", "4", "--input", "mv.csv", "--outdir", "d"],
        ]
        assert scipy_states(tmp_path, commands) == [[None, False, False], [0, False, False], [0, True, False]]

    @pytest.mark.parametrize("order", ["kernels-first", "scipy-first"])
    def test_routines_are_scipys_own(self, tmp_path, order):
        assert run_probe(tmp_path, IDENTITY_PROBE, order) == [True, True, order == "kernels-first"]


#: runs ``cli.main`` on its arguments in a fresh interpreter whose address
#: space is capped at 3 GB, so a large allocation is refused in it alone
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))
from sigdecomp import cli
sys.exit(cli.main(sys.argv[1:]))
"""


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

    def test_refused_allocation_exit_three(self, tmp_path):
        """``tf --bins 10000000`` on 512 samples asks numpy for a 38.1 GiB grid,
        which the child's 3 GB cap refuses: one error line, no traceback, no grid."""
        assert main("synth", "--signal", "s2", "--out", tmp_path / "s2.csv") == 0
        assert main("decompose", "--method", "vmd", "--signal-profile", "s2", "--input", tmp_path / "s2.csv",
                    "--outdir", tmp_path / "vmd") == 0
        r = subprocess.run(
            [sys.executable, "-c", CAPPED_CLI, "tf", "--indir", "vmd", "--out", "grid.csv", "--bins", "10000000"],
            capture_output=True, text=True, cwd=tmp_path, env={**child_env(), "OPENBLAS_NUM_THREADS": "1"},
        )
        assert r.returncode == 3
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory: Unable to allocate 38.1 GiB")
        assert not (tmp_path / "grid.csv").exists()

    def test_refused_cwt_exit_three(self, tmp_path):
        """``decompose --method sst`` on 2**18 samples: the recipe's 64 voices per
        octave give ceil(64 * log2(2**18 / 4)) + 1 = 1025 rows, so the complex grid
        and the ridge energy, asked for as one array of three float planes, are
        3 x 1025 x 2**18 doubles, 6.01 GiB, which the child's 3 GB cap refuses
        before any other large array: one error line, no traceback, no manifest."""
        n = 2**18
        write_signals_csv(tmp_path / "long.csv", {"x": np.sin(0.05 * np.arange(n))}, 1000.0)
        r = subprocess.run(
            [sys.executable, "-c", CAPPED_CLI, "decompose", "--method", "sst", "--input", "long.csv", "--outdir", "sst"],
            capture_output=True, text=True, cwd=tmp_path, env={**child_env(), "OPENBLAS_NUM_THREADS": "1"},
        )
        assert r.returncode == 3
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            f"error: out of memory: Unable to allocate 6.01 GiB for an array with shape (3, 1025, {n})"
        )
        assert not (tmp_path / "sst" / "manifest.json").exists()

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

    @pytest.mark.parametrize(
        "flags",
        [
            ("--method", "vmd", "--alpha", "nan"),
            ("--method", "vmd", "--alpha", "inf"),
            ("--method", "vmd", "--tau", "inf"),
            ("--method", "vmd", "--tau", "nan"),
            ("--method", "mvmd", "--alpha", "nan"),
            ("--method", "vncmd", "--init-if", "5", "--mu", "nan"),
            ("--method", "vncmd", "--init-if", "5", "--mu", "inf"),
            ("--method", "vncmd", "--init-if", "5", "--alpha", "inf"),
            ("--method", "vncmd", "--init-if", "5,nan"),
            ("--method", "sst", "--gamma", "nan"),
            ("--method", "sst", "--gamma", "inf"),
            ("--method", "ssa", "--l", "8", "--epsilon", "nan"),
            ("--method", "ssa", "--l", "8", "--epsilon", "inf"),
        ],
    )
    def test_non_finite_config_exit_two(self, tmp_path, capsys, flags):
        t = np.arange(64.0)
        write_signals_csv(tmp_path / "c.csv", {"a": np.sin(t), "b": np.cos(t / 3.0)}, 64.0)
        code = main("decompose", *flags, "--input", tmp_path / "c.csv", "--outdir", tmp_path / "d")
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("alpha", ["1e-320", "1e-308"])
    def test_vncmd_overflowing_smoothing_weight_exit_two(self, tmp_path, capsys, alpha):
        write_signals_csv(tmp_path / "c.csv", {"x": np.sin(np.arange(64.0))}, 64.0)
        code = main("decompose", "--method", "vncmd", "--init-if", "5", "--alpha", alpha,
                    "--input", tmp_path / "c.csv", "--outdir", tmp_path / "d")
        assert code == 2
        assert f"alpha={float(alpha)!r} is too small" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

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

    @pytest.mark.parametrize(
        "method, flags",
        [("memd", ("--k", "7")), ("mvmd", ("--mu", "0.3")), ("mvmd", ("--l", "4")),
         ("mvmd", ("--epsilon", "3")), ("mvmd", ("--seed", "5")), ("ssa", ("--m-directions", "3")),
         ("emd", ("--seed", "0")), ("vmd", ("--seed", "5"))],
    )
    def test_flag_the_method_lacks_exit_two(self, tmp_path, mv_csv, capsys, method, flags):
        code = main("decompose", "--method", method, "--input", mv_csv, "--outdir", tmp_path / "d", *flags)
        assert code == 2
        assert f"{method} has no parameter" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("cell", ["nan", "1e400"])
    def test_non_finite_cell_exit_four(self, tmp_path, capsys, cell):
        rows = [str(v) for v in np.sin(np.arange(64.0))]
        rows[10] = cell  # file line 13, after the rate and name lines
        path = tmp_path / "bad.csv"
        path.write_text("# sample_rate=64.0\nx\n" + "\n".join(rows) + "\n")
        assert main("decompose", "--method", "vmd", "--input", path, "--outdir", tmp_path / "d") == 4
        assert main("tf", "--input", path, "--out", tmp_path / "g.csv") == 4
        assert capsys.readouterr().err.count("line 13: non-finite") == 2

    @pytest.mark.parametrize("method", ["memd", "mvmd"])
    def test_column_with_multichannel_method_exit_two(self, tmp_path, mv_csv, capsys, method):
        code = main("decompose", "--method", method, "--column", "0", "--input", mv_csv, "--outdir", tmp_path / "d")
        assert code == 2
        assert "--column" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "signal, flags",
        [("s1", ("--fs", "1000")), ("s1", ("--duration", "2")), ("s2", ("--fs", "1000")),
         ("s2", ("--duration", "2")), ("s1", ("--seed", "9")), ("mv", ("--seed", "9")),
         ("s2", ("--gap-start", "1")), ("s2", ("--gap-end", "2")), ("s2", ("--no-gap",)),
         ("mv", ("--gap-start", "1")), ("mv", ("--gap-end", "2")), ("mv", ("--no-gap",))],
    )
    def test_synth_flag_the_signal_ignores_exit_two(self, tmp_path, capsys, signal, flags):
        assert main("synth", "--signal", signal, "--out", tmp_path / "x.csv", *flags) == 2
        assert f"{flags[0]} applies to" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "suite, flags",
        [("accuracy", ("--n", "3")), ("accuracy", ("--seed", "4")), ("accuracy", ("--snr-grid", "1,2")),
         ("accuracy", ("--param", "alpha")), ("accuracy", ("--values", "1")), ("noise", ("--param", "alpha")),
         ("noise", ("--values", "1")), ("sweep", ("--n", "3")), ("sweep", ("--seed", "4")),
         ("sweep", ("--snr-grid", "1,2"))],
    )
    def test_bench_flag_the_suite_ignores_exit_two(self, tmp_path, capsys, suite, flags):
        out = tmp_path / "b.json"
        assert main("bench", "--suite", suite, "--method", "vmd", "--signal", "s2", "--out", out, *flags) == 2
        assert f"{flags[0]} applies to" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize("snr", ["5000", "-5000"])
    @pytest.mark.parametrize("command", ["bench", "align"])
    def test_snr_past_float64_exit_two(self, tmp_path, capsys, command, snr):
        out = tmp_path / "b.json"
        if command == "bench":
            flags = ("--suite", "noise", "--method", "ssa", "--signal", "s2", "--n", "2", f"--snr-grid={snr}")
        else:
            flags = ("--method", "mvmd", f"--snr={snr}")
        assert main(command, *flags, "--out", out) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: snr_db must make 10**(snr_db/10)")
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["-3070", "-3230"])
    def test_noise_past_float64_exit_two(self, tmp_path, capsys, snr):
        out = tmp_path / "b.json"
        assert main("align", "--method", "mvmd", f"--snr={snr}", "--out", out) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: snr_db must leave the noisy signal finite")
        assert not out.exists()

    def test_tf_fs_with_indir_exit_two(self, tmp_path, mv_csv, capsys):
        assert main("decompose", "--method", "mvmd", "--input", mv_csv, "--outdir", tmp_path / "d") == 0
        assert main("tf", "--indir", tmp_path / "d", "--fs", "9999", "--out", tmp_path / "g.csv") == 2
        assert "--fs applies to" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_synth_flags_for_their_signal(self, tmp_path):
        def synth(name, *flags):
            assert main("synth", "--out", tmp_path / name, *flags) == 0
            return (tmp_path / name).read_bytes()

        assert synth("s1.csv", "--signal", "s1") == synth("s1g.csv", "--signal", "s1", "--gap-start", "4", "--gap-end", "5")
        assert synth("s1n.csv", "--signal", "s1", "--no-gap") != synth("s1h.csv", "--signal", "s1", "--gap-end", "4.5")
        assert synth("s2.csv", "--signal", "s2") == synth("s20.csv", "--signal", "s2", "--seed", "0")
        assert synth("s23.csv", "--signal", "s2", "--seed", "3") != synth("s2b.csv", "--signal", "s2")
        synth("mv.csv", "--signal", "mv", "--fs", "128", "--duration", "0.5")
        mv = read_csv_signal(tmp_path / "mv.csv")
        assert (mv.sample_rate_hz, mv.n_samples) == (128.0, 64)

    def test_sst_manifest_records_ridge_config(self, tmp_path, s1_csv):
        code = main("decompose", "--method", "sst", "--k", "2", "--max-step", "5",
                    "--input", s1_csv, "--outdir", tmp_path / "d")
        assert code == 0
        config = manifest_of(tmp_path / "d")["config"]
        assert (config["K"], config["max_step"], config["start_band"]) == (2, 5, 15)

    def test_memd_manifest_records_directions(self, tmp_path, mv_csv):
        assert main("decompose", "--method", "memd", "--m-directions", "4", "--seed", "2",
                    "--input", mv_csv, "--outdir", tmp_path / "d") == 0
        manifest = manifest_of(tmp_path / "d")
        assert (manifest["config"]["M"], manifest["config"]["seed"]) == (4, 2)
        assert manifest["n_channels"] == 2
        assert manifest["reconstruction_error"] < 1e-9

    def test_init_if_conflicting_k_exit_two(self, tmp_path, s1_csv):
        code = main("decompose", "--method", "vncmd", "--k", "3", "--init-if", "30,50",
                    "--input", s1_csv, "--outdir", tmp_path / "d")
        assert code == 2
        assert not (tmp_path / "d").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "method, rows, flags", [("sst", 96, ()), ("ssa", 16, ("--k", "2", "--l", "8", "--signal-profile", "s2"))]
    )
    def test_fewer_modes_found_exit_zero(self, tmp_path, capsys, method, rows, flags):
        # a constant input holds fewer ridges or eigentriples than K; the run
        # says so through its mode count alone, with nothing on stderr
        write_signals_csv(tmp_path / "c.csv", {"x": np.full(rows, 0.5)}, 100.0)
        code = main("decompose", "--method", method, *flags, "--input", tmp_path / "c.csv", "--outdir", tmp_path / "d")
        assert code == 0
        manifest = manifest_of(tmp_path / "d")
        assert manifest["n_modes"] < manifest["config"]["K"]
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vncmd_infinite_envelopes_exit_three(self, tmp_path, s1_csv, capsys):
        # at a smoothing weight of 1e-200 the envelope solve blows up to inf and NaN
        code = main("decompose", "--method", "vncmd", "--init-if", "30,50,85", "--alpha", "1e200",
                    "--input", s1_csv, "--outdir", tmp_path / "d")
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite envelopes" in err and "Warning" not in err

    def decompose_at_unit_peak(self, tmp_path, capsys, columns, fs, *flags):
        """Exit codes and bundles of ``decompose`` on ``columns`` and on
        them scaled to unit peak, and the exponent that scales them back;
        neither run may print a warning."""
        peak = max(np.max(np.abs(c)) for c in columns.values())
        exp = int(np.frexp(peak)[1])
        runs = []
        for name, scale in (("given", 0), ("unit", -exp)):
            write_signals_csv(tmp_path / f"{name}.csv", {k: np.ldexp(c, scale) for k, c in columns.items()}, fs)
            code = main("decompose", *flags, "--input", tmp_path / f"{name}.csv", "--outdir", tmp_path / name)
            assert "Warning" not in capsys.readouterr().err
            runs.append((code, bundle_arrays(tmp_path / name) if code == 0 else None))
        return runs, exp

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "amplitude, flags", [(1e-310, ("--method", "vncmd", "--init-if", "10,30")), (1e-320, ("--method", "vmd"))]
    )
    def test_subnormal_input_exits_as_at_unit_peak(self, tmp_path, capsys, amplitude, flags):
        # a subnormal input keeps few bits, but its unit-peak copy is exact,
        # so both runs are one run (VNCMD's stop rule reads this one as diverged)
        columns = {"x": amplitude * np.sin(0.7 * np.arange(256.0))}
        (given, _), (unit, _) = self.decompose_at_unit_peak(tmp_path, capsys, columns, 256.0, *flags)[0]
        assert given == unit

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "method, columns, fs, flags",
        [
            ("sst", {"x": np.sin(np.arange(256.0)) * 1e300}, 256.0, ()),
            ("vncmd", {"x": huge_tones(96)}, 96.0, ("--init-if", "5")),
            ("emd", {"x": 1.5e308 * np.sin(2.5 * np.arange(96.0))}, 96.0, ()),
            ("memd", {"x": 1.5e308 * np.sin(np.arange(96.0)), "y": 1.5e308 * np.cos(np.arange(96.0))}, 96.0, ()),
            ("ssa", {"x": 1.5e308 * np.sin(np.arange(2000.0) / 3) + 1.5e307 * np.sin(np.arange(2000.0) / 1.3)},
             100.0, ("--l", "20")),
        ],
        ids=["sst", "vncmd", "emd", "memd", "ssa"],
    )
    def test_huge_input_gives_the_unit_peak_bundle_scaled(self, tmp_path, capsys, method, columns, fs, flags):
        # inputs whose squares, envelopes or overlap-added classes overflow
        # at their own scale decompose at unit peak, like every input
        runs, exp = self.decompose_at_unit_peak(tmp_path, capsys, columns, fs, "--method", method, *flags)
        (code, got), (unit_code, unit) = runs
        assert code == unit_code == 0
        assert len(got) == len(unit)
        assert all(np.array_equal(g, np.ldexp(u, exp)) for g, u in zip(got, unit))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", bench.UNIVARIATE_METHODS)
    @pytest.mark.parametrize("shape", ["sin", "two-tone", "square", "chirp"])
    def test_near_float_max_exits_zero_or_three(self, tmp_path, capsys, method, shape):
        # no input may exit 2 (usage): an overflowing mode or residual is a numerical failure
        t = np.arange(512.0)
        x = {
            "sin": np.sin(2.5 * t),
            "two-tone": np.sin(2.5 * t) + 0.9 * np.sin(0.31 * t),
            "square": np.sign(np.sin(0.2 * t)),
            "chirp": np.sin(0.001 * t**2),
        }[shape]
        x = 0.999 * np.finfo(np.float64).max * (x / np.max(np.abs(x)))
        write_signals_csv(tmp_path / "x.csv", {"x": x}, 512.0)
        code = main("decompose", "--method", method, "--input", tmp_path / "x.csv", "--outdir", tmp_path / "d")
        err = capsys.readouterr().err
        assert code in (0, 3) and "Warning" not in err
        if (shape, method) == ("square", "vmd"):  # its modes overshoot the input's peak
            assert code == 3 and "not finite at the input's scale" in err

    @pytest.mark.parametrize(
        "method, flags",
        [("emd", ()), ("ssa", ("--l", "20")), ("memd", ("--m-directions", "8"))],
    )
    def test_huge_input_manifest_is_strict_json(self, tmp_path, method, flags):
        # the residual error is near 1e284: its square overflows, its norm does not
        columns = {"x": huge_tones(96)}
        if method == "memd":
            columns["y"] = huge_tones(96, 2.1)
        write_signals_csv(tmp_path / "huge.csv", columns, 96.0)
        code = main("decompose", "--method", method, *flags,
                    "--input", tmp_path / "huge.csv", "--outdir", tmp_path / "d")
        assert code == 0

        def no_constants(name):
            raise AssertionError(f"manifest holds {name}, which is not JSON")

        text = (tmp_path / "d" / "manifest.json").read_text()
        error = json.loads(text, parse_constant=no_constants)["reconstruction_error"]
        assert 0.0 < error < np.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tf_overflow_exit_three(self, tmp_path):
        fs = 64.0
        mode = Signal(np.sin(np.arange(64.0)) * 1e300, fs)
        write_decomposition(Decomposition(modes=(mode,), residual=Signal(np.zeros(64), fs)), tmp_path / "d")
        assert main("tf", "--indir", tmp_path / "d", "--out", tmp_path / "g.csv") == 3

    @pytest.mark.parametrize("fmax", ["0", "-5", "nan"])
    def test_tf_bad_fmax_exit_two(self, tmp_path, fmax, capsys):
        write_signals_csv(tmp_path / "c.csv", {"x": np.ones(64)}, 64.0)
        assert main("tf", "--input", tmp_path / "c.csv", "--out", tmp_path / "g.csv", "--fmax", fmax) == 2
        assert "fmax_hz" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_tf_on_multichannel_bundle_renders_channel_zero(self, tmp_path, mv_csv):
        assert main("decompose", "--method", "mvmd", "--input", mv_csv, "--outdir", tmp_path / "d") == 0
        assert main("tf", "--indir", tmp_path / "d", "--out", tmp_path / "g.csv", "--bins", "16") == 0
        x = read_csv_signal(mv_csv)
        assert main("tf", "--input", mv_csv, "--out", tmp_path / "x.csv", "--bins", "16") == 0
        grid = np.loadtxt(tmp_path / "g.csv", delimiter=",", skiprows=1)
        assert grid.shape == (x.n_samples, 17)
        assert np.all(grid[:, 1:] >= 0) and grid[:, 1:].sum() > 0

    def test_tf_on_empty_manifest_exit_four(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "manifest.json").write_text("{}")
        assert main("tf", "--indir", tmp_path / "d", "--out", tmp_path / "g.csv") == 4
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["", ",", "12,", "12,abc", "12,12"])
    def test_noise_suite_bad_snr_grid_exit_two(self, tmp_path, grid):
        out = tmp_path / "noise.json"
        code = main("bench", "--suite", "noise", "--method", "vmd", "--signal", "s2",
                    "--n", "2", "--snr-grid", grid, "--out", out)
        assert code == 2 and not out.exists()

    def test_noise_suite_json_has_elapsed(self, tmp_path):
        out = tmp_path / "noise.json"
        code = main("bench", "--suite", "noise", "--method", "vmd", "--signal", "s2",
                    "--n", "2", "--snr-grid", "20,10", "--out", out)
        assert code == 0
        elapsed = json.loads(out.read_text())["elapsed_s"]
        assert sorted(elapsed) == ["10.0", "20.0"]
        assert all(len(v) == 2 and min(v) > 0 for v in elapsed.values())

    def test_noise_suite_all_failed_is_strict_json(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalFailure("forced")

        monkeypatch.setattr(bench, "decompose", fail)
        out = tmp_path / "noise.json"
        code = main("bench", "--suite", "noise", "--method", "vmd", "--signal", "s2",
                    "--n", "2", "--snr-grid", "12", "--out", out)
        assert code == 0

        def no_constants(name):
            raise AssertionError(f"noise suite JSON holds {name}")

        row = json.loads(out.read_text(), parse_constant=no_constants)["rows"][0]
        assert row["mean_db"] is None and row["failures"] == 2
        assert out.with_suffix(".csv").read_text().splitlines()[1] == "12.0,,0.0,2"

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
