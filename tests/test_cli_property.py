"""Property test of the CLI contract: small CSVs, all seven methods, random flags.

``decompose`` must exit 0, 2, 3 or 4 without raising, and 2 when a flag
sets a field the method's config lacks.  A run that exits 0
records exactly the configuration that ran in a strict-JSON manifest,
returns at most the ``K`` modes asked for, and writes a bundle that reads
back and that ``tf`` renders.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdecomp import cli
from sigdecomp.bench import MULTICHANNEL_METHODS, UNIVARIATE_METHODS, default_config, effective_config
from sigdecomp.io import read_decomposition
from sigdecomp.multivariate import AlignedDecomposition

FS = 100.0

#: 64 directions take seconds per input; every memd run gets 2 to keep the test short
TWO_DIRECTIONS = ("--m-directions", "2", "M", 2)

#: (flag, text given, config field, value it sets)
FLAGS = (
    ("--k", "2", "K", 2),
    ("--alpha", "200", "alpha", 200.0),
    ("--tau", "0", "tau", 0.0),
    ("--mu", "0.3", "mu", 0.3),
    ("--init-if", "10,30", "init_if_hz", (10.0, 30.0)),
    ("--l", "8", "L", 8),
    ("--epsilon", "0.1", "epsilon", 0.1),
    ("--start-band", "4", "start_band", 4),
    ("--max-step", "3", "max_step", 3),
    ("--gamma", "1e-4", "gamma", 1e-4),
    TWO_DIRECTIONS,
    ("--seed", "3", "seed", 3),
)


@st.composite
def csv_texts(draw) -> tuple[str, int]:
    """A signal CSV of 1-3 columns and 1-96 rows, possibly malformed, and
    its row count."""
    n_cols = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 96))
    kind = draw(st.sampled_from(("tones", "constant", "nan", "ragged")))
    scale = draw(st.sampled_from((1.0, 1e-300, 1e150, 1e300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    t = np.arange(n_rows)[:, None] / FS
    data = np.sin(2 * np.pi * t * rng.uniform(2.0, 45.0, n_cols)) + 0.1 * rng.normal(size=(n_rows, n_cols))
    if kind == "constant":
        data[:] = rng.normal()
    rows = [[repr(float(v)) for v in row] for row in data * scale]
    row, col = rng.integers(n_rows), rng.integers(n_cols)
    if kind == "nan":
        rows[row][col] = "nan"
    elif kind == "ragged":
        rows[row].append("0.0")
    header = f"# sample_rate={FS!r}\n" + ",".join(f"c{c}" for c in range(n_cols))
    return header + "\n" + "\n".join(",".join(r) for r in rows) + "\n", n_rows


def run_cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def not_json(name: str):
    """``parse_constant`` hook: NaN and Infinity are not JSON."""
    raise AssertionError(f"manifest holds {name}")


def jsonable(cfg) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


@pytest.mark.parametrize("method", UNIVARIATE_METHODS + MULTICHANNEL_METHODS)
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(csv=csv_texts(), profile=st.sampled_from(("s1", "s2")), data=st.data())
def test_decompose_contract(method, csv, profile, data):
    text, n_rows = csv
    known = {f.name for f in dataclasses.fields(default_config(method, profile))}
    own = [f for f in FLAGS if f[2] in known]
    flags = data.draw(st.lists(st.sampled_from(own), max_size=3, unique_by=lambda f: f[0]) if own else st.just([]))
    flags += data.draw(st.lists(st.sampled_from(FLAGS), max_size=1))
    if method == "memd":
        flags = [f for f in flags if f != TWO_DIRECTIONS] + [TWO_DIRECTIONS]
    argv = [a for flag, given_text, _, _ in flags for a in (flag, given_text)]
    overrides = {field: value for _, _, field, value in flags}
    if "init_if_hz" in overrides:
        overrides.setdefault("K", len(overrides["init_if_hz"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "x.csv").write_text(text, encoding="utf-8")
        code = run_cli(
            "decompose", "--method", method, "--input", tmp / "x.csv", "--outdir", tmp / "d",
            "--signal-profile", profile, *argv,
        )
        assert code in (0, 2, 3, 4)
        if not set(overrides) <= known:
            assert code == 2
        if code != 0:
            return
        manifest = json.loads((tmp / "d" / "manifest.json").read_text(encoding="utf-8"), parse_constant=not_json)
        cfg = effective_config(method, profile, overrides=overrides)
        assert manifest["config"] == jsonable(cfg)
        if "K" in known:  # fewer modes when the method finds fewer (a constant input, say)
            assert manifest["n_modes"] <= cfg.K
        d, _ = read_decomposition(tmp / "d")
        assert d.n_modes == manifest["n_modes"]
        assert isinstance(d, AlignedDecomposition) == (method in MULTICHANNEL_METHODS)
        tf_code = run_cli("tf", "--indir", tmp / "d", "--out", tmp / "g.csv", "--bins", 8)
        assert tf_code in ((0, 3) if n_rows >= 4 else (0, 2, 3))  # the Hilbert transform needs 4 samples
