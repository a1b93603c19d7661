"""Write the output pins of the running numpy, scipy and BLAS versions.

A pin is a short SHA-256 digest of one run's output bits: every mode,
residual, IF track and center frequency, and every field of its run
record except ``stage_seconds``.  The runs are the five univariate recipes
on clean s1 and s2 and on s2 at 3, 12 and 24 dB (noise seed 0); memd, mvmd
and vmd-channelwise on the two-channel signal at 10 dB (noise seed 0); and
the files of one ``sigdecomp decompose`` bundle per method.  A run that
diverges pins its partial decomposition and its record.

The decompositions run in a child process at one BLAS thread with a fixed
``PYTHONHASHSEED``, so the pins do not depend on the caller's environment::

    python tests/write_output_pins.py  # writes tests/output_pins/<versions>.json

``tests/test_output_pins.py`` compares a fresh child's pins with the file
of the running versions.  A change that moves a pin rewrites the file with
this script and says which pins moved, and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

PIN_DIR = Path(__file__).resolve().parent / "output_pins"
SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
UNIVARIATE_RUNS = (("s1", None), ("s2", None), ("s2", 3.0), ("s2", 12.0), ("s2", 24.0))


def versions() -> dict[str, str]:
    """numpy's and scipy's versions and the BLAS each was built against."""

    def blas(config) -> str:
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', 'unknown')}-{info.get('version', 'unknown')}"

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def pin_file(v: dict[str, str]) -> Path:
    return PIN_DIR / f"numpy-{v['numpy']}_scipy-{v['scipy']}_{v['numpy_blas']}_{v['scipy_blas']}.json"


def pins_in_child() -> dict:
    """The pins as a child process at one BLAS thread computes them."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, __file__, "--child"], env=env, capture_output=True, text=True)
    if child.returncode:
        raise RuntimeError(f"the pin run exited {child.returncode}:\n{child.stderr}")
    return json.loads(child.stdout)


def _digest(*parts) -> str:
    """Digest of arrays (shape, dtype and bytes), None and JSON-able values, in order."""
    h = hashlib.sha256()
    for part in parts:
        if part is None or isinstance(part, (str, int, float, list, dict)):
            h.update(json.dumps(_exact(part), sort_keys=True).encode())
        else:
            a = np.ascontiguousarray(part)
            h.update(f"{a.shape}{a.dtype.str}".encode())
            h.update(a.tobytes())
    return h.hexdigest()[:16]


def _exact(value):
    """``value`` as JSON with every float in hex, so that the text holds its bits."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_exact(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _exact(v) for k, v in value.items()}
    return value


def _pins_of(d) -> dict:
    """The pins of a ``Decomposition`` or an ``AlignedDecomposition``."""
    from sigdecomp.core import AlignedDecomposition

    if isinstance(d, AlignedDecomposition):
        modes = [[m.samples for m in channel] for channel in d.channel_modes]
        residuals, tracks = [r.samples for r in d.residuals], None
    else:
        modes, residuals = [[m.samples for m in d.modes]], [d.residual.samples]
        tracks = None if d.if_tracks_hz is None else list(d.if_tracks_hz)
    r = d.record
    return {
        "modes": _digest(len(modes), *(m for channel in modes for m in channel)),
        "residual": _digest(len(residuals), *residuals),
        "if_tracks": None if tracks is None else _digest(len(tracks), *tracks),
        "centers": None if d.center_freqs_hz is None else _digest(list(d.center_freqs_hz)),
        "iterations": r.iterations,
        "stop_reason": r.stop_reason,
        "record": _digest(r.method, r.iterations, r.stop_reason, list(r.trace), r.counters),
    }


def compute_pins() -> dict:
    """Every run's pins, by run name."""
    from sigdecomp import bench, cli
    from sigdecomp.core import Diverged
    from sigdecomp.synth import add_wgn

    def decomposition(method, x, cfg):
        try:
            return bench.decompose(method, x, cfg)
        except Diverged as exc:
            return exc.decomposition

    pins = {}
    for method in bench.UNIVARIATE_METHODS:
        for signal_id, snr in UNIVARIATE_RUNS:
            x = bench.generate_signal(signal_id)[0]
            if snr is not None:
                x = add_wgn(x, snr, 0)
            cfg = bench.default_config(method, signal_id, noisy=snr is not None)
            name = f"{method}/{signal_id}" + ("" if snr is None else f"@{snr:g}dB")
            pins[name] = _pins_of(decomposition(method, x, cfg))
    for method in bench.ALIGNMENT_METHODS:
        pins[f"{method}/mv@10dB"] = _pins_of(bench.alignment_study(method, 10.0, 0)[0])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for signal in ("s1", "mv"):
            cli.main(["synth", "--signal", signal, "--out", str(tmp / f"{signal}.csv")])
        for method in bench.UNIVARIATE_METHODS + bench.MULTICHANNEL_METHODS:
            signal = "mv" if method in bench.MULTICHANNEL_METHODS else "s1"
            outdir = tmp / method
            code = cli.main(["decompose", "--method", method, "--input", str(tmp / f"{signal}.csv"),
                             "--outdir", str(outdir)])
            files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in sorted(outdir.iterdir())}
            pins[f"bundle/{method}"] = {"exit": code, **files}
    return pins


def main(argv: list[str]) -> int:
    if argv == ["--child"]:
        from contextlib import redirect_stdout

        with redirect_stdout(sys.stderr):  # the CLI's messages stay off the pins
            pins = compute_pins()
        print(json.dumps({"versions": versions(), "pins": pins}))
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    path = pin_file(versions())
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(pins_in_child(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
