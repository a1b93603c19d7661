"""Every output bit of the pinned runs (see ``write_output_pins.py``) equals
the committed pins of the running numpy, scipy and BLAS versions.  Under
versions with no pin file the test skips and names them."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("write_output_pins", Path(__file__).with_name("write_output_pins.py"))
pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pins)


def test_outputs_match_the_pins():
    versions = pins.versions()
    path = pins.pin_file(versions)
    if not path.exists():
        pytest.skip(f"no output pins for {', '.join(f'{k} {v}' for k, v in versions.items())}")
    expected = json.loads(path.read_text())
    actual = pins.pins_in_child()
    assert actual["versions"] == expected["versions"] == versions
    want, got = (
        {f"{run}: {key}": pin for run, run_pins in document["pins"].items() for key, pin in run_pins.items()}
        for document in (expected, actual)
    )
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, "moved pins (rewrite them with tests/write_output_pins.py and say why):\n" + "\n".join(moved)
