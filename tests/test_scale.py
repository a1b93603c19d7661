"""Modes are shapes, not units: decomposing ``2**k * x`` must give exactly
``2**k`` times the decomposition of ``x``, for every method, from inputs
near the bottom of float64's range to inputs near its top."""

from functools import lru_cache

import numpy as np
import pytest

from sigdecomp.bench import default_config, generate_signal, noisy_mv_signal
from sigdecomp.core import Diverged, MultichannelSignal, NumericalFailure, Signal
from sigdecomp.emd import emd_decompose
from sigdecomp.multivariate import MemdConfig, memd_decompose, mvmd_decompose
from sigdecomp.ssa import ssa_decompose
from sigdecomp.sst import sst_decompose
from sigdecomp.synth import add_wgn, gen_mv_test
from sigdecomp.variational import vmd_decompose, vncmd_decompose

METHODS = {
    "emd": emd_decompose,
    "vmd": vmd_decompose,
    "vncmd": vncmd_decompose,
    "sst": sst_decompose,
    "ssa": ssa_decompose,
    "memd": memd_decompose,
    "mvmd": mvmd_decompose,
}

# (method, input, config): the s2 recipes, a VNCMD run that raises Diverged,
# and the two-channel signal at 10 dB, shortened to 0.5 s for MEMD's sake
CASES = {
    **{f"{m}-s2": (m, "s2", default_config(m, "s2")) for m in ("emd", "vmd", "vncmd", "sst", "ssa")},
    "vncmd-s2@12dB": ("vncmd", "s2@12dB", default_config("vncmd", "s2", noisy=True)),
    "memd-mv@10dB": ("memd", "mv@10dB", MemdConfig(M=8)),
    "mvmd-mv@10dB": ("mvmd", "mv@10dB", default_config("mvmd", "s2")),
}

EXPONENTS = [-1000, -540, -160, -70, 480, 505, 600, 996, 1000]


@lru_cache(maxsize=None)
def samples(name):
    if name == "mv@10dB":
        return noisy_mv_signal(gen_mv_test(duration_s=0.5)[0], 10.0, 0)
    x, _ = generate_signal("s2")
    return add_wgn(x, 12.0, 0) if name == "s2@12dB" else x


def scaled(x, exp):
    if isinstance(x, MultichannelSignal):
        return MultichannelSignal(np.ldexp(x.channels, exp), x.sample_rate_hz)
    return Signal(np.ldexp(x.samples, exp), x.sample_rate_hz)


def outcome(case, exp):
    """(outcome name, mode arrays, residual arrays, IF tracks, centers, iterations)."""
    method, name, cfg = CASES[case]
    try:
        result = METHODS[method](scaled(samples(name), exp), cfg)
        kind = "returned"
    except Diverged as exc:
        result, kind = (exc.decomposition, exc.report), "Diverged"
    except NumericalFailure:
        return ("NumericalFailure",)
    d, report = result if isinstance(result, tuple) else (result, None)
    if hasattr(d, "channel_modes"):
        modes, residuals, tracks = [m.samples for ms in d.channel_modes for m in ms], [r.samples for r in d.residuals], None
    else:
        modes, residuals, tracks = [m.samples for m in d.modes], [d.residual.samples], d.if_tracks_hz
    return kind, modes, residuals, tracks, d.center_freqs_hz, report and report.iterations


@lru_cache(maxsize=None)
def unscaled(case):
    return outcome(case, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exp", EXPONENTS)
@pytest.mark.parametrize("case", CASES)
def test_power_of_two_scales_the_decomposition_exactly(case, exp):
    x = samples(CASES[case][1])
    data = x.channels if isinstance(x, MultichannelSignal) else x.samples
    assert np.array_equal(np.ldexp(np.ldexp(data, exp), -exp), data)  # the scaled input is exact
    base, got = unscaled(case), outcome(case, exp)
    assert got[0] == base[0]
    if base[0] == "NumericalFailure":
        return
    _, modes, residuals, tracks, centers, iterations = got
    assert len(modes) == len(base[1])
    for g, b in zip(modes + residuals, base[1] + base[2]):
        assert np.array_equal(g, np.ldexp(b, exp))
    if tracks is not None:
        assert all(np.array_equal(t, t0) for t, t0 in zip(tracks, base[3]))
    assert centers == base[4] and iterations == base[5]


def test_cases_cover_every_method_and_outcome():
    assert {method for method, _, _ in CASES.values()} == set(METHODS)
    assert unscaled("vncmd-s2@12dB")[0] == "Diverged"
