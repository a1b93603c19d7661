"""Symmetries of the bench recipes (``bench.default_config``).

Negating the input negates every mode and the residual exactly, for all
seven methods: each one runs at unit peak, the scale is a power of two
taken from the peak magnitude, and no step prefers a sign.  Equal values
are bit for bit, up to the sign of a zero: SST's modes are +0.0 at
invalid frames either way.  Swapping MVMD's two channels swaps its
outputs exactly, since its centers pool the channels' power by a sum.
Reversing the input in time reverses the modes to rounding for EMD, VMD,
MVMD and MEMD, whose extrema, splines and mirrored spectra have no
direction; README's "Symmetries" says why the other methods do not.
"""

import numpy as np
import pytest

from sigdecomp import bench
from sigdecomp.core import MultichannelSignal, Signal
from sigdecomp.synth import gen_mv_test

UNIVARIATE = ("emd", "vmd", "vncmd", "sst", "ssa")
RECIPES = [(method, signal) for signal in ("s1", "s2") for method in UNIVARIATE]
RECIPES += [("memd", "mv"), ("mvmd", "mv")]
REVERSIBLE = [("emd", "s1"), ("emd", "s2"), ("vmd", "s1"), ("vmd", "s2"), ("memd", "mv"), ("mvmd", "mv")]


@pytest.fixture(scope="module")
def runs():
    """The recipe's input and its decomposition, once per recipe."""
    cache = {}

    def run(method, signal):
        if (method, signal) not in cache:
            x = mv_signal() if signal == "mv" else bench.generate_signal(signal)[0]
            cache[method, signal] = x, decompose(method, signal, x)
        return cache[method, signal]

    return run


def mv_signal():
    return bench.noisy_mv_signal(gen_mv_test()[0], 10.0, 0)


def decompose(method, signal, x):
    return bench.decompose(method, x, bench.default_config(method, "s1" if signal == "mv" else signal))


def mapped(x, f):
    """``x`` with ``f`` applied to its samples, ``(n,)`` or ``(channels, n)``."""
    if isinstance(x, MultichannelSignal):
        return MultichannelSignal(f(x.channels), x.sample_rate_hz)
    return Signal(f(x.samples), x.sample_rate_hz)


def parts(d):
    """Every mode, then the residual, channel by channel."""
    if hasattr(d, "channel_modes"):
        return [[m.samples for m in modes] + [r.samples] for modes, r in zip(d.channel_modes, d.residuals)]
    return [[m.samples for m in d.modes] + [d.residual.samples]]


@pytest.mark.parametrize("method, signal", RECIPES)
def test_negation_negates_every_output(runs, method, signal):
    x, d = runs(method, signal)
    neg = decompose(method, signal, mapped(x, np.negative))
    want, got = parts(d), parts(neg)
    assert [len(c) for c in got] == [len(c) for c in want]
    for channel, neg_channel in zip(want, got):
        assert all(np.array_equal(-a, b) for a, b in zip(channel, neg_channel))
    assert neg.center_freqs_hz == d.center_freqs_hz
    if getattr(d, "if_tracks_hz", None) is not None:
        assert all(np.array_equal(a, b) for a, b in zip(d.if_tracks_hz, neg.if_tracks_hz))


def test_mvmd_channel_swap_swaps_every_output(runs):
    x, d = runs("mvmd", "mv")
    swapped = decompose("mvmd", "mv", mapped(x, lambda c: c[::-1]))
    assert swapped.center_freqs_hz == d.center_freqs_hz
    for channel, swapped_channel in zip(parts(d), parts(swapped)[::-1]):
        assert len(channel) == len(swapped_channel)
        assert all(np.array_equal(a, b) for a, b in zip(channel, swapped_channel))


@pytest.mark.parametrize("method, signal", REVERSIBLE)
def test_time_reversal_reverses_every_output(runs, method, signal):
    # each mode's error against the input's l2 norm: 1.3e-14 at most, EMD on s1
    x, d = runs(method, signal)
    rev = decompose(method, signal, mapped(x, lambda a: a[..., ::-1]))
    want, got = parts(d), parts(rev)
    assert [len(c) for c in got] == [len(c) for c in want]
    scale = np.linalg.norm(x.channels if signal == "mv" else x.samples)
    for channel, rev_channel in zip(want, got):
        for a, b in zip(channel, rev_channel):
            assert np.linalg.norm(b[::-1] - a) <= 1e-12 * scale
