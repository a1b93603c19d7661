"""Property test of the seven recipes at the edges of their input: short,
flat, spiky, every-step-a-flip and ramp signals, at unit scale and scaled
by +-1e300.  ``bench.decompose`` must return a decomposition or raise one
of the documented exceptions, never anything else."""

import itertools

import numpy as np
import pytest

from sigdecomp import bench
from sigdecomp.core import (
    AlignedDecomposition,
    ContractViolation,
    Decomposition,
    Diverged,
    MultichannelSignal,
    NotEnoughExtrema,
    NumericalFailure,
    Signal,
)

DOCUMENTED = (ContractViolation, NotEnoughExtrema, NumericalFailure, Diverged)
FS = 512.0  # s2's rate: every recipe's frequencies lie below its Nyquist
KINDS = ("noise", "constant", "impulse", "alternating", "ramp")
LENGTHS = (2, 5, 257)
SCALES = (1.0, 1e300, -1e300)


def channel(kind, n, rng):
    """One channel of ``n`` samples at unit scale."""
    t = np.arange(n, dtype=np.float64)
    if kind == "constant":  # every step zero
        return np.full(n, 0.7)
    if kind == "impulse":
        return (t == n // 2).astype(np.float64)
    if kind == "alternating":  # every step a flip
        return (-1.0) ** t
    if kind == "ramp":
        return t / n
    return rng.normal(size=n)


def edge_input(method, kind, n, scale):
    rng = np.random.default_rng(n)
    if method in bench.MULTICHANNEL_METHODS:
        return MultichannelSignal(scale * np.stack([channel(kind, n, rng), channel(kind, n, rng)[::-1]]), FS)
    return Signal(scale * channel(kind, n, rng), FS)


@pytest.mark.parametrize("method", bench.UNIVARIATE_METHODS + bench.MULTICHANNEL_METHODS)
def test_returns_or_raises_a_documented_exception(method):
    cfg = bench.default_config(method, "s2")
    want = AlignedDecomposition if method in bench.MULTICHANNEL_METHODS else Decomposition
    wrong = []
    for kind, n, scale in itertools.product(KINDS, LENGTHS, SCALES):
        try:
            d = bench.decompose(method, edge_input(method, kind, n, scale), cfg)
        except DOCUMENTED:
            continue
        except Exception as exc:  # the property: nothing else escapes
            wrong.append((kind, n, scale, repr(exc)))
            continue
        if not isinstance(d, want):
            wrong.append((kind, n, scale, type(d).__name__))
    assert wrong == []
