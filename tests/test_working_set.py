"""How each method's memory grows with the input: the tracemalloc peak of
one decompose of a long input, in doubles (8 bytes) per input sample.

EMD, VMD, VNCMD and SSA run their s1 recipe on s1 tiled 4x (10,240
samples); MVMD runs its recipe, and a whole MEMD decompose M=8
directions, on the 10 dB two-channel mv signal tiled 16x (8,192 samples
per channel).  SST's bounds are ``test_sst.py::TestWorkingSet``.  The
extrema kernel, MEMD's largest, is bounded on its own: its peak grows with
the batch it is given, M directions times n samples.
"""

import numpy as np
import pytest

from sigdecomp import bench
from sigdecomp._kernels import find_extrema_arrays
from sigdecomp.core import MultichannelSignal, Signal
from sigdecomp.multivariate import MemdConfig
from sigdecomp.synth import gen_mv_test
from test_sst import traced_peak

# method: (config, doubles per input sample at most).  Each bound is a
# quarter above the larger of the peak measured here and the ROADMAP
# Baseline's figure at that size (EMD 41, VMD 44, VNCMD 137, SSA 55, MVMD
# 85; MEMD was measured only at M=64 there, so its bound is 1.3x the 104.5
# measured here at M=8).  A run that keeps one more copy of the VMD/MVMD
# engine's spectra and multipliers reads 58 and 115, and fails both.
BOUNDS = {
    "emd": (bench.default_config("emd", "s1"), 52),
    "vmd": (bench.default_config("vmd", "s1"), 56),
    "vncmd": (bench.default_config("vncmd", "s1"), 172),
    "ssa": (bench.default_config("ssa", "s1"), 70),
    "mvmd": (bench.default_config("mvmd", "s2"), 108),
    "memd": (MemdConfig(M=8), 136),
}


def long_input(method):
    """The input and a short one of the same kind, for a warm-up call."""
    if method in bench.MULTICHANNEL_METHODS:
        mv = bench.noisy_mv_signal(gen_mv_test()[0], 10.0, 0)
        return MultichannelSignal(np.tile(mv.channels, (1, 16)), mv.sample_rate_hz), mv
    s1, _ = bench.generate_signal("s1")
    return Signal(np.tile(s1.samples, 4), s1.sample_rate_hz), s1


@pytest.mark.parametrize("method", BOUNDS)
def test_peak_per_input_sample(method):
    cfg, bound = BOUNDS[method]
    x, short = long_input(method)
    bench.decompose(method, short, cfg)  # warm-up: caches, FFT plans and LAPACK's first load
    n_samples = x.channels.shape[1] if isinstance(x, MultichannelSignal) else len(x)
    assert traced_peak(bench.decompose, method, x, cfg) / 8 / n_samples <= bound


def test_extrema_peak_on_a_signed_batch():
    # 64 random-walk columns of 8,192 samples, MEMD's projections of a long
    # input: no step is zero, so the flips are read from the step signs
    # with no compacted copy of the steps.  That path peaks at about 4.3x
    # the batch's bytes; the compacting path reads 7.6x on this batch.
    x = np.cumsum(np.random.default_rng(0).normal(size=(8192, 64)), axis=0)
    find_extrema_arrays(x[:16])  # warm-up
    assert traced_peak(find_extrema_arrays, x) <= 5 * x.nbytes
