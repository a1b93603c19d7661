"""Signal decomposition toolkit: EMD, VMD, VNCMD, SST, sliding SSA, and
the multivariate MEMD/MVMD, plus synthetic benchmark signals, QRF
scoring, and experiment harnesses."""

from .core import (
    AlignedDecomposition,
    ContractViolation,
    Decomposition,
    Diverged,
    ModeModel,
    MultichannelSignal,
    NotEnoughExtrema,
    NumericalFailure,
    RunRecord,
    Signal,
    add,
    l2_norm,
    scale,
    subtract,
)
from .emd import EmdConfig, emd_decompose, envelope_mean, find_extrema
from .metrics import (
    AlignmentScore,
    QrfReport,
    alignment_score,
    match_components,
    qrf,
)
from .multivariate import (
    MemdConfig,
    MvmdConfig,
    hypersphere_directions,
    memd_decompose,
    mvmd_decompose,
)
from .spectral import TFGrid, analytic_signal, hilbert_spectrum, ia_if
from .ssa import SsaConfig, embed, ssa_decompose
from .sst import (
    RidgeTrack,
    SstConfig,
    cwt_morlet,
    extract_ridges,
    reconstruct_mode,
    sst_decompose,
    synchrosqueeze,
)
from .synth import GapSpec, S2Config, add_wgn, gen_mv_test, gen_s1, gen_s2
from .variational import (
    VmdConfig,
    VncmdConfig,
    vmd_decompose,
    vncmd_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "ContractViolation",
    "Decomposition",
    "Diverged",
    "ModeModel",
    "MultichannelSignal",
    "NotEnoughExtrema",
    "NumericalFailure",
    "RunRecord",
    "Signal",
    "add",
    "l2_norm",
    "scale",
    "subtract",
    "EmdConfig",
    "emd_decompose",
    "envelope_mean",
    "find_extrema",
    "AlignmentScore",
    "QrfReport",
    "alignment_score",
    "match_components",
    "qrf",
    "TFGrid",
    "analytic_signal",
    "hilbert_spectrum",
    "ia_if",
    "GapSpec",
    "S2Config",
    "add_wgn",
    "gen_mv_test",
    "gen_s1",
    "gen_s2",
    "VmdConfig",
    "VncmdConfig",
    "vmd_decompose",
    "vncmd_decompose",
    "SsaConfig",
    "embed",
    "ssa_decompose",
    "RidgeTrack",
    "SstConfig",
    "cwt_morlet",
    "extract_ridges",
    "reconstruct_mode",
    "sst_decompose",
    "synchrosqueeze",
    "AlignedDecomposition",
    "MemdConfig",
    "MvmdConfig",
    "hypersphere_directions",
    "memd_decompose",
    "mvmd_decompose",
]
