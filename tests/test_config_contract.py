"""The config contract: every method config checks its own fields.

A property test builds each of the seven configs from mixed draws and
runs the ones that build on a short input.  Each draw must either raise
``ContractViolation`` at construction, or decompose into a result,
``ContractViolation``, ``NumericalFailure`` or ``Diverged``, and never warn.
Pinned cases follow: integer fields, finiteness, seeds and suite sizes,
``morlet_w0``'s usable range, and the CLI paths that reach them.
"""

import contextlib
import dataclasses
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdecomp import cli
from sigdecomp.bench import NoiseSuiteSpec, decompose, run_alignment_suite, run_param_sweep
from sigdecomp.core import ContractViolation, Decomposition, Diverged, MultichannelSignal, NumericalFailure, Signal
from sigdecomp.emd import EmdConfig
from sigdecomp.multivariate import AlignedDecomposition, MemdConfig, MvmdConfig
from sigdecomp.ssa import SsaConfig
from sigdecomp.sst import SstConfig
from sigdecomp.synth import S2Config, gen_mv_test
from sigdecomp.variational import VmdConfig, VncmdConfig

FS = 128.0

HUGE_INT = 10**400

#: values outside most fields' contract: integral and fractional floats, zero,
#: negatives, NaN, the infinities, huge values, a bool and None
ODD = (0, 0.0, -1, -2.5, 2.0, 2.5, np.nan, np.inf, -np.inf, 1e300, -1e300, HUGE_INT, True, None)

#: a field declared ``int`` draws its valid values from a small range, and
#: from ``ODD`` no huge integer, so that no case allocates much or runs long:
#: n_voices (at most 64) scales the CWT's rows, M (64) the directions per
#: sift, L (100) the trajectory matrix and max_iters (50) the variational
#: loop; SSA's K and SST's start_band each size an array and have no upper
#: bound in the contract
_VMD_VALID = {
    "K": st.integers(1, 4), "alpha": st.sampled_from((50.0, 500.0, 5000, 1e300)),
    "tau": st.sampled_from((0.0, 0.5)), "tol": st.sampled_from((1e-7, 1e-3)), "max_iters": st.integers(1, 50),
    "init_mode": st.sampled_from(("zeros", "uniform")),
}

#: method -> (config class, field -> strategy of its valid values)
CASES = {
    "emd": (EmdConfig, {
        "theta1": st.floats(0.01, 0.4), "theta2": st.floats(0.4, 1e300), "alpha_fraction": st.floats(0.01, 0.99),
        "max_sift_iters": st.integers(1, 100), "max_imfs": st.integers(1, 12), "boundary": st.integers(1, 8),
    }),
    "vmd": (VmdConfig, _VMD_VALID),
    "mvmd": (MvmdConfig, _VMD_VALID),
    "vncmd": (VncmdConfig, {
        "alpha": st.sampled_from((1e-5, 1e-3, 1e300)), "mu": st.floats(0.01, 2.0), "tol": st.sampled_from((1e-6, 1e-3)),
        "max_iters": st.integers(1, 50), "if_smooth_frac": st.floats(0.0, 1.0),
    }),
    "sst": (SstConfig, {
        "n_voices": st.integers(4, 64), "morlet_w0": st.sampled_from((6.0, 0.5, 20.0, 1e17)),
        "gamma": st.sampled_from((0.0, 1e-6, 0.5)), "K": st.integers(1, 8), "start_band": st.integers(1, 64),
        "max_step": st.integers(1, 64),
    }),
    "ssa": (SsaConfig, {
        "L": st.integers(2, 100), "K": st.integers(1, 8), "epsilon": st.sampled_from((1e-6, 0.1)),
        "window_len": st.one_of(st.none(), st.integers(2, 300)), "hop": st.one_of(st.none(), st.integers(1, 300)),
    }),
    "memd": (MemdConfig, {"M": st.integers(2, 64), "seed": st.integers(0, 2**64)}),
}

#: the declared integer fields of the seven configs
INT_FIELDS = {f.name for cls, _ in CASES.values() for f in dataclasses.fields(cls) if f.type.startswith("int")}


@st.composite
def mixed(draw, name: str, valid: st.SearchStrategy):
    """A valid value three times in four, else an odd one; an integer field draws no huge integer."""
    if draw(st.integers(0, 3)):
        return draw(valid)
    return draw(st.sampled_from([v for v in ODD if not (name in INT_FIELDS and v is HUGE_INT)]))


@st.composite
def field_draws(draw, method: str) -> dict:
    _, valid = CASES[method]
    fields = {name: draw(mixed(name, values)) for name, values in valid.items()}
    if method == "vncmd":  # K distinct initial frequencies, mostly
        count = draw(st.integers(1, 3))
        fields["init_if_hz"] = tuple(draw(mixed("init_if_hz", st.floats(1.0, 60.0))) for _ in range(count))
        fields["K"] = draw(st.one_of(st.just(count), st.just(count), mixed("K", st.integers(1, 3))))
    if method == "memd":
        fields["emd"] = draw(st.sampled_from((EmdConfig(), EmdConfig(max_sift_iters=5, max_imfs=2))))
    return fields


def short_input(method: str, n: int, seed: int) -> Signal | MultichannelSignal:
    """Two tones plus noise, ``n`` samples; two channels for the multichannel methods."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    channels = [np.sin(2 * np.pi * 8 * t + c) + 0.5 * np.sin(2 * np.pi * 30 * t) + 0.1 * rng.normal(size=n)
                for c in range(2)]
    if method in ("memd", "mvmd"):
        return MultichannelSignal(np.stack(channels), FS)
    return Signal(channels[0], FS)


@pytest.mark.parametrize("method", list(CASES))
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data(), n=st.integers(64, 256), seed=st.integers(0, 2**16))
def test_config_contract_fuzz(method, data, n, seed):
    fields = data.draw(field_draws(method))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = CASES[method][0](**fields)
        except ContractViolation:
            return
        try:
            d = decompose(method, short_input(method, n, seed), cfg)
        except (ContractViolation, NumericalFailure, Diverged):
            return
    assert isinstance(d, (Decomposition, AlignedDecomposition))


@pytest.mark.parametrize(
    "cls, fields, message",
    [
        (EmdConfig, {"max_imfs": 2.0}, "max_imfs must be an integer, not 2.0"),
        (VmdConfig, {"max_iters": 2.0}, "max_iters must be an integer, not 2.0"),
        (SstConfig, {"start_band": 2.0}, "start_band must be an integer, not 2.0"),
        (SstConfig, {"start_band": 2.5}, "start_band must be an integer, not 2.5"),
        (SstConfig, {"n_voices": 8.5}, "n_voices must be an integer, not 8.5"),
        (SsaConfig, {"hop": 2.5}, "hop must be an integer, not 2.5"),
        (SsaConfig, {"L": 2.5}, "L must be an integer, not 2.5"),
        (MvmdConfig, {"K": 2.0}, "K must be an integer, not 2.0"),
        (VmdConfig, {"K": True}, "K must be an integer, not True"),
        (VmdConfig, {"K": None}, "K must be an integer, not None"),
        (MemdConfig, {"seed": 2.5}, "seed must be an integer, not 2.5"),
        (MemdConfig, {"seed": -1}, "seed must be >= 0"),
        (VmdConfig, {"alpha": 10**400}, "alpha must be a finite number, not 1000"),
        (VmdConfig, {"tau": -0.5}, "tau must be >= 0"),
        (EmdConfig, {"theta2": np.inf}, "theta2 must be a finite number, not inf"),
        (SstConfig, {"n_voices": 3}, "n_voices must be >= 4"),
        (VncmdConfig, {"K": 1, "init_if_hz": (None,)}, r"init_if_hz must be a tuple of finite numbers, not \(None,\)"),
        (VncmdConfig, {"K": 1, "init_if_hz": [30.0]}, r"init_if_hz must be a tuple of finite numbers, not \[30.0\]"),
        (S2Config, {"rng_seed": -1}, "rng_seed must be >= 0"),
        (S2Config, {"carrier_hz": np.nan}, "carrier_hz must be a finite number, not nan"),
    ],
)
def test_config_names_the_bad_field(cls, fields, message):
    with pytest.raises(ContractViolation, match=message):
        cls(**fields)


def test_numbers_keep_their_type():
    """An int in a float field stays an int, so manifests do not change; numpy scalars count."""
    cfg = VmdConfig(K=np.int64(2), alpha=500, tol=np.float32(1e-3))
    assert type(cfg.alpha) is int and cfg.K == 2
    assert SsaConfig(window_len=None, hop=None).hop is None


@pytest.mark.parametrize("w0", [1e18, 1e100, 1e200, 1e300])
def test_morlet_w0_past_its_admissibility_rejected(w0):
    """Past 2**57 the admissibility integral collapses to 0, which reconstruction divides by."""
    with pytest.raises(ContractViolation, match="morlet_w0"):
        SstConfig(morlet_w0=w0)


def test_morlet_w0_sweep_records_contract_rows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_param_sweep("sst", "morlet_w0", [1e300, 1e200], "s2")
    assert [row["error"].split(":")[0] for row in rows] == ["ContractViolation"] * 2
    assert all("morlet_w0" in row["error"] for row in rows)


@pytest.mark.parametrize(
    "fields, message",
    [({"n_realizations": 2.5}, "n_realizations must be an integer, not 2.5"),
     ({"n_realizations": 1}, "n_realizations must be >= 2"),
     ({"base_seed": -1}, "base_seed must be >= 0"),
     ({"snr_grid_db": (12.0, np.nan)}, "snr_grid_db must be a tuple of finite numbers")],
)
def test_noise_spec_checks_sizes_and_seeds(fields, message):
    with pytest.raises(ContractViolation, match=message):
        NoiseSuiteSpec(method="vmd", signal="s2", **fields)


def test_alignment_suite_rejects_a_negative_seed(monkeypatch):
    monkeypatch.setattr("sigdecomp.bench.gen_mv_test", lambda: pytest.fail("the signal was built"))
    with pytest.raises(ContractViolation, match="base_seed must be >= 0"):
        run_alignment_suite("memd", 10.0, base_seed=-1)


@pytest.mark.parametrize(
    "kwargs, name", [({"fs": np.inf}, "fs"), ({"fs": np.nan}, "fs"), ({"duration_s": np.inf}, "duration_s"),
                     ({"duration_s": 0.0}, "duration_s"), ({"fs": 1e308}, r"duration_s \* fs"), ({"fs": 10**400}, "fs")],
)
def test_mv_signal_names_a_bad_size(kwargs, name):
    with pytest.raises(ContractViolation, match=name):
        gen_mv_test(**kwargs)


def run_cli(*argv) -> tuple[int, list[str]]:
    """Exit code and stderr lines of one in-process CLI call, with every warning an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize(
    "argv, named",
    [
        (("synth", "--signal", "s2", "--seed", "-1"), "rng_seed"),
        (("synth", "--signal", "mv", "--fs", "inf"), "fs"),
        (("synth", "--signal", "mv", "--fs", "1e308"), "fs"),
        (("synth", "--signal", "mv", "--fs", "nan"), "fs"),
        (("synth", "--signal", "mv", "--duration", "inf"), "duration_s"),
        (("bench", "--suite", "noise", "--method", "vmd", "--signal", "s2", "--seed", "-1"), "base_seed"),
        (("bench", "--suite", "noise", "--method", "vmd", "--signal", "s2", "--n", "1"), "n_realizations"),
        (("align", "--method", "memd", "--snr", "10", "--seed", "-1"), "base_seed"),
        (("decompose", "--method", "memd", "--input", "mv.csv", "--seed", "-1"), "seed"),
        (("bench", "--suite", "sweep", "--method", "vmd", "--signal", "s2", "--param", "K", "--values", "1e400"),
         "--values"),
        (("bench", "--suite", "sweep", "--method", "vmd", "--signal", "s2", "--param", "K", "--values", "nan"),
         "--values"),
        (("bench", "--suite", "sweep", "--method", "vmd", "--signal", "s2", "--param", "K", "--values", "2,inf"),
         "--values"),
    ],
)
def test_cli_usage_error_names_the_field_or_flag(argv, named, tmp_path, monkeypatch):
    """Exit 2 with one stderr line naming what was wrong, before any decompose
    runs, and no file written."""
    monkeypatch.chdir(tmp_path)
    if "--input" in argv:
        assert run_cli("synth", "--signal", "mv", "--out", argv[argv.index("--input") + 1])[0] == 0
    before = set(tmp_path.iterdir())
    monkeypatch.setattr("sigdecomp.bench.decompose", lambda *a: pytest.fail("a decompose ran"))
    out = {"synth": ("--out", "out.csv"), "decompose": ("--outdir", "d")}.get(argv[0], ("--out", "out.json"))
    code, err = run_cli(*argv, *out)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert set(tmp_path.iterdir()) == before
