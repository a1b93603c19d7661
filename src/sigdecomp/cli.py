"""Command-line frontend.

Subcommands: ``synth`` (generate benchmark signals), ``decompose`` (run a
method on a CSV signal), ``tf`` (render a time-frequency grid), ``bench``
(accuracy / noise / parameter-sweep suites), ``align`` (multichannel
alignment study).

Exit codes are a stable scripting contract: 0 success, 2 usage error,
3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bench, io as sdio
from .core import ContractViolation, Diverged, MultichannelSignal, NumericalFailure, Signal
from .multivariate import MemdConfig, MvmdConfig, memd_decompose, mvmd_decompose
from .spectral import hilbert_spectrum
from .synth import GapSpec, S2Config, gen_mv_test, gen_s1, gen_s2

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigdecomp",
        description="Signal decomposition methods and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a benchmark signal as CSV")
    p_synth.add_argument("--signal", required=True, choices=("s1", "s2", "mv"))
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--gap-start", type=float, default=4.0)
    p_synth.add_argument("--gap-end", type=float, default=5.0)
    p_synth.add_argument("--no-gap", action="store_true")
    p_synth.add_argument("--duration", type=float, default=None)
    p_synth.add_argument("--fs", type=float, default=None)

    p_dec = sub.add_parser("decompose", help="decompose a CSV signal")
    p_dec.add_argument("--method", required=True, choices=bench.UNIVARIATE_METHODS + ("memd", "mvmd"))
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--outdir", default="decomposition")
    p_dec.add_argument("--fs", type=float, default=None, help="sample rate when the file has no header")
    p_dec.add_argument("--column", type=int, default=0, help="column for univariate methods on multicolumn files")
    p_dec.add_argument("--signal-profile", choices=bench.SIGNAL_IDS, default="s1",
                       help="which recipe's defaults to start from")
    p_dec.add_argument("--k", type=int, default=None)
    p_dec.add_argument("--alpha", type=float, default=None)
    p_dec.add_argument("--tau", type=float, default=None)
    p_dec.add_argument("--mu", type=float, default=None)
    p_dec.add_argument("--init-if", type=str, default=None, help="comma-separated initial frequencies (Hz)")
    p_dec.add_argument("--l", type=int, default=None, help="embedding dimension")
    p_dec.add_argument("--epsilon", type=float, default=None)
    p_dec.add_argument("--start-band", type=int, default=None)
    p_dec.add_argument("--max-step", type=int, default=None)
    p_dec.add_argument("--gamma", type=float, default=None)
    p_dec.add_argument("--m-directions", type=int, default=None)
    p_dec.add_argument("--seed", type=int, default=0)

    p_tf = sub.add_parser("tf", help="render a time-frequency grid as CSV")
    p_tf.add_argument("--input", help="signal CSV (rendered as its own single mode)")
    p_tf.add_argument("--indir", help="decomposition directory from `decompose`")
    p_tf.add_argument("--out", required=True)
    p_tf.add_argument("--bins", type=int, default=256)
    p_tf.add_argument("--fmax", type=float, default=None)
    p_tf.add_argument("--fs", type=float, default=None)

    p_bench = sub.add_parser("bench", help="run an experiment suite")
    p_bench.add_argument("--suite", required=True, choices=("accuracy", "noise", "sweep"))
    p_bench.add_argument("--method", required=True, choices=bench.UNIVARIATE_METHODS)
    p_bench.add_argument("--signal", required=True, choices=bench.SIGNAL_IDS)
    p_bench.add_argument("--out", default=None, help="JSON output path (CSV written alongside for noise)")
    p_bench.add_argument("--n", type=int, default=50, help="noise realizations")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--snr-grid", type=str, default=None, help="comma-separated SNR values in dB")
    p_bench.add_argument("--param", type=str, default=None, help="sweep: parameter name")
    p_bench.add_argument("--values", type=str, default=None, help="sweep: comma-separated values")

    p_align = sub.add_parser("align", help="multichannel mode-alignment study")
    p_align.add_argument("--method", required=True, choices=bench.ALIGNMENT_METHODS)
    p_align.add_argument("--snr", type=float, required=True)
    p_align.add_argument("--seed", type=int, default=0)
    p_align.add_argument("--out", default=None)
    return parser


def _cmd_synth(args) -> int:
    if args.signal == "s1":
        gap = None if args.no_gap else GapSpec(args.gap_start, args.gap_end)
        composite, refs = gen_s1(gap)
        cols = {"s1": composite.samples}
        for i, r in enumerate(refs, start=1):
            cols[f"s1{i}"] = r.samples
        sdio.write_signals_csv(args.out, cols, composite.sample_rate_hz)
    elif args.signal == "s2":
        composite, refs = gen_s2(S2Config(rng_seed=args.seed))
        cols = {"s2": composite.samples, "s21": refs[0].samples, "s22": refs[1].samples}
        sdio.write_signals_csv(args.out, cols, composite.sample_rate_hz)
    else:
        kwargs = {}
        if args.duration is not None:
            kwargs["duration_s"] = args.duration
        if args.fs is not None:
            kwargs["fs"] = args.fs
        mv, _ = gen_mv_test(**kwargs)
        cols = {f"ch{c+1}": mv.channels[c] for c in range(mv.n_channels)}
        sdio.write_signals_csv(args.out, cols, mv.sample_rate_hz)
    return EXIT_OK


def _given(args, mapping: dict[str, str]) -> dict:
    """Config fields for the flags in ``mapping`` that the user gave."""
    return {key: getattr(args, attr) for attr, key in mapping.items() if getattr(args, attr) is not None}


def _collect_overrides(args) -> dict:
    mapping = {
        "k": "K",
        "alpha": "alpha",
        "tau": "tau",
        "mu": "mu",
        "l": "L",
        "epsilon": "epsilon",
        "start_band": "start_band",
        "max_step": "max_step",
        "gamma": "gamma",
    }
    overrides = _given(args, mapping)
    if args.init_if is not None:
        overrides["init_if_hz"] = tuple(float(v) for v in args.init_if.split(","))
        overrides["K"] = len(overrides["init_if_hz"])
    return overrides


def _cmd_decompose(args) -> int:
    loaded = sdio.read_csv_signal(args.input, args.fs)
    if args.method in ("memd", "mvmd"):
        if isinstance(loaded, Signal):
            raise ContractViolation("multivariate methods need a multicolumn input")
        # pass only the flags given, so the defaults live in the configs
        if args.method == "memd":
            cfg = MemdConfig(seed=args.seed, **_given(args, {"m_directions": "M"}))
            aligned = memd_decompose(loaded, cfg)
        else:
            cfg = MvmdConfig(**_given(args, {"k": "K", "alpha": "alpha", "tau": "tau"}))
            aligned, _ = mvmd_decompose(loaded, cfg)
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        fs = loaded.sample_rate_hz
        files = []
        for k in range(aligned.n_modes):
            name = f"mode_{k+1:02d}.csv"
            cols = {f"ch{c+1}": aligned.channel_modes[c][k].samples for c in range(aligned.n_channels)}
            sdio.write_signals_csv(outdir / name, cols, fs)
            files.append(name)
        cols = {f"ch{c+1}": aligned.residuals[c].samples for c in range(aligned.n_channels)}
        sdio.write_signals_csv(outdir / "residual.csv", cols, fs)
        manifest = {
            "method": args.method,
            "config": sdio._config_to_jsonable(cfg),
            "sample_rate_hz": fs,
            "n_modes": aligned.n_modes,
            "n_channels": aligned.n_channels,
            "mode_files": files,
            "residual_file": "residual.csv",
            "center_freqs_hz": list(aligned.center_freqs_hz) if aligned.center_freqs_hz else None,
        }
        with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
        print(f"wrote {aligned.n_modes} modes to {outdir}")
        return EXIT_OK

    n_columns = loaded.n_channels if isinstance(loaded, MultichannelSignal) else 1
    if not 0 <= args.column < n_columns:
        raise ContractViolation(f"--column {args.column} is out of range for {n_columns} column(s)")
    x = loaded.channel(args.column) if n_columns > 1 else loaded
    overrides = _collect_overrides(args)
    d = bench.decompose(args.method, x, args.signal_profile, noisy=False, overrides=overrides or None)
    cfgs = bench.default_configs(args.method, args.signal_profile)
    sdio.write_decomposition(d, args.outdir, method=args.method, config=cfgs.get("cfg"), original=x)
    print(f"wrote {d.n_modes} modes to {args.outdir}")
    return EXIT_OK


def _cmd_tf(args) -> int:
    if bool(args.input) == bool(args.indir):
        raise ContractViolation("tf needs exactly one of --input or --indir")
    if args.indir:
        d, _ = sdio.read_decomposition(args.indir)
    else:
        sig = sdio.read_csv_signal(args.input, args.fs)
        if isinstance(sig, MultichannelSignal):
            sig = sig.channel(0)
        from .core import Decomposition

        zero = Signal(np.zeros(len(sig)), sig.sample_rate_hz)
        d = Decomposition(modes=(sig,), residual=zero)
    fs = d.residual.sample_rate_hz
    fmax = args.fmax if args.fmax is not None else fs / 2.0
    grid = hilbert_spectrum(d, args.bins, fmax)
    sdio.write_tfgrid_csv(args.out, grid)
    print(f"wrote {grid.energy.shape[0]}x{grid.energy.shape[1]} grid to {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.suite == "accuracy":
        tic = time.perf_counter()
        report, _ = bench.run_accuracy(args.method, args.signal)
        payload = {
            "suite": "accuracy",
            "method": args.method,
            "signal": args.signal,
            "elapsed_s": time.perf_counter() - tic,
            "report": report.to_dict(),
        }
    elif args.suite == "noise":
        grid = (
            tuple(float(v) for v in args.snr_grid.split(","))
            if args.snr_grid
            else bench.DEFAULT_SNR_GRID_DB
        )
        spec = bench.NoiseSuiteSpec(
            method=args.method,
            signal=args.signal,
            snr_grid_db=grid,
            n_realizations=args.n,
            base_seed=args.seed,
        )
        result = bench.run_noise_suite(spec)
        payload = {
            "suite": "noise",
            "method": args.method,
            "signal": args.signal,
            "n_realizations": args.n,
            "base_seed": args.seed,
            "rows": result.to_rows(),
            "raw_totals_db": {str(k): list(v) for k, v in result.raw_totals_db.items()},
        }
        if args.out:
            csv_path = Path(args.out).with_suffix(".csv")
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write("snr_db,mean_db,std_db,failures\n")
                for row in result.to_rows():
                    fh.write(f"{row['snr_db']},{row['mean_db']},{row['std_db']},{row['failures']}\n")
    else:
        if not args.param or not args.values:
            raise ContractViolation("sweep needs --param and --values")
        values = [float(v) if "." in v or "e" in v.lower() else int(v) for v in args.values.split(",")]
        rows = bench.run_param_sweep(args.method, args.param, values, args.signal)
        payload = {
            "suite": "sweep",
            "method": args.method,
            "signal": args.signal,
            "param": args.param,
            "rows": [
                {
                    "value": row["value"],
                    "total_qrf_db": row.get("total_qrf_db"),
                    "error": row.get("error"),
                }
                for row in rows
            ],
        }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def _cmd_align(args) -> int:
    score = bench.run_alignment_suite(args.method, args.snr, args.seed)
    payload = {
        "method": args.method,
        "snr_db": args.snr,
        "seed": args.seed,
        "passed": score.passed,
        "tolerance_hz": score.tolerance_hz,
        "row_to_mode": list(score.row_to_mode),
        "dominant_freqs_hz": [list(row) for row in score.dominant_freqs_hz],
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text if not args.out else f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "decompose": _cmd_decompose,
    "tf": _cmd_tf,
    "bench": _cmd_bench,
    "align": _cmd_align,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ContractViolation, ValueError) as exc:
        if isinstance(exc, sdio.CsvFormatError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (Diverged, NumericalFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
