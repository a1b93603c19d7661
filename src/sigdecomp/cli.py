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
from .core import AlignedDecomposition, ContractViolation, Decomposition, Diverged, MultichannelSignal, NumericalFailure
from .core import Signal, _is_finite_number
from .multivariate import memd_decompose, mvmd_decompose  # noqa: F401 -- perfbench's ENTRY_SITES probe them here
from .spectral import hilbert_spectrum
from .synth import DEFAULT_GAP, GapSpec, S2Config, gen_mv_test, gen_s1, gen_s2

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


#: decompose flag -> (config field it sets, value type, help); a flag the
#: method's config lacks is a usage error
_DECOMPOSE_FLAGS = {
    "--k": ("K", int, None),
    "--alpha": ("alpha", float, None),
    "--tau": ("tau", float, None),
    "--mu": ("mu", float, None),
    "--init-if": ("init_if_hz", _float_tuple, "comma-separated initial frequencies (Hz)"),
    "--l": ("L", int, "embedding dimension"),
    "--epsilon": ("epsilon", float, None),
    "--start-band": ("start_band", int, None),
    "--max-step": ("max_step", int, None),
    "--gamma": ("gamma", float, None),
    "--m-directions": ("M", int, None),
    "--seed": ("seed", int, None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigdecomp",
        description="Signal decomposition methods and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a benchmark signal as CSV")
    p_synth.add_argument("--signal", required=True, choices=("s1", "s2", "mv"))
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int, help="s2 only (default 0)")
    p_synth.add_argument("--gap-start", type=float, help=f"s1 only (default {DEFAULT_GAP[0]})")
    p_synth.add_argument("--gap-end", type=float, help=f"s1 only (default {DEFAULT_GAP[1]})")
    p_synth.add_argument("--no-gap", action="store_true", default=None, help="s1 only")
    p_synth.add_argument("--duration", type=float, help="mv only")
    p_synth.add_argument("--fs", type=float, help="mv only")

    p_dec = sub.add_parser("decompose", help="decompose a CSV signal")
    p_dec.add_argument("--method", required=True, choices=bench.UNIVARIATE_METHODS + bench.MULTICHANNEL_METHODS)
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--outdir", default="decomposition")
    p_dec.add_argument("--fs", type=float, default=None, help="sample rate when the file has no header")
    p_dec.add_argument("--column", type=int, help="column for univariate methods on multicolumn files (default 0)")
    p_dec.add_argument("--signal-profile", choices=bench.SIGNAL_IDS, default="s1",
                       help="which recipe's defaults to start from")
    for flag, (key, kind, help_text) in _DECOMPOSE_FLAGS.items():
        p_dec.add_argument(flag, dest=key, type=kind, default=None, help=help_text)

    p_tf = sub.add_parser("tf", help="render a time-frequency grid as CSV")
    p_tf.add_argument("--input", help="signal CSV (rendered as its own single mode)")
    p_tf.add_argument("--indir", help="decomposition directory from `decompose`")
    p_tf.add_argument("--out", required=True)
    p_tf.add_argument("--bins", type=int, default=256)
    p_tf.add_argument("--fmax", type=float, default=None)
    p_tf.add_argument("--fs", type=float, default=None, help="--input only: sample rate when the file has no header")

    p_bench = sub.add_parser("bench", help="run an experiment suite")
    p_bench.add_argument("--suite", required=True, choices=("accuracy", "noise", "sweep"))
    p_bench.add_argument("--method", required=True, choices=bench.UNIVARIATE_METHODS)
    p_bench.add_argument("--signal", required=True, choices=bench.SIGNAL_IDS)
    p_bench.add_argument("--out", default=None, help="JSON output path (CSV written alongside for noise)")
    p_bench.add_argument("--n", type=int, help="noise: realizations (default 50)")
    p_bench.add_argument("--seed", type=int, help="noise: seed of the first realization (default 0)")
    p_bench.add_argument(
        "--snr-grid", type=_float_tuple, help="noise: comma-separated SNR values in dB (default 24 down to 3 by 3)"
    )
    p_bench.add_argument("--param", type=str, default=None, help="sweep: parameter name")
    p_bench.add_argument("--values", type=str, default=None, help="sweep: comma-separated values")

    p_align = sub.add_parser("align", help="multichannel mode-alignment study")
    p_align.add_argument("--method", required=True, choices=bench.ALIGNMENT_METHODS)
    p_align.add_argument("--snr", type=float, required=True)
    p_align.add_argument("--seed", type=int, default=0)
    p_align.add_argument("--out", default=None)
    return parser


#: synth flag (argparse dest) -> the one signal it applies to
_SYNTH_FLAGS = {"seed": "s2", "gap_start": "s1", "gap_end": "s1", "no_gap": "s1", "duration": "mv", "fs": "mv"}
#: bench flag (argparse dest) -> the one suite it applies to
_BENCH_FLAGS = {"n": "noise", "seed": "noise", "snr_grid": "noise", "param": "sweep", "values": "sweep"}


def _check_flag_owners(args, owners: dict[str, str], chosen: str) -> None:
    """A flag given with a signal or suite other than its owner in
    ``owners`` would be ignored: that is a usage error."""
    for key, owner in owners.items():
        if getattr(args, key) is not None and owner != chosen:
            raise ContractViolation(f"--{key.replace('_', '-')} applies to {owner} only, not {chosen}")


def _cmd_synth(args) -> int:
    _check_flag_owners(args, _SYNTH_FLAGS, args.signal)
    if args.signal == "mv":
        kwargs = {key: v for key, v in (("duration_s", args.duration), ("fs", args.fs)) if v is not None}
        mv, _ = gen_mv_test(**kwargs)
        cols, fs = {f"ch{c+1}": mv.channels[c] for c in range(mv.n_channels)}, mv.sample_rate_hz
    else:
        if args.signal == "s1":
            start = DEFAULT_GAP[0] if args.gap_start is None else args.gap_start
            end = DEFAULT_GAP[1] if args.gap_end is None else args.gap_end
            composite, refs = gen_s1(None if args.no_gap else GapSpec(start, end))
        else:
            composite, refs = gen_s2(S2Config(rng_seed=args.seed or 0))
        cols = {args.signal: composite.samples}
        cols.update({f"{args.signal}{i}": r.samples for i, r in enumerate(refs, start=1)})
        fs = composite.sample_rate_hz
    sdio.write_signals_csv(args.out, cols, fs)
    return EXIT_OK


def _collect_overrides(args) -> dict:
    """Config field -> value for every decompose flag given; ``--init-if``
    sets ``K`` to its count unless ``--k`` is given too."""
    overrides = {key: v for key, _, _ in _DECOMPOSE_FLAGS.values() if (v := getattr(args, key)) is not None}
    if "init_if_hz" in overrides:
        overrides.setdefault("K", len(overrides["init_if_hz"]))
    return overrides


def _cmd_decompose(args) -> int:
    if args.column is not None and args.method in bench.MULTICHANNEL_METHODS:
        raise ContractViolation(f"--column applies to univariate methods only, not {args.method}")
    cfg = bench.effective_config(args.method, args.signal_profile, overrides=_collect_overrides(args))
    loaded = sdio.read_csv_signal(args.input, args.fs)
    if args.method in bench.MULTICHANNEL_METHODS:
        if isinstance(loaded, Signal):
            raise ContractViolation("multivariate methods need a multicolumn input")
        x = loaded
    else:
        column = args.column or 0
        n_columns = loaded.n_channels if isinstance(loaded, MultichannelSignal) else 1
        if not 0 <= column < n_columns:
            raise ContractViolation(f"--column {column} is out of range for {n_columns} column(s)")
        x = loaded.channel(column) if n_columns > 1 else loaded
    d = bench.decompose(args.method, x, cfg)
    sdio.write_decomposition(d, args.outdir, method=args.method, config=cfg, original=x)
    print(f"wrote {d.n_modes} modes to {args.outdir}")
    return EXIT_OK


def _cmd_tf(args) -> int:
    if bool(args.input) == bool(args.indir):
        raise ContractViolation("tf needs exactly one of --input or --indir")
    if args.fs is not None and args.indir:
        raise ContractViolation("--fs applies to --input only, not --indir")
    if args.indir:
        d, _ = sdio.read_decomposition(args.indir)
        if isinstance(d, AlignedDecomposition):
            d = d.channel(0)
    else:
        sig = sdio.read_csv_signal(args.input, args.fs)
        if isinstance(sig, MultichannelSignal):
            sig = sig.channel(0)
        d = Decomposition.of([sig.samples], np.zeros(len(sig)), sig.sample_rate_hz)
    fs = d.residual.sample_rate_hz
    fmax = args.fmax if args.fmax is not None else fs / 2.0
    grid = hilbert_spectrum(d, args.bins, fmax)
    sdio.write_tfgrid_csv(args.out, grid)
    print(f"wrote {grid.energy.shape[0]}x{grid.energy.shape[1]} grid to {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    _check_flag_owners(args, _BENCH_FLAGS, args.suite)
    if args.suite == "accuracy":
        tic = time.perf_counter()
        report, _ = bench.run_accuracy(args.method, args.signal)
        payload = {
            "suite": "accuracy",
            "method": args.method,
            "signal": args.signal,
            "elapsed_s": time.perf_counter() - tic,
            "report": sdio.to_jsonable(report),
        }
    elif args.suite == "noise":
        given = (("snr_grid_db", args.snr_grid), ("n_realizations", args.n), ("base_seed", args.seed))
        spec = bench.NoiseSuiteSpec(args.method, args.signal, **{k: v for k, v in given if v is not None})
        result = bench.run_noise_suite(spec)
        payload = {
            "suite": "noise",
            "method": args.method,
            "signal": args.signal,
            "n_realizations": spec.n_realizations,
            "base_seed": spec.base_seed,
            "rows": result.to_rows(),
            "raw_totals_db": {str(k): list(v) for k, v in result.raw_totals_db.items()},
            "elapsed_s": {str(k): list(v) for k, v in result.elapsed_s.items()},
        }
        if args.out:
            lines = ["snr_db,mean_db,std_db,failures"]
            lines += [
                f"{r['snr_db']},{'' if r['mean_db'] is None else r['mean_db']},{r['std_db']},{r['failures']}"
                for r in result.to_rows()
            ]
            Path(args.out).with_suffix(".csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        if not args.param or not args.values:
            raise ContractViolation("sweep needs --param and --values")
        try:
            values = [float(v) if "." in v or "e" in v.lower() else int(v) for v in args.values.split(",")]
        except ValueError:
            values = [None]
        if not all(map(_is_finite_number, values)):
            raise ContractViolation(f"--values must be comma-separated finite numbers, not {args.values}")
        rows = bench.run_param_sweep(args.method, args.param, values, args.signal)
        payload = {
            "suite": "sweep",
            "method": args.method,
            "signal": args.signal,
            "param": args.param,
            "rows": [
                {"value": row["value"], "total_qrf_db": row.get("total_qrf_db"), "error": row.get("error")}
                for row in rows
            ],
        }
    return _emit_json(payload, args.out)


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
    return _emit_json(payload, args.out)


def _emit_json(payload: dict, out: str | None) -> int:
    """Write ``payload`` to ``out``, or print it when no path is given."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(text)
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, sdio.CsvFormatError) else EXIT_USAGE
    except (Diverged, NumericalFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # numpy's message says how much was asked for
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
