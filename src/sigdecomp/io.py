"""CSV/JSON file formats: signal files, decomposition bundles, T-F grids.

Signal CSV layout: a first line ``# sample_rate=<hz>``, a header row of
column names, then one row per sample.  Values are written with repr
round-trip precision (17 significant digits), so write/read cycles are
bit-exact.  One column reads back as a single signal, several as a
multichannel signal.  The writer refuses non-finite cells and a rate that
is not a positive finite number, as the reader does.  The reader skips a
UTF-8 byte-order mark and parses cells with numpy's float parser: Python's
float syntax without ``_`` separators or non-ASCII digits.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np

from .core import ContractViolation, Decomposition, MultichannelSignal, Signal
from .multivariate import AlignedDecomposition
from .spectral import TFGrid


class CsvFormatError(ValueError):
    """Malformed signal file (bad header, ragged, non-numeric or non-finite rows)."""


def write_signals_csv(
    path: str | Path, columns: dict[str, np.ndarray], sample_rate_hz: float
) -> None:
    """Write named equal-length sample columns with a sample-rate header;
    a column or rate the reader would reject raises before the file opens."""
    names = list(columns)
    arrays = [np.asarray(columns[n], dtype=np.float64) for n in names]
    if len({a.size for a in arrays}) != 1:
        raise ContractViolation("all columns must have equal length")
    rate = float(sample_rate_hz)
    if not (np.isfinite(rate) and rate > 0):
        raise ContractViolation(f"sample_rate_hz must be a positive finite number, not {rate!r}")
    bad = [n for n, a in zip(names, arrays) if not np.isfinite(a).all()]
    if bad:
        raise ContractViolation(f"column {bad[0]!r} has a non-finite cell")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# sample_rate=" + repr(rate) + "\n")
        fh.write(",".join(names) + "\n")
        for row in zip(*[a.tolist() for a in arrays]):
            fh.write(",".join(map(repr, row)) + "\n")


def read_csv_signal(
    path: str | Path, sample_rate_hz: float | None = None
) -> Signal | MultichannelSignal:
    """Read a signal CSV; one column gives a Signal, several a
    MultichannelSignal.

    The sample rate comes from the ``# sample_rate=`` header line unless
    overridden by the argument; missing both is an error.  A header rate
    that is not a positive finite number, and rows with non-numeric or
    non-finite cells or the wrong column count, are rejected with their
    line number.
    """
    path = Path(path)
    header_rate: float | None = None
    names: list[str] | None = None
    lines: list[str] = []
    linenos: list[int] = []  # file line of each data line
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("sample_rate="):
                    try:
                        header_rate = float(body.split("=", 1)[1])
                    except ValueError as exc:
                        raise CsvFormatError(f"line {lineno}: bad sample_rate header") from exc
                    # checked even when the caller overrides the rate: the file is malformed
                    if not (np.isfinite(header_rate) and header_rate > 0):
                        raise CsvFormatError(
                            f"line {lineno}: sample_rate header must be a positive finite number"
                        )
                continue
            if names is None:
                cells = line.split(",")
                try:
                    [float(c) for c in cells]
                except ValueError:
                    names = [c.strip() for c in cells]
                    continue
                names = [f"col{i}" for i in range(len(cells))]
            lines.append(line)
            linenos.append(lineno)
    if not lines:
        raise CsvFormatError(f"{path}: no data rows")
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(names):
        for line, lineno in zip(lines, linenos):  # name the first bad line
            if (found := line.count(",") + 1) != len(names):
                raise CsvFormatError(f"line {lineno}: expected {len(names)} cells, found {found}")
            try:
                np.loadtxt([line], delimiter=",", comments=None, dtype=np.float64)
            except ValueError as exc:
                raise CsvFormatError(f"line {lineno}: non-numeric cell") from exc
    non_finite = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if non_finite.size:
        raise CsvFormatError(f"line {linenos[non_finite[0]]}: non-finite cell")
    rate = sample_rate_hz if sample_rate_hz is not None else header_rate
    if rate is None:
        raise CsvFormatError(f"{path}: no sample_rate header and none supplied")
    if data.shape[1] == 1:
        return Signal(data[:, 0], rate)
    return MultichannelSignal(data.T, rate)


def to_jsonable(obj) -> object:
    """A dataclass (a config or a report) as JSON-ready dicts, lists and scalars."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_decomposition(
    d: Decomposition | AlignedDecomposition,
    outdir: str | Path,
    method: str = "",
    config: object = None,
    original: Signal | MultichannelSignal | None = None,
) -> dict:
    """Write one CSV per mode plus the residual and a JSON manifest.

    A multichannel decomposition writes one ``ch<c>`` column per channel
    in every file.  A decomposition with instantaneous-frequency tracks
    also writes ``if_tracks.csv``, one column per mode.  The manifest
    records the method name, the fields of ``config``, the channel count,
    center frequencies and the track file when present, and the
    reconstruction error against ``original`` when supplied.  Returns the
    manifest dict.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if isinstance(d, AlignedDecomposition):
        channels = [d.channel(c) for c in range(d.n_channels)]
        names = [f"ch{c + 1}" for c in range(d.n_channels)]
    else:
        channels, names = [d], None
    fs = channels[0].residual.sample_rate_hz
    files = []
    for k in range(d.n_modes):
        name = f"mode_{k + 1:02d}.csv"
        labels = names or [name[:-4]]
        write_signals_csv(outdir / name, {c: ch.modes[k].samples for c, ch in zip(labels, channels)}, fs)
        files.append(name)
    labels = names or ["residual"]
    write_signals_csv(outdir / "residual.csv", {c: ch.residual.samples for c, ch in zip(labels, channels)}, fs)
    tracks = getattr(d, "if_tracks_hz", None)
    if tracks:
        write_signals_csv(outdir / "if_tracks.csv", {f[:-4]: t for f, t in zip(files, tracks)}, fs)

    manifest = {
        "method": method,
        "config": to_jsonable(config),
        "sample_rate_hz": fs,
        "n_modes": d.n_modes,
        "n_channels": len(channels),
        "mode_files": files,
        "residual_file": "residual.csv",
        "center_freqs_hz": list(d.center_freqs_hz) if d.center_freqs_hz else None,
        "if_tracks_file": "if_tracks.csv" if tracks else None,
        "reconstruction_error": d.reconstruction_error(original) if original is not None else None,
    }
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, allow_nan=False)
    return manifest


def read_decomposition(outdir: str | Path) -> tuple[Decomposition | AlignedDecomposition, dict]:
    """Load a bundle written by :func:`write_decomposition`.

    Multicolumn files give an :class:`AlignedDecomposition`, one-column
    files a :class:`Decomposition`, with its IF tracks when the bundle
    has them.  A manifest without its file names, or files that disagree
    in shape, rate or mode count, raise :class:`CsvFormatError`.
    """
    outdir = Path(outdir)
    path = outdir / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        mode_files, residual_file = list(manifest["mode_files"]), str(manifest["residual_file"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CsvFormatError(f"{path}: not a bundle manifest ({exc!r})") from exc
    residual = read_csv_signal(outdir / residual_file)
    modes = [read_csv_signal(outdir / str(name)) for name in mode_files]
    shape = _samples(residual).shape
    if any(_samples(m).shape != shape for m in modes):
        raise CsvFormatError(f"{outdir}: mode files and residual differ in shape")
    centers = manifest.get("center_freqs_hz") or None
    tracks = None
    if manifest.get("if_tracks_file"):
        tracks = np.atleast_2d(_samples(read_csv_signal(outdir / str(manifest["if_tracks_file"]))))
        if tracks.shape != (len(modes), shape[-1]):
            raise CsvFormatError(f"{outdir}: IF tracks and modes differ in shape")
        tracks = tuple(tracks)
    try:
        if isinstance(residual, Signal):
            d = Decomposition(modes=tuple(modes), residual=residual, center_freqs_hz=centers, if_tracks_hz=tracks)
        else:
            d = AlignedDecomposition(
                channel_modes=tuple(tuple(m.channel(c) for m in modes) for c in range(shape[0])),
                residuals=tuple(residual.channel(c) for c in range(shape[0])),
                sample_rate_hz=residual.sample_rate_hz,
                center_freqs_hz=centers,
            )
    except (TypeError, ValueError) as exc:
        raise CsvFormatError(f"{path}: {exc}") from exc
    return d, manifest


def _samples(sig: Signal | MultichannelSignal) -> np.ndarray:
    return sig.samples if isinstance(sig, Signal) else sig.channels


def write_tfgrid_csv(path: str | Path, grid: TFGrid) -> None:
    """T-F grid as CSV: first row the frequencies, first column the times.

    Every cell reads ``repr(float(v))``.  A Hilbert spectrum holds at most
    one value per mode and frame, so each row is one shared row of
    ``"0.0"`` cells with only the others spliced in: the nonzero ones and
    ``-0.0``, whose text is ``"-0.0"``.
    """
    energy = grid.energy
    n_f, n_t = energy.shape
    zeros = ",".join(["0.0"] * n_f)
    times, bins = np.nonzero(((energy != 0.0) | np.signbit(energy)).T)  # row by row
    cells_of = zip(bins.tolist(), [repr(v) for v in energy[bins, times].tolist()])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time_s," + ",".join(map(repr, grid.freqs_hz.tolist())) + "\n")
        for t, count in zip(grid.times_s.tolist(), np.bincount(times, minlength=n_t).tolist()):
            parts, start = [repr(t), ","], 0
            for i, text in itertools.islice(cells_of, count):
                parts += (zeros[start : 4 * i], text)
                start = 4 * i + 3  # past the "0.0" it replaces
            parts += (zeros[start:], "\n")
            fh.write("".join(parts))
