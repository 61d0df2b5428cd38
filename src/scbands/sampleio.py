"""CSV and JSON interchange for samples, bands, and experiment reports.

Sample CSV layout: one header row of grid coordinates, then one row per
observed function. Curves write plain coordinate headers ("0", "0.25", ...);
surfaces write "x:y" pairs in row-major lattice order (y fastest). Floats
are rendered with repr-faithful precision, so write/read round-trips are
bitwise exact.
"""

import contextlib
import csv
import json

import numpy as np

from .bands import band_to_dict
from .errors import _owned
from .fdata import FunctionalSample, Grid1D, Grid2D

__all__ = [
    "format_report_table",
    "read_sample",
    "write_sample",
    "write_band",
    "write_report_csv",
    "write_report_json",
]


def _fmt(x):
    return format(float(x), ".17g")


def write_sample(path, sample):
    """Write a functional sample to CSV (header = grid, one row per curve)."""
    header = [":".join(map(_fmt, node)) for node in zip(*sample.grid.lattice_coords())]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in sample.values:
            writer.writerow([_fmt(v) for v in row])


def _header_coords(cell, surface):
    """Coordinates of one header cell ("x:y" on a surface), or ValueError naming it."""
    parts = cell.split(":") if surface else [cell]
    if len(parts) == 1 + surface:
        try:
            return [float(p) for p in parts]
        except ValueError:
            pass
    raise ValueError(f"malformed {'surface' if surface else 'curve'} header cell {cell!r}")


def _parse_grid(header):
    if not header:
        raise ValueError("sample CSV has an empty header")
    surface = ":" in header[0]
    coords = np.array([_header_coords(cell, surface) for cell in header]).T
    if not surface:
        return Grid1D(coords[0])
    x_points, y_points = np.unique(coords[0]), np.unique(coords[1])
    if len(header) == x_points.size * y_points.size:
        grid = Grid2D(x_points, y_points)
        if all(map(np.array_equal, grid.lattice_coords(), coords)):
            return grid
    raise ValueError("surface header is not a row-major rectangular lattice")


def _scan(lines, width):
    """The reference reader of the data lines, csv.reader and float per cell:
    their values, or the error that names the first bad row by its line."""
    rows = {}  # file line number -> values
    for line_no, row in enumerate(csv.reader(lines), start=2):
        if not row:
            continue
        if len(row) != width:
            raise ValueError(f"row {line_no} has {len(row)} values, expected {width}")
        try:
            rows[line_no] = [float(cell) for cell in row]
        except ValueError:
            raise ValueError(f"row {line_no} holds a non-numeric value") from None
    if not rows:
        raise ValueError("sample CSV holds no data rows")
    values = np.array(list(rows.values()))
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {list(rows)[np.argmin(finite)]} holds a non-finite value")
    return values


def read_sample(path):
    """Read a functional sample written by write_sample.

    Validates the header (monotone coordinates, rectangular lattice for
    surfaces). numpy's C reader parses the data lines; where it refuses
    them (Python's float reads "1_0", numpy does not) or reads other than
    one finite row per non-blank line, the line scan reads them, so the
    files accepted, their values and the errors naming a bad row's 1-based
    line in the file are the scan's alone.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("sample CSV is empty") from None
        grid = _parse_grid(header)
        lines = fh.readlines()
    data = [line for line in lines if line.strip("\r\n")]  # the scan's non-blank rows
    limit = csv.field_size_limit()  # the scan refuses longer fields
    values = None
    if data and all(len(ln) <= limit or max(map(len, ln.split(","))) <= limit for ln in data):
        with contextlib.suppress(ValueError):
            values = np.loadtxt(data, delimiter=",", ndmin=2, comments=None, quotechar='"')
    if values is None or values.shape != (len(data), len(header)) or not np.isfinite(values).all():
        values = _scan(lines, len(header))
    # rows of len(header) == grid.n_points floats, each checked finite above
    return _owned(FunctionalSample, values=values, grid=grid)


def write_band(path, band):
    """Write a confidence band as a JSON document."""
    with open(path, "w") as fh:
        fh.write(json.dumps(band_to_dict(band), indent=2) + "\n")


def write_report_json(path, report):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


_COLUMNS = {
    "coverage": ["n", "method", "replications", "failures", "hits", "coverage", "se"],
    "width": ["n", "method", "replications", "failures", "mean_quantile", "two_se"],
}


def _columns(report):
    """Table columns of the report's kind; ValueError for an unknown kind."""
    kind = report.get("kind")
    if kind not in _COLUMNS:
        raise ValueError(f"unknown report kind {kind!r}")
    return _COLUMNS[kind]


def write_report_csv(path, report):
    """Flatten an experiment report's cells to CSV (one row per cell)."""
    columns = _columns(report)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for cell in report["cells"]:
            writer.writerow(
                ["" if cell[c] is None else cell[c] for c in columns]
            )


def format_report_table(report):
    """Render a report's cells as an aligned text table."""
    columns = _columns(report)

    def render(v):
        return "-" if v is None else f"{v:.4f}" if isinstance(v, float) else str(v)

    rows = [columns] + [[render(cell[c]) for c in columns] for cell in report["cells"]]
    widths = [max(len(r[i]) for r in rows) for i in range(len(columns))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)
