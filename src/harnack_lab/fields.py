"""Grid-sampled scalar fields: interpolation and CSV/JSON/SVG persistence.

A ScalarField is a function of (x, y) sampled on a rectangular tensor grid,
axis 0 being x and the remaining axes the y coordinates.  Monte Carlo
manufactured solutions, residual fields, and window averages all live in
this representation.  Serialization is deliberately boring and exact: CSV
with a '.' decimal and 17 significant digits, which recover the exact float64
(so files can be diffed across runs), a small JSON header with the grid
metadata, and a self-contained SVG heatmap for the two-dimensional case.
Every output file of the package goes through one writer, ``write_text``,
which replaces any file at the path with a new one.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ScalarField",
    "box_axes",
    "at_points",
    "grid_points",
    "step_axis",
    "csv_field",
    "format_float",
    "write_text",
    "write_csv",
    "write_json",
    "heatmap_svg",
    "line_plot_svg",
]

FLOAT_FMT = "%.17g"

# relative tolerance of ScalarField.spacing on unequal steps of one axis
_SPACING_RTOL = 1e-9


def format_float(x: float) -> str:
    """17 significant digits, enough to reconstruct the exact float64."""
    return FLOAT_FMT % float(x)


def csv_field(text: str) -> str:
    """``text`` as Python's csv module writes it with QUOTE_MINIMAL: quoted,
    with inner quotes doubled, when it holds a comma, a quote or a line break
    (``separable(lambda=1.5,gamma=2)`` does).  Pass text fields of a
    ``write_csv`` row through it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_text(path, text: str) -> None:
    """Write ``text`` as ASCII to a new file at ``path``, unlinking any file
    there first: a symlink is replaced, not written through, a read-only old
    file in a writable directory is replaced, and the new file takes the
    umask mode.  ext4 (``auto_da_alloc``) flushes a truncated and rewritten
    file on ``close``, a new one it does not.  Text that is not ASCII raises
    before anything is removed.  Nothing is fsynced."""
    data = text.encode("ascii")
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_bytes(data)


def write_csv(path, header, fmt: str, rows, footer=()) -> None:
    """Header line, one ``fmt % row`` line per row, then the preformatted
    ``footer`` lines, written as a new file by ``write_text``.

    Rows are tuples of Python numbers and strings (build them by zipping
    ``tolist()`` columns): ``%.17g`` of a Python float is ``format_float`` of
    the same value, so a row format made of ``FLOAT_FMT`` fields writes the
    bytes the per-value formatter would, in one formatting call per row.
    """
    lines = [",".join(header)]
    lines += [fmt % row for row in rows]
    lines += footer
    write_text(path, "\n".join(lines) + "\n")


def write_json(path, payload: dict) -> None:
    """Deterministic JSON, sorted keys, two-space indent and a trailing
    newline, written as a new file by ``write_text``."""
    write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def grid_points(axes) -> np.ndarray:
    """The nodes of the tensor grid on ``axes`` as rows of shape
    (n, len(axes)), in C order: the last axis varies fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def step_axis(lo: float, hi: float, step: float) -> np.ndarray:
    """Nodes from lo to hi about ``step`` apart: the span over the step,
    rounded, intervals of equal length, and at least one.  A step so small
    that the span over it is not finite is refused, as a lattice too large
    to allocate."""
    n = (hi - lo) / step
    if not np.isfinite(n):
        raise ValueError(f"a step of {step:g} over [{lo:g}, {hi:g}] "
                         "makes a lattice too large to allocate")
    return np.linspace(lo, hi, max(int(round(n)), 1) + 1)


def at_points(x, y, n_y: int):
    """The points of an ``at(x, y)`` call and the shape of its values.

    * One point: x a number, y of shape (n_y,); shape ().
    * Flat: x of shape (k,), y of shape (k, n_y), value i at (x[i], y[i]);
      shape (k,).  With n_y = 1, k numbers also make k points, and one
      point broadcasts against k, so ``at(0.3, ys)`` gives the values at
      every row of ys.
    * Grid: x of shape (nx, 1), the x-nodes as a column, against y of shape
      (m, n_y); value [i, j] at (x[i], y[j]), shape (nx, m).  This is the
      call ``ScalarField.sample`` makes of its ``fn``: elementwise work then
      runs once per x-node on the x side and once per y point on the y side.

    Returns x as (k,) or (nx, 1), y as (k, n_y) or (m, n_y), and the shape.
    Arrays of the protocol shapes come back as they are.
    """
    if np.ndim(x) == 2:
        x_col = np.asarray(x, dtype=float)
        if x_col.shape[1] != 1:
            raise ValueError(f"a grid call needs x of shape (nx, 1), got {x_col.shape}")
        y_arr = np.asarray(y, dtype=float).reshape(-1, n_y)
        return x_col, y_arr, (x_col.shape[0], y_arr.shape[0])
    x_arr = np.asarray(x, dtype=float).reshape(-1)
    y_arr = np.asarray(y, dtype=float).reshape(-1, n_y)
    k = max(x_arr.shape[0], y_arr.shape[0])
    # broadcast_to costs microseconds, so only a one-point side pays it
    if x_arr.shape[0] != k:
        x_arr = np.broadcast_to(x_arr, (k,))
    if y_arr.shape[0] != k:
        y_arr = np.broadcast_to(y_arr, (k, n_y))
    return x_arr, y_arr, () if np.ndim(x) == 0 and k == 1 else (k,)


def box_axes(
    x_lo: float, x_hi: float, nx: int, y_radius: float, ny: int, n_y_axes: int = 1
) -> tuple[np.ndarray, ...]:
    """Axes for a grid over [x_lo, x_hi] x [-y_radius, y_radius]^n_y_axes."""
    if nx < 2 or ny < 2:
        raise ValueError("need at least 2 nodes per axis")
    x = np.linspace(x_lo, x_hi, nx)
    y = np.linspace(-y_radius, y_radius, ny)
    return (x,) + (y,) * n_y_axes


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Values sampled on a tensor grid; axes[0] is x, axes[1:] are y1, y2, ...

    ``values[i, j, ...]`` is the sample at ``(axes[0][i], axes[1][j], ...)``.
    """

    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    name: str = "field"

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        values = np.asarray(self.values, dtype=float)
        if len(axes) < 2:
            raise ValueError("a field needs an x axis and at least one y axis")
        for a in axes:
            if a.ndim != 1 or a.size < 2:
                raise ValueError("each axis needs at least 2 nodes")
            if not np.all(np.diff(a) > 0):
                raise ValueError("axis nodes must be strictly increasing")
        if values.shape != tuple(a.size for a in axes):
            raise ValueError(
                f"values shape {values.shape} does not match axes "
                f"{tuple(a.size for a in axes)}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", values)

    # -- geometry ----------------------------------------------------------

    @property
    def n_y(self) -> int:
        return len(self.axes) - 1

    @property
    def axis_names(self) -> tuple[str, ...]:
        return ("x",) + tuple(f"y{i + 1}" for i in range(self.n_y))

    def spacing(self) -> tuple[float, ...]:
        """Per-axis grid step; raises if any axis is not uniform."""
        steps = []
        for name, a in zip(self.axis_names, self.axes):
            d = np.diff(a)
            step = float(d.mean())
            if np.any(np.abs(d - step) > _SPACING_RTOL * max(abs(step), 1.0)):
                raise ValueError(f"axis {name} is not uniformly spaced")
            steps.append(step)
        return tuple(steps)

    # -- evaluation ---------------------------------------------------------

    @classmethod
    def sample(cls, fn, axes, name: str = "field") -> "ScalarField":
        """Sample ``fn(x, y)`` on the grid of ``axes`` (x first, then y1, ...).

        ``fn`` is called once in the grid form of ``at_points``: x of shape
        (nx, 1), the x axis as a column, and y of shape (m, n_y), the
        ``grid_points`` of the y axes; its values must broadcast to (nx, m),
        value [i, j] being u at (x[i], y[j]).  An elementwise ``fn`` then
        does its y work once per y-node and its x work once per x-node.
        Values that do not broadcast raise ValueError.
        """
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        y = grid_points(axes[1:])
        values = np.empty(tuple(a.size for a in axes))
        values.reshape(axes[0].size, y.shape[0])[...] = fn(axes[0][:, None], y)
        return cls(axes, values, name)

    def at(self, x, y):
        """Multilinear interpolation at the points (x, y) of ``at_points``:
        a float for one point, shape (k,) for k points, shape (nx, m) for the
        grid form, whose x cells and weights are found once per x-node.
        Every form gives the bits of the flat call on the same points.

        Raises ValueError outside the grid support.
        """
        x_arr, y_arr, shape = at_points(x, y, self.n_y)
        coords = [x_arr] + [y_arr[:, k] for k in range(self.n_y)]
        for k, (a, p) in enumerate(zip(self.axes, coords)):
            if not np.logical_and(np.all(a[0] <= p), np.all(p <= a[-1])):
                raise ValueError(f"One of the requested xi is out of bounds in dimension {k}")
        # the cell of each point (a node on a cell's right edge belongs to the
        # next cell, the last node to the last cell) and the normalized
        # distances from its lower corner
        idx, dist = [], []
        for a, p in zip(self.axes, coords):
            i = np.clip(np.searchsorted(a, p, side="right") - 1, 0, a.size - 2)
            idx.append(i)
            dist.append((p - a[i]) / (a[i + 1] - a[i]))
        v = self.values
        # the corner terms summed in the order of scipy's RegularGridInterpolator
        # (linear), which this replaces bit for bit
        if len(idx) == 2:
            (i0, i1), (d0, d1) = idx, dist
            out = 0.0 + v[i0, i1] * (1 - d0) * (1 - d1)
            out = out + v[i0, i1 + 1] * (1 - d0) * d1
            out = out + v[i0 + 1, i1] * d0 * (1 - d1)
            out = out + v[i0 + 1, i1 + 1] * d0 * d1
        else:
            out = 0.0
            for corner in itertools.product((0, 1), repeat=len(idx)):
                weight = 1.0
                for c, d in zip(corner, dist):
                    weight = weight * (d if c else 1 - d)
                out = out + v[tuple(i + c for i, c in zip(idx, corner))] * weight
        return float(out[0]) if shape == () else out

    def node_points(self) -> tuple[np.ndarray, np.ndarray]:
        """All grid nodes as (x of shape (k,), y of shape (k, n_y)), C-order."""
        pts = grid_points(self.axes)
        return pts[:, 0], pts[:, 1:]

    # -- persistence ---------------------------------------------------------

    def to_csv(self, path) -> None:
        """One row per node in C order: the node's axis values, then its value.

        Each axis value is formatted with ``FLOAT_FMT`` once, the node
        prefixes are joined from those strings, and only the value is
        formatted per row; the bytes are those of one ``FLOAT_FMT`` per field.
        """
        axis_text = [[FLOAT_FMT % v for v in a.tolist()] for a in self.axes]
        prefixes = map(",".join, itertools.product(*axis_text))
        write_csv(path, self.axis_names + ("value",), "%s," + FLOAT_FMT,
                  zip(prefixes, self.values.reshape(-1).tolist()))

    def header_dict(self) -> dict:
        return {
            "kind": "scalar-field",
            "name": self.name,
            "axis_names": list(self.axis_names),
            "axis_counts": [int(a.size) for a in self.axes],
            "axis_lo": [float(a[0]) for a in self.axes],
            "axis_hi": [float(a[-1]) for a in self.axes],
            "value_min": float(self.values.min()),
            "value_max": float(self.values.max()),
        }

    def save(self, directory, stem: str | None = None) -> tuple[Path, Path]:
        """Write <stem>.csv and <stem>.json under directory; returns the paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        stem = stem or self.name
        csv_path = directory / f"{stem}.csv"
        json_path = directory / f"{stem}.json"
        self.to_csv(csv_path)
        write_json(json_path, self.header_dict())
        return csv_path, json_path


# ---------------------------------------------------------------------------
# SVG output.  Hand-rolled so the bytes are a pure function of the data; no
# plotting library puts timestamps or version strings in our outputs.
# ---------------------------------------------------------------------------

_PALETTE = (
    (0.267, 0.005, 0.329),
    (0.229, 0.322, 0.545),
    (0.127, 0.566, 0.551),
    (0.369, 0.789, 0.383),
    (0.993, 0.906, 0.144),
)


def heatmap_svg(field: ScalarField) -> str:
    """Deterministic SVG heatmap of a field with one y axis, titled with the
    field's name.

    Node (i, j) is drawn as a cell whose edges lie halfway between nodes.
    A cell's x edges depend only on its column i and its y edges only on its
    row j, so the pixel coordinates and their ``.2f`` strings are computed
    once per column and once per row; the colours of all cells come from one
    numpy pass over the palette, and each column of ``<rect>`` elements is
    one ``%`` of a format that holds the rows' strings.
    """
    if field.n_y != 1:
        raise ValueError("heatmap output needs exactly one y axis")
    xs, ys = field.axes
    vals = field.values
    lo, hi = float(vals.min()), float(vals.max())
    span = hi - lo if hi > lo else 1.0
    width, height, m = 640, 480, 50
    pw, ph = width - 2 * m, height - 2 * m

    # cell edges halfway between nodes, then their pixel positions
    xe = np.concatenate([[xs[0]], (xs[1:] + xs[:-1]) / 2, [xs[-1]]])
    ye = np.concatenate([[ys[0]], (ys[1:] + ys[:-1]) / 2, [ys[-1]]])
    xp = m + pw * (xe - xs[0]) / (xs[-1] - xs[0])
    yp = m + ph * (ys[-1] - ye) / (ys[-1] - ys[0])
    col_x = [f"{v:.2f}" for v in xp[:-1].tolist()]
    col_w = [f"{v:.2f}" for v in (xp[1:] - xp[:-1]).tolist()]
    row_y = [f"{v:.2f}" for v in yp[1:].tolist()]
    row_h = [f"{v:.2f}" for v in (yp[:-1] - yp[1:]).tolist()]

    # linear interpolation between palette knots; np.rint rounds half to
    # even like round()
    palette = np.array(_PALETTE)
    pos = np.clip((vals - lo) / span, 0.0, 1.0) * (len(_PALETTE) - 1)
    knot = np.minimum(pos.astype(np.int64), len(_PALETTE) - 2)
    w = (pos - knot)[..., None]
    rgb = np.rint(255 * ((1 - w) * palette[knot] + w * palette[knot + 1])).astype(np.int64)
    fills = (rgb[..., 0] << 16 | rgb[..., 1] << 8 | rgb[..., 2]).tolist()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # the rows' ``.2f`` strings hold no '%', so they can sit in the format
    column = "\n".join(f'<rect x="%s" y="{y0}" width="%s" height="{rh}" fill="#%06x"/>'
                       for y0, rh in zip(row_y, row_h))
    for x0, cw, col_fills in zip(col_x, col_w, fills):
        args = [x0, cw, 0] * len(row_y)
        args[2::3] = col_fills
        parts.append(column % tuple(args))
    parts.append(
        f'<rect x="{m}" y="{m}" width="{pw}" height="{ph}" fill="none" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{width / 2:.0f}" y="25" font-family="monospace" font-size="14" '
        f'text-anchor="middle">{field.name}</text>'
    )
    parts.append(
        f'<text x="{m}" y="{height - 12}" font-family="monospace" font-size="11">'
        f"x: [{format_float(xs[0])}, {format_float(xs[-1])}]  "
        f"y: [{format_float(ys[0])}, {format_float(ys[-1])}]  "
        f"value: [{format_float(lo)}, {format_float(hi)}]</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_plot_svg(
    xs, ys, title: str = "", x_label: str = "x", y_label: str = "y", log_y: bool = False
) -> str:
    """Deterministic SVG line plot with point markers."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size == 0:
        raise ValueError("need matching nonempty coordinate arrays")
    py_vals = np.log10(ys) if log_y else ys
    width, height, m = 640, 480, 60
    pw, ph = width - 2 * m, height - 2 * m
    x_lo, x_hi = float(xs.min()), float(xs.max())
    v_lo, v_hi = float(py_vals.min()), float(py_vals.max())
    x_span = x_hi - x_lo if x_hi > x_lo else 1.0
    v_span = v_hi - v_lo if v_hi > v_lo else 1.0

    def px(x):
        return m + pw * (x - x_lo) / x_span

    def py(v):
        return m + ph * (v_hi - v) / v_span

    pts = " ".join(f"{px(x):.2f},{py(v):.2f}" for x, v in zip(xs, py_vals))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{m}" y="{m}" width="{pw}" height="{ph}" fill="none" '
        'stroke="black" stroke-width="1"/>',
        f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" stroke-width="2"/>',
    ]
    for x, v in zip(xs, py_vals):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(v):.2f}" r="3" fill="#1f5fa8"/>')
    parts.append(
        f'<text x="{width / 2:.0f}" y="25" font-family="monospace" font-size="14" '
        f'text-anchor="middle">{title}</text>'
    )
    y_desc = f"log10({y_label})" if log_y else y_label
    parts.append(
        f'<text x="{m}" y="{height - 15}" font-family="monospace" font-size="11">'
        f"{x_label}: [{format_float(x_lo)}, {format_float(x_hi)}]  "
        f"{y_desc}: [{format_float(v_lo)}, {format_float(v_hi)}]</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
