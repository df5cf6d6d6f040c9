"""Raw trajectory ingestion.

Turns raw leader/follower position files into analysis-ready trajectories:

1. geodetic positions (if any) are projected to local planar meters,
2. gaps in the position series are filled by linear interpolation,
3. the series is resampled onto a uniform grid,
4. planar tracks are reduced to scalar longitudinal positions,
5. speeds and the follower acceleration are derived by differencing,
6. the result is trimmed and cut into segments.

Stages 1-3 pass plain arrays: time stamps ``t`` of shape (n,) and positions
``pos`` of shape (n, 4) with columns lead a, lead b, follow a, follow b,
where (a, b) is (x, y) in meters or (lat, lon) in degrees, as the file's
header alone decides, and NaN marks a missing coordinate.

Raw files are parsed a block of data lines at a time straight into arrays;
a file that is quoted or malformed anywhere is parsed again row by row
through the csv module, which alone raises the parse errors (see
:func:`parse_csv`).

The pipeline is deterministic: identical inputs produce bit-identical
trajectories, and noiseless uniform motion yields exactly constant speeds
and exactly zero accelerations.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Trajectory
from .errors import (
    GridTooLargeError,
    InsufficientDataError,
    InsufficientSpanError,
    NegativeGapError,
    NonFiniteValueError,
    NonMonotonicTimestampsError,
    PolarLatitudeError,
    SchemaMismatchError,
    UnparsableRowError,
)

__all__ = [
    "IngestConfig",
    "detect_schema",
    "parse_csv",
    "latlon_to_local",
    "project_records",
    "interpolate_gaps",
    "resample",
    "differentiate",
    "project_longitudinal",
    "derive_state_series",
    "segment",
    "ingest_file",
    "write_trajectory",
    "read_trajectory",
]

EARTH_RADIUS_M = 6_371_000.0
_BLOCK_SIZE = 1 << 16   # characters of data lines parse_csv reads at a time
_MAX_GRID_ROWS = 10_000_000   # resample's grid cap: an hour at 1 kHz is 3.6 M rows


# raw layouts by kind: the time stamp, then lead a, lead b, follow a, follow b
_LAYOUTS = {"planar": ("time_s", "lead_x", "lead_y", "follow_x", "follow_y"),
            "geodetic": ("time_s", "lead_lat", "lead_lon", "follow_lat", "follow_lon")}


@dataclass(frozen=True)
class IngestConfig:
    """Pipeline parameters.

    ``segment_mode`` selects between cutting fixed-length segments
    ("fixed", discarding the remainder) and keeping whole trajectories that
    exceed ``min_length`` ("min").  Durations count T * dt seconds and must
    be finite.
    """

    resample_dt: float = 1.0
    segment_length: float = 120.0
    min_length: float = 70.0
    trim_head: float = 0.0
    trim_tail: float = 0.0
    segment_mode: str = "fixed"

    def __post_init__(self):
        for name in ("resample_dt", "segment_length", "min_length", "trim_head", "trim_tail"):
            if not math.isfinite(getattr(self, name)):
                raise InsufficientDataError(f"{name} must be finite, got {getattr(self, name)}")
        if self.resample_dt <= 0:
            raise InsufficientSpanError(f"resample_dt must be > 0, got {self.resample_dt}")
        if not (self.segment_length >= self.min_length > 0):
            raise InsufficientDataError(
                f"need segment_length >= min_length > 0, got "
                f"{self.segment_length} and {self.min_length}"
            )
        if self.trim_head < 0 or self.trim_tail < 0:
            raise InsufficientDataError("trim durations must be >= 0")
        if self.segment_mode not in ("fixed", "min"):
            raise InsufficientDataError(f"unknown segment_mode {self.segment_mode!r}")


def detect_schema(header: Sequence[str], name: str = "raw file") -> str:
    """The layout, "planar" or "geodetic", whose columns the header of the
    file ``name`` holds (planar first, if it holds both)."""
    cols = set(header)
    for kind, names in _LAYOUTS.items():
        if cols.issuperset(names):
            return kind
    raise SchemaMismatchError(
        f"{name}: header {sorted(cols)} matches neither the planar nor the geodetic column set"
    )


def _check_increasing(t: np.ndarray, name: str) -> None:
    """Raise at the first time stamp that is not finite or not after the
    one before it (a NaN compares false, so it is tested on its own)."""
    bad = ~np.isfinite(t)
    bad[1:] |= t[1:] <= t[:-1]
    if bad.any():
        i = int(np.argmax(bad))
        if not np.isfinite(t[i]):
            raise NonFiniteValueError(f"{name}: row {i + 1}: timestamp {t[i]} is not finite")
        raise NonMonotonicTimestampsError(
            f"{name}: row {i + 1}: timestamp {t[i]} not after {t[i - 1]}"
        )


@contextmanager
def _csv_file(path: Path):
    """``path`` opened for the csv module, skipping a UTF-8 byte-order mark;
    text that is not UTF-8, or that the csv module refuses (such as a cell
    above its field size limit), raises :class:`SchemaMismatchError` naming
    it."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start:exc.start + 1].hex()
            raise SchemaMismatchError(
                f"{path.name}: not UTF-8 text (cannot decode byte 0x{byte})") from None
        except csv.Error as exc:
            raise SchemaMismatchError(f"{path.name}: {exc}") from None


def _parse_rows(reader, cols: list[int], names: Sequence[str], name: str) -> np.ndarray:
    """The (n, 5) table of a csv reader's data rows, parsed cell by cell.

    A blank or absent position cell is NaN; a blank time stamp or any
    non-numeric cell raises, unless an earlier row already breaks the
    time order, so the first bad row in file order decides the error.
    """
    flat: list[float] = []
    for idx, row in enumerate(filter(None, reader), start=1):
        for j, col in zip(cols, names):
            text = row[j] if j < len(row) else ""
            if text == "" and col != names[0]:
                flat.append(math.nan)
                continue
            try:
                flat.append(float(text))
            except ValueError:
                _check_increasing(np.array(flat[::5]), name)   # this row's time, if read
                what = f"cannot parse {col}={text!r}" if text else f"missing {col}"
                raise UnparsableRowError(idx, f"{name}: row {idx}: {what}") from None
    return np.array(flat, dtype=float).reshape(-1, 5)


def _parse_blocks(fh, width: int, cols: list[int]) -> np.ndarray:
    """The (n, 5) table of the data lines left in ``fh``, read in blocks of
    ``_BLOCK_SIZE`` characters cut at the last line end.

    Raises ValueError at the first block that is not plain (one with a
    quote, a bare ``\\r``, a line of other than ``width`` cells, a cell above
    the csv module's field size limit or a time cell that is blank or NaN)
    and at any cell that is not a number.
    """
    cells = itemgetter(*cols)
    parts, tail = [], ""
    while True:
        chunk = fh.read(_BLOCK_SIZE)
        text = tail + chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        text, tail = text[:cut], text[cut:]
        text = text.replace("\r\n", "\n")
        if '"' in text or "\r" in text:
            raise ValueError("quote or bare carriage return")
        rows = [line.split(",") for line in text.split("\n") if line]
        if set(map(len, rows)) - {width}:
            raise ValueError("a line without one cell per column")
        limit = csv.field_size_limit()   # only a block longer than it can hold such a cell
        if len(text) > limit and any(len(c) > limit for row in rows for c in row):
            raise ValueError("a cell above the csv module's field size limit")
        picked = [c or "nan" for row in rows for c in cells(row)]
        block = np.fromiter(map(float, picked), float, len(picked)).reshape(-1, 5)
        if np.isnan(block[:, 0]).any():
            raise ValueError("a blank or NaN time stamp")
        parts.append(block)
        if not chunk:
            return np.concatenate(parts)


def parse_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, str]:
    """Read time stamps ``t`` (n,), positions ``pos`` (n, 4) and the layout
    ``kind`` that :func:`detect_schema` finds in the header from a CSV file.

    A header that holds neither layout raises :class:`SchemaMismatchError`
    naming the file.  Empty cells become NaN (missing); non-numeric cells raise
    :class:`UnparsableRowError` with the 1-based data row index.  Timestamps
    must be present, finite (else :class:`NonFiniteValueError`) and strictly
    increasing.  Blank lines are skipped and a UTF-8 byte-order mark is
    ignored; a file that is not UTF-8 raises :class:`SchemaMismatchError`.

    Data lines are read in blocks of about 64 KiB, and each plain block (no
    quote, no bare ``\\r``, one cell per header column on every line, no cell
    above the csv module's field size limit, no blank or NaN time cell) is
    converted into an array in one pass over its layout's columns.  At the
    first block that is not plain, or at a cell that is not a number, the
    whole file is parsed again row by row through the csv module.  Only that
    path reads quoted or malformed files and raises parse errors, so each
    error keeps its row and message.
    """
    path = Path(path)
    with _csv_file(path) as fh:
        header = next(csv.reader(fh), [])
        kind = detect_schema(header, path.name)
        names = _LAYOUTS[kind]
        where = {c: j for j, c in enumerate(header)}   # a repeated name maps to its last column
        cols = [where[c] for c in names]
        try:
            table = _parse_blocks(fh, len(header), cols)
        except ValueError:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            table = _parse_rows(reader, cols, names, path.name)
    t = table[:, 0]
    _check_increasing(t, path.name)
    return t, table[:, 1:], kind


def latlon_to_local(lat: float | np.ndarray, lon: float | np.ndarray,
                    origin_lat: float, origin_lon: float,
                    earth_radius: float = EARTH_RADIUS_M) -> tuple:
    """Equirectangular projection of geodetic degrees to local meters.

    ``x = R * (lon - lon0) * pi/180 * cos(lat0 * pi/180)`` and
    ``y = R * (lat - lat0) * pi/180``, for scalars or arrays; NaN maps to
    NaN.  Adequate for tracks spanning a few kilometers away from the poles.
    """
    polar = np.abs(lat) >= 89.0
    if polar.any() or abs(origin_lat) >= 89.0:
        worst = np.asarray(lat)[polar][0] if polar.any() else origin_lat
        raise PolarLatitudeError(f"latitude too close to a pole: {worst}, {origin_lat}")
    rad = math.pi / 180.0
    x = earth_radius * (lon - origin_lon) * rad * math.cos(origin_lat * rad)
    y = earth_radius * (lat - origin_lat) * rad
    return x, y


def project_records(t: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convert geodetic positions (lat, lon) to planar meters (x, y).

    The origin is the first finite follower position.  A vehicle's position
    with either coordinate missing is missing in both.
    """
    known = np.isfinite(pos[:, 2]) & np.isfinite(pos[:, 3])
    if not known.any():
        raise InsufficientDataError("no finite follower position to anchor the projection")
    o_lat, o_lon = pos[np.argmax(known), 2:]
    lat, lon = pos[:, 0::2], pos[:, 1::2]
    both = np.isfinite(lat) & np.isfinite(lon)
    x, y = latlon_to_local(np.where(both, lat, math.nan), np.where(both, lon, math.nan),
                           o_lat, o_lon)
    out = np.empty_like(pos)
    out[:, 0::2], out[:, 1::2] = x, y
    return t, out


def interpolate_gaps(t: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fill missing position samples by linear interpolation in time.

    Each coordinate is interpolated between its known samples; rows that
    remain partially missing (leading/trailing gaps) are dropped.  Zero
    fully-known rows raise :class:`InsufficientDataError`.
    """
    if t.shape[0] == 0:
        raise InsufficientDataError("no records")
    filled = pos.copy()
    for j in range(4):
        known = np.isfinite(pos[:, j])
        if known.sum() >= 2:
            filled[~known, j] = np.interp(t[~known], t[known], pos[known, j])
            # only gaps BETWEEN known samples are valid interpolants
            outside = (t < t[known][0]) | (t > t[known][-1])
            filled[outside & ~known, j] = math.nan
    keep = np.isfinite(filled).all(axis=1)
    if not keep.any():
        raise InsufficientDataError("fewer than 1 fully-known record after gap filling")
    return t[keep], filled[keep]


def resample(t: np.ndarray, pos: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Resample onto the uniform grid t0, t0+dt, ... by linear interpolation.

    Positions must be gap-free (run :func:`interpolate_gaps` first); input
    already on the grid passes through.  Raises
    :class:`InsufficientSpanError` when the samples span less than ``dt``,
    and :class:`GridTooLargeError` when the grid would hold more than
    ``_MAX_GRID_ROWS`` rows.
    """
    if t.shape[0] < 2 or t[-1] - t[0] < dt:
        raise InsufficientSpanError(
            f"records span {0.0 if t.shape[0] == 0 else t[-1] - t[0]:.6g} s < dt = {dt}"
        )
    steps = float(t[-1] - t[0]) / dt + 1e-9   # a Python float: inf, not a warning, on overflow
    if steps >= _MAX_GRID_ROWS:
        raise GridTooLargeError(f"dt = {dt} makes a grid of {steps + 1:.6g} rows, "
                                f"above {_MAX_GRID_ROWS}")
    n = int(math.floor(steps)) + 1
    grid = t[0] + dt * np.arange(n)
    if n == t.shape[0] and np.allclose(grid, t, rtol=0, atol=1e-12):
        return t, pos
    out = np.empty((n, 4))
    for j in range(4):
        out[:, j] = np.interp(grid, t, pos[:, j])
    return grid, out


def differentiate(values: Sequence[float], dt: float) -> np.ndarray:
    """First-order differences divided by dt; output is one shorter."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        raise InsufficientDataError(f"need at least 2 values, got {values.shape[0]}")
    return np.diff(values) / dt


def project_longitudinal(lead_xy: np.ndarray,
                         follow_xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce planar tracks to scalar positions along the travel direction.

    Both vehicles are projected onto the unit vector of the follower's
    overall displacement (leader's, if the follower barely moves), with the
    follower's first position as origin.
    """
    lead_xy = np.asarray(lead_xy, dtype=float)
    follow_xy = np.asarray(follow_xy, dtype=float)
    disp = follow_xy[-1] - follow_xy[0]
    if np.hypot(*disp) < 1e-9:
        disp = lead_xy[-1] - lead_xy[0]
    norm = np.hypot(*disp)
    if norm < 1e-9:
        raise InsufficientDataError("neither vehicle moves; no travel direction")
    u = disp / norm
    origin = follow_xy[0]
    return (lead_xy - origin) @ u, (follow_xy - origin) @ u


def derive_state_series(lead_positions: Sequence[float],
                        follow_positions: Sequence[float], dt: float,
                        id: str = "", metadata: dict | None = None) -> Trajectory:
    """Build the car-following state/action series from scalar positions.

    States are ``[v0, v1, gap]`` with speeds from first differences and the
    follower acceleration from second differences, each difference assigned
    to the later instant; the first two raw instants drop so that states and
    actions share one index range of length ``n - 2``.
    """
    lead = np.asarray(lead_positions, dtype=float)
    follow = np.asarray(follow_positions, dtype=float)
    if lead.shape != follow.shape or lead.ndim != 1:
        raise InsufficientDataError("lead and follow position series must have equal length")
    n = lead.shape[0]
    if n < 3:
        raise InsufficientDataError(f"need at least 3 samples, got {n}")
    gap = lead - follow
    # the first two instants drop during alignment, so only emitted gaps
    # must be positive
    if (gap[2:] <= 0).any():
        raise NegativeGapError("leading position must exceed following position throughout")
    v0 = differentiate(lead, dt)          # instants 1 .. n-1
    v1 = differentiate(follow, dt)
    a1 = differentiate(v1, dt)            # instants 2 .. n-1
    states = np.column_stack([v0[1:], v1[1:], gap[2:]])
    return Trajectory(states, dt=dt, actions=a1, id=id, metadata=metadata)


def segment(traj: Trajectory, cfg: IngestConfig) -> list[Trajectory]:
    """Trim the ends, then cut fixed-length segments or apply the
    minimum-length filter; may return an empty list.
    """
    def piece(start: int, stop: int, **changes) -> Trajectory:
        actions = None if traj.actions is None else traj.actions[start:stop]
        return replace(traj, states=traj.states[start:stop], actions=actions, **changes)

    n_head = int(round(cfg.trim_head / traj.dt))
    n_tail = int(round(cfg.trim_tail / traj.dt))
    lo, hi = n_head, traj.length - n_tail
    if hi - lo < 2:
        return []
    if cfg.segment_mode == "min":
        if (hi - lo) * traj.dt <= cfg.min_length:
            return []
        if lo == 0 and hi == traj.length:
            return [traj]
        return [piece(lo, hi)]
    n_seg = int(round(cfg.segment_length / traj.dt))
    if n_seg < 2:
        return []
    count = (hi - lo) // n_seg
    return [
        piece(lo + i * n_seg, lo + (i + 1) * n_seg,
              id=f"{traj.id}_seg{i:03d}" if count > 1 or traj.id else f"seg{i:03d}",
              metadata={**traj.metadata, "segment_index": str(i)})
        for i in range(count)
    ]


def ingest_file(path: str | Path, cfg: IngestConfig,
                metadata: dict | None = None) -> list[Trajectory]:
    """Full pipeline for one raw file; returns the analysis-ready segments."""
    path = Path(path)
    t, pos, kind = parse_csv(path)
    if kind == "geodetic":
        t, pos = project_records(t, pos)
    t, pos = interpolate_gaps(t, pos)
    t, pos = resample(t, pos, cfg.resample_dt)
    lead_s, follow_s = project_longitudinal(pos[:, :2], pos[:, 2:])
    meta = {"source": path.name}
    meta.update(metadata or {})
    traj = derive_state_series(lead_s, follow_s, cfg.resample_dt,
                               id=path.stem, metadata=meta)
    return segment(traj, cfg)


# -- canonical trajectory files ------------------------------------------------

_CANONICAL_COLUMNS = ("v0", "v1", "gap")


@lru_cache(maxsize=2)
def _time_cells(n: int, dt: float) -> tuple[str, ...]:
    """The ``repr`` of each time stamp ``i * dt``, i < n, formatted once for
    every segment of the same length and step."""
    return tuple(map(repr, (np.arange(n) * dt).tolist()))


def write_trajectory(traj: Trajectory, path: str | Path) -> Path:
    """Write the canonical trajectory CSV plus its JSON metadata sidecar.

    Columns are ``time_s, v0, v1, gap, a1`` for 3-dimensional states and
    ``time_s, x0, x1, ..., a1`` otherwise, with ``repr`` floats, an empty
    ``a1`` cell when there are no actions, and ``\\r\\n`` line ends; the
    sidecar carries id, dt and metadata.  Output is byte-deterministic.
    Cells are formatted a column at a time, and the time column, the same
    for every segment of one length and step, comes from a small cache.
    """
    path = Path(path)
    cols = list(_CANONICAL_COLUMNS) if traj.dim == 3 else [f"x{j}" for j in range(traj.dim)]
    columns = [_time_cells(traj.length, traj.dt)]
    columns += [map(repr, col) for col in traj.states.T.tolist()]
    if traj.actions is not None:
        columns.append(map(repr, traj.actions.tolist()))
    end = "\r\n" if traj.actions is not None else ",\r\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(["time_s", *cols, "a1"]) + "\r\n")
        fh.write(end.join(map(",".join, zip(*columns))) + end)
    sidecar = path.with_suffix(".json")
    sidecar.write_text(json.dumps(
        {"id": traj.id, "dt": traj.dt, "metadata": dict(traj.metadata)},
        indent=2, sort_keys=True) + "\n")
    return path


def _first_bad_row(rows: list[list[str]], width: int) -> int:
    """1-based index of the first row that is not ``width`` numeric cells."""
    for i, row in enumerate(rows, start=1):
        try:
            np.array(row, dtype=float).reshape(width)
        except ValueError:
            return i
    return 0


def _read_sidecar(sidecar: Path, default_id: str) -> tuple[str, float, dict]:
    """The id, dt and metadata of a JSON sidecar."""
    try:  # ValueError covers invalid JSON and a dt that is not a number
        meta = json.loads(sidecar.read_text())
        traj_id, dt = meta.get("id", default_id), float(meta.get("dt", 1.0))
        metadata = dict(meta.get("metadata", {}))
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaMismatchError(f"{sidecar.name}: {type(exc).__name__}: {exc}") from None
    if not isinstance(traj_id, str):
        raise SchemaMismatchError(f"{sidecar.name}: id {traj_id!r} is not a string")
    if isinstance(meta.get("dt"), bool):
        raise SchemaMismatchError(f"{sidecar.name}: dt {meta['dt']!r} is not a number")
    if not all(isinstance(text, str) for text in (*metadata, *metadata.values())):
        raise SchemaMismatchError(f"{sidecar.name}: metadata {metadata!r} is not str to str")
    return traj_id, dt, metadata


def read_trajectory(path: str | Path) -> Trajectory:
    """Read a canonical trajectory CSV (and its sidecar, when present).

    ``a1`` is read as the actions only when every row has one.  A row that
    is not one number per column raises :class:`UnparsableRowError`; a
    malformed sidecar or a file that is not UTF-8 raises
    :class:`SchemaMismatchError` naming it.
    """
    path = Path(path)
    with _csv_file(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = list(reader)
    if header[:1] != ["time_s"] or header[-1:] != ["a1"]:
        raise SchemaMismatchError(f"{path.name}: not a canonical trajectory file")
    has_actions = all(r[-1:] != [""] for r in rows)
    cells = rows if has_actions else [r[:-1] for r in rows]
    width = len(header) if has_actions else len(header) - 1
    try:
        table = np.array(cells, dtype=float).reshape(len(cells), width)
    except ValueError:
        row = _first_bad_row(cells, width)
        raise UnparsableRowError(
            row, f"{path.name}: row {row}: expected {width} numeric cells") from None
    states = table[:, 1:len(header) - 1]
    actions = table[:, -1] if has_actions else None
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        traj_id, dt, metadata = _read_sidecar(sidecar, path.stem)
    else:
        traj_id, metadata = path.stem, {}
        dt = float(table[1, 0] - table[0, 0]) if len(rows) > 1 else 1.0
    return Trajectory(states, dt=dt, actions=actions, id=traj_id, metadata=metadata)
