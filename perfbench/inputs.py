"""Seeded input generator for the benchmark.

Writes, from a seed alone, the two kinds of file the markovorder CLI reads:

* canonical trajectory corpora (``time_s, v0, v1, gap, a1`` CSVs with a JSON
  sidecar whose metadata carries ``true_order``), simulated from fixed
  3-dimensional autoregressions of order 1 or 2;
* raw geodetic leader/follower files (``time_s, lead_lat, lead_lon,
  follow_lat, follow_lon``) of smooth straight-line car following, with a
  small share of blank leader cells, together with the ground-truth
  longitudinal positions the ingest pipeline should recover.

The generator uses only numpy and this file, so a change to the program
cannot change the inputs.  Every function returns the properties of what it
wrote (counts, lengths, rows, bytes, true-order mix, missing-cell share).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

# VAR coefficients of the canonical corpora.  The order-2 process has a
# strong second lag, so the lag-1 null is rejected on almost every T=120
# series; cross-coupling keeps all three state columns informative.
_COUPLING = np.array([[0.0, 0.1, 0.0], [0.2, 0.0, 0.1], [0.0, -0.2, 0.0]])
_A1 = {1: _COUPLING + 0.5 * np.eye(3), 2: _COUPLING}
_A2 = {1: np.zeros((3, 3)), 2: -0.8 * np.eye(3)}
_OFFSET = np.array([15.0, 14.0, 25.0])   # v0, v1 in m/s and gap in m
_SCALE = np.array([1.5, 1.5, 4.0])
_BURN_IN = 200


def _simulate_var(order: int, T: int, rng: np.random.Generator) -> np.ndarray:
    x = np.zeros((T + _BURN_IN, 3))
    noise = rng.standard_normal((T + _BURN_IN, 3))
    a1, a2 = _A1[order], _A2[order]
    for t in range(2, T + _BURN_IN):
        x[t] = a1 @ x[t - 1] + a2 @ x[t - 2] + noise[t]
    return _OFFSET + _SCALE * x[_BURN_IN:]


def write_corpus(out_dir: Path, seed: int, count: int, length: int,
                 name: str, dt: float = 0.1) -> dict:
    """Write ``count`` canonical d=3 trajectories of ``length`` samples.

    Trajectory i has true order 1 when i is even and 2 when i is odd, so
    the order mix is the same for every seed; the noise depends on
    ``(seed, name, i)``.  Returns the corpus properties and, under
    ``true_orders``, the ground truth keyed by trajectory id.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    true_orders, n_bytes = {}, 0
    name_key = [ord(c) for c in name]
    for i in range(count):
        order = 1 + i % 2
        traj_id = f"{name}_{i:04d}"
        rng = np.random.default_rng([seed, *name_key, i])
        states = _simulate_var(order, length, rng)
        accel = np.concatenate([[0.0], np.diff(states[:, 1]) / dt]).tolist()
        lines = ["time_s,v0,v1,gap,a1"]
        for t, (v0, v1, gap) in enumerate(states.tolist()):
            lines.append(f"{t * dt!r},{v0!r},{v1!r},{gap!r},{accel[t]!r}")
        csv_path = out_dir / f"{traj_id}.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        sidecar = {"id": traj_id, "dt": dt,
                   "metadata": {"true_order": str(order), "generator": "perfbench-var"}}
        side_path = csv_path.with_suffix(".json")
        side_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        n_bytes += csv_path.stat().st_size + side_path.stat().st_size
        true_orders[traj_id] = order
    return {
        "kind": "canonical", "count": count, "T": length, "d": 3, "dt": dt,
        "rows": count * length, "bytes": n_bytes,
        "true_order_mix": {str(k): sum(1 for o in true_orders.values() if o == k)
                           for k in (1, 2)},
        "true_orders": true_orders,
    }


def _smooth(rng: np.random.Generator, t: np.ndarray, n_terms: int,
            amp: float, period_range: tuple[float, float]) -> np.ndarray:
    """Sum of random-phase sinusoids: a smooth, seeded wiggle around 0."""
    out = np.zeros_like(t)
    for _ in range(n_terms):
        period = rng.uniform(*period_range)
        out += amp * np.sin(2 * math.pi * t / period + rng.uniform(0, 2 * math.pi))
    return out


def raw_truth(seed: int, index: int, duration_s: float, hz: float) -> dict:
    """Ground-truth motion of raw file ``index``: times and the longitudinal
    positions of both vehicles, with the follower starting at 0."""
    rng = np.random.default_rng([seed, 0x5241, index])
    n = int(round(duration_s * hz))
    t = np.arange(n) * (1.0 / hz)
    speed0 = rng.uniform(12.0, 20.0)
    # follower position: constant cruise plus a bounded wiggle (|v'| small)
    wiggle = _smooth(rng, t, 3, 4.0, (40.0, 200.0))
    follow = speed0 * t + wiggle - wiggle[0]
    gap = 22.0 + _smooth(rng, t, 3, 3.0, (30.0, 150.0))
    return {"t": t, "follow": follow, "lead": follow + gap,
            "heading": rng.uniform(0.0, 2 * math.pi),
            "origin": (rng.uniform(30.0, 50.0), rng.uniform(-120.0, 20.0))}


def write_raw_files(out_dir: Path, seed: int, count: int, duration_s: float,
                    hz: float = 10.0, missing_share: float = 0.01) -> dict:
    """Write ``count`` geodetic raw files and return their properties.

    Positions lie on a straight line at a seeded heading and are encoded
    with the inverse of the equirectangular projection around the
    follower's start, so the ingest pipeline recovers the planar track up to
    rounding.  A ``missing_share`` of leader cells (never in the first or
    last row) is left blank.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rad = math.pi / 180.0
    rows = n_bytes = missing = 0
    for i in range(count):
        truth = raw_truth(seed, i, duration_s, hz)
        rng = np.random.default_rng([seed, 0x424C, i])
        lat0, lon0 = truth["origin"]
        ux, uy = math.cos(truth["heading"]), math.sin(truth["heading"])
        coords = []
        for s in (truth["lead"], truth["follow"]):
            x, y = s * ux, s * uy
            coords.append(lat0 + y / (EARTH_RADIUS_M * rad))
            coords.append(lon0 + x / (EARTH_RADIUS_M * rad * math.cos(lat0 * rad)))
        n = truth["t"].shape[0]
        blank = np.zeros((n, 2), dtype=bool)
        blank[1:-1] = rng.random((n - 2, 2)) < missing_share
        lines = ["time_s,lead_lat,lead_lon,follow_lat,follow_lon"]
        t, la, lo, fa, fo = (a.tolist() for a in (truth["t"], *coords))
        for r in range(n):
            lead_lat = "" if blank[r, 0] else repr(la[r])
            lead_lon = "" if blank[r, 1] else repr(lo[r])
            lines.append(f"{t[r]!r},{lead_lat},{lead_lon},{fa[r]!r},{fo[r]!r}")
        path = out_dir / f"raw_{i:02d}.csv"
        path.write_text("\n".join(lines) + "\n")
        rows += n
        n_bytes += path.stat().st_size
        missing += int(blank.sum())
    return {"kind": "geodetic-raw", "count": count, "hz": hz, "duration_s": duration_s,
            "rows": rows, "bytes": n_bytes,
            "missing_leader_cell_share": missing / (2 * rows)}
