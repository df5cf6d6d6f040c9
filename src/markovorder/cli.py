"""Command-line entry point.

Subcommands: ``ingest`` (raw files to canonical trajectories), ``synth``
(seeded ground-truth generators), ``test`` (batch order estimation),
``calibrate`` (Monte Carlo size/power study) and ``report`` (summary
tables, histograms, box stats, and for two cohorts the pooled t and F
tests).

Every run writes a manifest (seed, configuration hash, input digests, wall
time, and the environment: numpy version, BLAS thread variables, cores,
jobs and whether freed memory is kept on the heap) next to its outputs;
``test``'s also counts its failed items by error class.  All numerical
outputs are reproducible from the manifest: per-trajectory seeds derive
from the global seed and the trajectory id, so results do not depend on
execution order or ``--jobs``.

Each test and ingest flag takes its type and default from the field of
``TestConfig`` or ``IngestConfig`` it sets.  ``report`` bins orders up to
``--kmax`` or, without it, up to the larger of ``TestConfig.k_max`` and the
largest input order, and takes no more than 10,000 bins.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.  Every
value read from a flag, a ``--config`` file, a generator spec or a results
file goes through ``_convert``; the README lists the data errors.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import logging
import os
import re
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .cohorts import f_test, pooled_t_test, summarize_orders
from .errors import DuplicateTrajectoryIdError, EmptyCohortError, MarkovOrderError
from .ingest import IngestConfig, ingest_file, read_trajectory, write_trajectory
from .markov import BatchItem, TestConfig, batch_test, trajectory_rng
from .report import render_summary, write_report_files
from .synthetic import ChainSpec, HiddenSpec, VarSpec, generate

log = logging.getLogger("markovorder")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise _UsageError(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: Path):
    """The JSON value in ``path``; a file that is missing or not JSON is a
    data error that names it."""
    try:
        return json.loads(path.read_text())
    except ValueError as exc:   # not JSON, or bytes that are not text
        raise MarkovOrderError(f"{path} is not JSON: {exc}") from None


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc mallopt parameters


def _keep_heap() -> bool:
    """Keep freed memory on the heap for the rest of the process.

    Each lag test frees a working set of about a megabyte; with glibc's
    defaults the heap top is trimmed or the blocks are unmapped, and the
    next lag faults the same pages back in, zeroed by the kernel.  Raising
    the trim threshold to 64 MiB and fixing the mmap threshold at 32 MiB
    lets the next lag reuse them; 32 MiB keeps the kernel residuals'
    largest arrays, the phase table and its accumulator at about 1 KiB
    per window each (32 frequency pairs), on the heap up to T = 32,000.
    On one pinned CPU with one BLAS thread, ``test`` faulted 6.0k pages with
    it against 38.0k without on 200 series of T = 120, and 8.3k against 68.6k
    on 2 of T = 2000, and took less CPU on both: medians of 1.31 against
    1.36 s and 0.54 against 0.64 s (the README has the runs).
    Forked workers inherit the setting.  Returns whether it was applied;
    without glibc's ``mallopt`` it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_TRIM_THRESHOLD, 64 << 20)
                and mallopt(_M_MMAP_THRESHOLD, 32 << 20))


def _write_manifest(out_dir: Path, command: str, config: dict,
                    inputs: list[Path], t_start: float, extra: dict | None = None,
                    jobs: int = 1, heap_kept: bool = False) -> None:
    cfg_json = json.dumps(config, sort_keys=True)
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "config_hash": hashlib.sha256(cfg_json.encode()).hexdigest(),
        "inputs": {str(p): _sha256(p) for p in sorted(inputs) if p.is_file()},
        "wall_time_s": time.perf_counter() - t_start,
        "environment": {
            "numpy": np.__version__,
            "blas_threads": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu_count": os.cpu_count(),
            "jobs": jobs,
            "heap_kept": heap_kept,
        },
    }
    manifest.update(extra or {})
    _write_json(out_dir / "manifest.json", manifest)


def _array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _whole(value) -> int:
    """``value`` as an int; a bool or a fraction is rejected, not truncated."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    out = int(value)
    if not isinstance(value, int) and out != float(value):
        raise ValueError(f"{value!r} is not a whole number")
    return out


def _real(value) -> float:
    """``value`` as a float; a bool is rejected, not read as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _rate(value) -> float:
    """``value`` as a float in [0, 1]: a bound of ``calibrate``'s size band."""
    out = _real(value)
    if not 0.0 <= out <= 1.0:   # NaN fails too
        raise ValueError("must lie in [0, 1]")
    return out


_SAFE_NAME = re.compile(r"[\w.-]+")


def _safe_name(value) -> str:
    """``value`` if it is a string of letters, digits, ``_``, ``.`` and ``-``:
    the rule for a ``synth`` spec's name and a ``report`` cohort label, which
    name files in ``--out`` and so must hold no path."""
    if not (isinstance(value, str) and _SAFE_NAME.fullmatch(value)):
        raise ValueError("must be letters, digits, '_', '.' or '-'")
    return value


def _text(value) -> str:
    """``value`` if it is a string: the conversion of the flags that take text."""
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


# converters by the type of a config or spec field; a tuple is a VAR's lag matrices
_KINDS = {int: _whole, float: _real, str: _text, np.ndarray: _array,
          tuple: lambda value: tuple(map(_array, value))}
_SPECS = {"var": VarSpec, "chain": ChainSpec, "hidden": HiddenSpec}   # by a spec's kind


def _convert(value, kind, least=None, *, error: str):
    """``kind`` of a value read from outside: of a flag or a ``--config``,
    spec or results-file field (``_whole``, ``_real``, ``_text``,
    ``_safe_name`` or ``_array``), or of a spec's fields (its dataclass).  A
    value ``kind`` rejects, or one below ``least``, is a data error:
    ``error``, then the reason."""
    try:
        out = kind(value)
        if least is not None and out < least:
            raise ValueError(f"must be >= {least}")
    except (TypeError, ValueError, OverflowError, MarkovOrderError) as exc:
        raise MarkovOrderError(f"{error}: {exc}") from None
    return out


def _setting(args: argparse.Namespace, flag: str, default=None, kind=_whole, least=None):
    """``kind`` of the flag's value if given, else of the config file's
    (keyed by the flag's name, hyphenated or underscored; null counts as
    absent), else of ``default``, else None, at least ``least``.  A bad
    value is a data error naming the flag."""
    key, cfg = flag.replace("-", "_"), getattr(args, "_file_config", {})
    value = next((v for v in (getattr(args, key, None), cfg.get(flag), cfg.get(key), default)
                  if v is not None), None)
    if value is None:
        return None
    return _convert(value, kind, least, error=f"--{flag}: bad value {value!r}")


def _out_dir(args: argparse.Namespace, default: str) -> Path:
    """The output directory from ``--out``, the config file or ``default``."""
    return Path(_setting(args, "out", default, _text))


def _load_file_config(args: argparse.Namespace) -> None:
    """Read ``--config``: a JSON object whose keys are flags of the
    subcommand (hyphenated or underscored); any other key is a data error."""
    cfg = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        cfg = _read_json(path)
        if not isinstance(cfg, dict):
            raise MarkovOrderError(f"config file {path} must hold a JSON object")
        unknown = [key for key in cfg if key.replace("-", "_") not in args.config_keys]
        if unknown:
            raise MarkovOrderError(f"config file {path}: {', '.join(map(repr, unknown))} "
                                   f"is not a flag of {args.command}")
    args._file_config = cfg


# flag -> field of the config it sets; each flag takes the type and default
# of its field, and a config file may use the flag's name as a key
_TEST_FLAGS = {"alpha": "alpha", "kmax": "k_max", "freqs": "n_freqs",
               "bootstrap": "n_bootstrap", "shifts": "n_shifts",
               "min-effective": "min_effective_length", "seed": "rng_seed",
               "estimator": "estimator"}
_INGEST_FLAGS = {"resample-dt": "resample_dt", "segment-len": "segment_length",
                 "min-len": "min_length", "segment-mode": "segment_mode",
                 "trim-head": "trim_head", "trim-tail": "trim_tail"}
_FLAG_HELP = {"alpha": "significance level", "kmax": "largest order tested",
              "freqs": "random frequency pairs per lag", "bootstrap": "bootstrap replicates",
              "shifts": "residual separations in the sup", "min-effective": "minimum T-k",
              "seed": "base RNG seed", "estimator": "CCF estimator"}
_FLAG_CHOICES = {"estimator": ("kernel", "mdn"), "segment-mode": ("fixed", "min")}


def _add_config_flags(sp: argparse.ArgumentParser, cls, flags: dict) -> None:
    for flag, field in flags.items():
        default = getattr(cls, field)
        sp.add_argument(f"--{flag}", type=type(default), choices=_FLAG_CHOICES.get(flag),
                        help=f"{_FLAG_HELP.get(flag, field)} (default {default})")


def _config(cls, args: argparse.Namespace, flags: dict):
    """``cls`` built from the flags and config-file keys that are given;
    every other field keeps the dataclass default.  A value that does not
    convert to its field's type, or that the dataclass rejects, is a data
    error naming the flag."""
    values = {field: _setting(args, flag, kind=_KINDS[type(getattr(cls, field))])
              for flag, field in flags.items()}
    values = {field: value for field, value in values.items() if value is not None}
    try:
        return cls(**values)
    except (ValueError, MarkovOrderError) as exc:   # a TypeError is a flag table bug
        named = [f"--{flag}" for flag, field in flags.items()
                 if field in values and field in str(exc)]
        raise MarkovOrderError(f"{', '.join(named) or 'bad setting'}: {exc}") from None


def _collect_csvs(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for path in map(Path, paths):
        if not path.exists():
            raise FileNotFoundError(str(path))
        out.extend(sorted(path.glob("*.csv")) if path.is_dir() else [path])
    return out


# -- subcommands ---------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    out_dir = _out_dir(args, "ingested")
    cfg = _config(IngestConfig, args, _INGEST_FLAGS)
    files = _collect_csvs(args.inputs)
    meta = {key: _setting(args, key, None, _text) for key in ("cohort", "scenario")}
    meta = {key: value for key, value in meta.items() if value}
    out_dir.mkdir(parents=True, exist_ok=True)

    written, failures = {}, []   # written: the input file of each id
    for path in files:
        try:
            segments = ingest_file(path, cfg, metadata=dict(meta))
            taken = [seg.id for seg in segments if seg.id in written]
            if taken:   # the file would overwrite an earlier one's segments
                raise DuplicateTrajectoryIdError(
                    f"{path}: trajectory id {taken[0]!r} already written from {written[taken[0]]}")
            while segments:   # no written segment stays alive while the next file is read
                seg = segments.pop(0)
                write_trajectory(seg, out_dir / f"{seg.id}.csv")
                written[seg.id] = path
        except (MarkovOrderError, OSError) as exc:
            failures.append(str(path))
            log.warning("skipping %s: %s", path, exc)
    _write_manifest(out_dir, "ingest", asdict(cfg), files, t0, extra={
        "trajectories_written": len(written),
        "failed_inputs": failures,
        # every segment carries the run's cohort
        "cohort_counts": {meta.get("cohort", "unlabeled"): len(written)} if written else {},
    })
    log.info("ingested %d trajectories from %d files (%d failed)",
             len(written), len(files), len(failures))
    return 2 if files and len(failures) == len(files) else 0


def _read_spec(spec, path: Path | None, args: argparse.Namespace):
    """The generator ``spec`` describes, its ``name`` (default: the stem of
    ``path``), ``cohort``, length and ``true_order``, each key read once
    (null counts as absent); a kind's own keys are its dataclass's fields.
    The length is ``--length``'s, else the spec's, else 300.  A missing key,
    a value its key or the dataclass rejects and a key no reader takes are
    data errors."""
    if not isinstance(spec, dict):
        raise MarkovOrderError("generator spec must be a JSON object")
    taken, where = {"kind"}, f"generator spec {path}"

    def take(key, kind, default=MISSING):
        taken.add(key)
        if spec.get(key) is None:
            if default is MISSING:
                raise MarkovOrderError(f"generator spec: missing key {key!r}")
            return default
        return _convert(spec[key], kind, error=f"generator spec: bad value for {key!r}")

    kind, dt = spec.get("kind"), take("dt", _real, 1.0)
    cls = _SPECS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise MarkovOrderError(f"unknown generator kind {kind!r}; use var, chain or hidden")
    hints = get_type_hints(cls)
    values = {f.name: take(f.name, _KINDS[hints[f.name]], f.default) for f in fields(cls)}
    made = _convert(values, lambda v: cls(**v), error=where)
    # what the generator rejects is a data error naming the spec's file
    gen = lambda T, rng, id: _convert(T, lambda T: generate(made, T, rng, dt, id), error=where)
    length = take("length", _whole, 300)
    read = (gen, take("name", _safe_name, path.stem if path else None),
            take("cohort", _text, None), _setting(args, "length", least=2) or length,
            take("true_order", _whole, None))
    unknown = [key for key in spec if key not in taken]
    if unknown:
        raise MarkovOrderError(f"{where}: {', '.join(map(repr, unknown))} "
                               f"is not a key of a {kind} spec")
    return read


def cmd_synth(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args, "synth")
    t0 = time.perf_counter()
    spec_path = Path(args.spec)
    spec = _read_json(spec_path)
    gen, name, cohort, T, _ = _read_spec(spec, spec_path, args)
    seed = _setting(args, "seed", 0)
    count = _setting(args, "count", 1, least=0)

    written = []
    for i in range(count):
        traj_id = f"{name}_{i:04d}"
        traj = gen(T, trajectory_rng(seed, traj_id), traj_id)
        if cohort:
            traj = replace(traj, metadata={**traj.metadata, "cohort": cohort})
        if not written:   # made once the spec has given a trajectory
            out_dir.mkdir(parents=True, exist_ok=True)
        written.append(write_trajectory(traj, out_dir / f"{traj_id}.csv"))
    _write_manifest(out_dir, "synth",
                    {"spec": spec, "seed": seed, "count": count, "length": T},
                    [spec_path], t0, extra={"trajectories_written": len(written)})
    log.info("wrote %d synthetic trajectories to %s", len(written), out_dir)
    return 0


_CHUNK = 64   # files read, tested and spooled at a time


def _pool(workers: int):
    """One process pool for every chunk of a run, or none for one worker."""
    if workers <= 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor   # only a parallel run needs it
    return ProcessPoolExecutor(max_workers=workers)


def cmd_test(args: argparse.Namespace) -> int:
    """Read, test and spool ``_CHUNK`` files at a time, so memory does not grow
    with the corpus; ``results.json`` is assembled from the spool, in the
    bytes one ``_write_json`` of every item gives."""
    out_dir = _out_dir(args, "results")
    heap_kept = _keep_heap()
    t0 = time.perf_counter()
    cfg = _config(TestConfig, args, _TEST_FLAGS)
    jobs = _setting(args, "jobs", 1, least=1)
    files = [p for p in _collect_csvs(args.trajectories) if not p.name.endswith(".json")]
    out_dir.mkdir(parents=True, exist_ok=True)
    # index: (id, 0 for a read error else 1, spool offset, length); an id is
    # tested once, so sorted it is the stable sort by id of (errors + tested)
    seen, index, failed = {}, [], Counter()
    with tempfile.TemporaryFile(dir=out_dir) as spool, _pool(min(jobs, len(files))) as pool:
        for first in range(0, len(files), _CHUNK):
            trajs, items = [], []
            for path in files[first:first + _CHUNK]:
                item_id = path.stem
                try:
                    traj = read_trajectory(path)
                    item_id = traj.id
                    if traj.id in seen:  # the same id would share its seed and its result slot
                        raise DuplicateTrajectoryIdError(
                            f"{path}: trajectory id {traj.id!r} already read from {seen[traj.id]}")
                    seen[traj.id] = path
                    trajs.append(traj)
                except (MarkovOrderError, OSError) as exc:  # a bad file fails its item only
                    items.append((0, BatchItem(trajectory_id=item_id, estimate=None,
                                               error=f"{type(exc).__name__}: {exc}")))
            items += [(1, it) for it in batch_test(trajs, cfg, jobs=jobs, pool=pool)]
            for tested, item in items:   # each entry indented as in the results list
                text = json.dumps(item.to_dict(), indent=2, sort_keys=True).replace("\n", "\n    ")
                index.append((item.trajectory_id, tested, spool.tell(), len(text)))
                spool.write(text.encode())   # ASCII: json.dumps escapes the rest
                if item.error is not None:
                    failed[item.error.split(":", 1)[0]] += 1
        head, tail = json.dumps({"config": asdict(cfg), "results": []},
                                indent=2, sort_keys=True).rsplit("[]", 1)
        with (out_dir / "results.json").open("wb") as fh:
            fh.write(f"{head}[".encode())
            for i, (*_, offset, length) in enumerate(sorted(index)):
                spool.seek(offset)
                fh.write(b",\n    " if i else b"\n    ")
                fh.write(spool.read(length))
            fh.write((("\n  ]" if index else "]") + tail + "\n").encode())
    n_failed = sum(failed.values())
    _write_manifest(out_dir, "test", asdict(cfg), files, t0, extra={
        "n_trajectories": len(index),
        "n_failed": n_failed,
        "failures_by_class": {name: failed[name] for name in sorted(failed)},
    }, jobs=jobs, heap_kept=heap_kept)
    log.info("tested %d trajectories (%d failed) -> %s", len(index),
             n_failed, out_dir / "results.json")
    return 2 if index and n_failed == len(index) else 0


# report bins orders 1..k_max and takes each cohort's density as a (bins,
# cohort size) matrix, so an order or --kmax above this is a data error
_MAX_REPORT_ORDER = 10_000


def _orders_from_results(path: Path) -> list[int]:
    if not path.exists():
        raise EmptyCohortError(f"missing results file: {path}")
    payload = _read_json(path)
    results = payload.get("results", []) if isinstance(payload, dict) else payload
    if not (isinstance(results, list) and all(isinstance(r, dict) for r in results)):
        raise MarkovOrderError(f"{path}: results must be a list of JSON objects")
    orders = []
    for r in results:
        if "order" not in r or r.get("error"):
            continue
        order, k_max = r["order"], r.get("k_max", r["order"])
        whole = _convert(order, _whole, 1,
                         error=f"{path}: order {order!r} is not a whole number >= 1")
        # the bins run to the largest order
        _convert(k_max, _whole, whole,
                 error=f"{path}: order {order!r} is not <= its k_max {k_max!r}")
        if whole > _MAX_REPORT_ORDER:
            raise MarkovOrderError(f"{path}: order {order!r} is above {_MAX_REPORT_ORDER}, "
                                   "the most bins report takes")
        orders.append(whole)
    if not orders:
        raise EmptyCohortError(f"no usable orders in {path}")
    return orders


def _compare_cohorts(orders_a: list[int], orders_b: list[int]) -> dict:
    """The pooled t and F tests by name: each test's result or, for a
    degenerate cohort, ``{"error": message}``, which invalidates that test,
    not the whole comparison."""
    tests: dict = {}
    for name, test in (("t_test", pooled_t_test), ("f_test", f_test)):
        try:
            tests[name] = test(orders_a, orders_b)
        except MarkovOrderError as exc:
            tests[name] = {"error": str(exc)}
            log.warning("%s unavailable: %s", name, exc)
    return tests


def cmd_calibrate(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args, "calibration")
    heap_kept = _keep_heap()
    t0 = time.perf_counter()
    cfg = _config(TestConfig, args, _TEST_FLAGS)
    jobs = _setting(args, "jobs", 1, least=1)
    reps = _setting(args, "replications", 200, least=1)
    dim = _setting(args, "dim", 3, least=1)
    # the default size band follows alpha: [0.01, 0.12] at alpha = 0.05
    band_lo = _setting(args, "band-lo", cfg.alpha / 5, _rate)
    band_hi = _setting(args, "band-hi", min(2.4 * cfg.alpha, 1.0), _rate, least=band_lo)
    spec_path = _setting(args, "spec", None, _text)
    # without --spec, the null is i.i.d. standard normal in --dim dimensions
    spec = _read_json(Path(spec_path)) if spec_path else {
        "kind": "var", "coeffs": [np.zeros((dim, dim)).tolist()],
        "noise_cov": np.eye(dim).tolist(), "burn_in": 0, "true_order": 1}
    gen, _, _, T, true_order = _read_spec(spec, Path(spec_path) if spec_path else None, args)

    trajs = [gen(T, trajectory_rng(cfg.rng_seed, f"calib_{i:05d}_gen"), f"calib_{i:05d}")
             for i in range(reps)]
    items = batch_test(trajs, cfg, jobs=jobs)
    failed = next((it for it in items if it.error is not None), None)
    if failed is not None:
        raise MarkovOrderError(f"replication {failed.trajectory_id}: {failed.error}")
    orders = [it.estimate.order for it in items]
    lags = [res for it in items for res in it.estimate.per_lag]

    per_lag = []
    for k in sorted({res.k for res in lags}):
        rejects = [res.reject for res in lags if res.k == k]
        n, rate = len(rejects), sum(rejects) / len(rejects)
        half = 1.96 * np.sqrt(max(rate * (1 - rate), 1e-12) / n)
        per_lag.append({"k": k, "n": n, "rejection_rate": rate,
                        "ci_low": max(0.0, rate - half), "ci_high": min(1.0, rate + half),
                        "within_band": bool(band_lo <= rate <= band_hi)})
    order_counts = {str(k): orders.count(k) for k in sorted(set(orders))}
    payload = {
        "replications": reps, "length": T, "alpha": cfg.alpha,
        "size_band": [band_lo, band_hi], "per_lag": per_lag,
        "order_counts": order_counts,
    }
    if true_order is not None:
        payload["true_order"] = true_order
        payload["order_recovery_rate"] = orders.count(true_order) / reps
    _write_json(out_dir / "calibration.json", payload)
    _write_manifest(out_dir, "calibrate", asdict(cfg),
                    [Path(spec_path)] if spec_path else [], t0,
                    jobs=jobs, heap_kept=heap_kept)
    for row in per_lag:
        sys.stdout.write(f"k={row['k']}: rejection rate {row['rejection_rate']:.3f} "
                         f"CI [{row['ci_low']:.3f}, {row['ci_high']:.3f}] "
                         f"{'PASS' if row['within_band'] else 'FAIL'}\n")
    if "order_recovery_rate" in payload:
        sys.stdout.write(f"order recovery rate: {payload['order_recovery_rate']:.3f}\n")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args, "report")
    t0 = time.perf_counter()
    cohorts, orders_by_cohort, inputs = {}, {}, []
    for item in args.results:
        if "=" not in item:
            raise MarkovOrderError(f"expected label=path, got {item!r}")
        label, path = item.split("=", 1)
        _convert(label, _safe_name, error=f"cohort label {label!r} is not a plain name")
        if label in cohorts:
            raise MarkovOrderError(f"cohort label {label!r} given twice")
        orders = _orders_from_results(Path(path))
        cohorts[label] = summarize_orders(orders)
        orders_by_cohort[label] = orders
        inputs.append(Path(path))
    tests = _compare_cohorts(*orders_by_cohort.values()) if len(cohorts) == 2 else {}
    top = max(max(orders) for orders in orders_by_cohort.values())
    k_max = _setting(args, "kmax", max(TestConfig.k_max, top))
    if not top <= k_max <= _MAX_REPORT_ORDER:   # the bins 1..k_max hold every order
        reason = (f"order {top} outside 1..{k_max}" if k_max < top
                  else f"must be <= {_MAX_REPORT_ORDER}")
        raise MarkovOrderError(f"--kmax: bad value {k_max!r}: {reason}")
    written = write_report_files(out_dir, cohorts, orders_by_cohort, tests, k_max=k_max)
    _write_manifest(out_dir, "report", {"kmax": k_max},
                    inputs, t0, extra={"files": [str(p) for p in written]})
    sys.stdout.write(render_summary(cohorts, tests, format="markdown"))
    return 0


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="markovorder",
                     description="Markov property tests and order estimation for trajectories")
    parser.add_argument("--version", action="version", version=f"markovorder {__version__}")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="process raw leader/follower files")
    sp.add_argument("inputs", nargs="+", help="raw CSV files or directories")
    sp.add_argument("--out", default=None, help="output directory (default ingested/)")
    _add_config_flags(sp, IngestConfig, _INGEST_FLAGS)
    sp.add_argument("--cohort", default=None, help="cohort label stored in metadata")
    sp.add_argument("--scenario", default=None, help="scenario label stored in metadata")
    sp.add_argument("--config", default=None, help="JSON config file; flags win")
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("synth", help="generate ground-truth trajectories")
    sp.add_argument("spec", help="JSON generator spec (kind: var|chain|hidden)")
    sp.add_argument("--count", type=int, default=None, help="trajectories (default 1)")
    sp.add_argument("--length", type=int, default=None, help="samples per trajectory")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("test", help="estimate Markov orders for a trajectory set")
    sp.add_argument("trajectories", nargs="+", help="canonical trajectory CSVs or directories")
    sp.add_argument("--out", default=None)
    sp.add_argument("--jobs", type=int, default=None, help="parallel workers (default 1)")
    sp.add_argument("--config", default=None)
    _add_config_flags(sp, TestConfig, _TEST_FLAGS)
    sp.set_defaults(func=cmd_test)

    sp = sub.add_parser("calibrate", help="Monte Carlo size/power study")
    sp.add_argument("--spec", default=None, help="generator spec JSON (default iid normal)")
    sp.add_argument("--replications", type=int, default=None, help="(default 200)")
    sp.add_argument("--length", type=int, default=None, help="(default 300)")
    sp.add_argument("--dim", type=int, default=None, help="i.i.d. null's dimension (default 3)")
    sp.add_argument("--band-lo", type=float, default=None, dest="band_lo",
                    help="lowest rejection rate that passes (default alpha/5)")
    sp.add_argument("--band-hi", type=float, default=None, dest="band_hi",
                    help="highest rejection rate that passes (default 2.4 alpha)")
    sp.add_argument("--out", default=None)
    sp.add_argument("--jobs", type=int, default=None, help="parallel workers (default 1)")
    sp.add_argument("--config", default=None)
    _add_config_flags(sp, TestConfig, _TEST_FLAGS)
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("report", help="summary tables, histograms and box stats")
    sp.add_argument("results", nargs="+", help="label=results.json pairs")
    sp.add_argument("--out", default=None)
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--config", default=None)
    sp.set_defaults(func=cmd_report)
    for sp in sub.choices.values():   # the keys a --config file may hold
        sp.set_defaults(config_keys={a.dest for a in sp._actions if a.option_strings}
                        - {"help", "config"})
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose > 1 else
            logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
        _load_file_config(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (MarkovOrderError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a program bug, not a data error
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
