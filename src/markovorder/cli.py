"""Command-line entry point.

Subcommands: ``ingest`` (raw files to canonical trajectories), ``synth``
(seeded ground-truth generators), ``test`` (batch order estimation),
``compare`` (two-cohort t/F comparison), ``calibrate`` (Monte Carlo
size/power study) and ``report`` (summary tables, histograms, box stats).

Every run writes a manifest (seed, configuration hash, input digests, wall
time, and the environment: numpy version, BLAS thread variables, cores,
jobs and whether freed memory is kept on the heap) next to its outputs,
and all numerical outputs are reproducible from the manifest:
per-trajectory seeds derive from the global seed and the trajectory id, so
results do not depend on execution order or ``--jobs``.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import logging
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .cohorts import f_test, pooled_t_test, summarize_orders
from .core import Trajectory
from .errors import DuplicateTrajectoryIdError, EmptyCohortError, MarkovOrderError
from .ingest import IngestConfig, ingest_file, read_trajectory, write_trajectory
from .markov import BatchItem, TestConfig, batch_test, estimate_order, trajectory_rng
from .report import render_summary, write_report_files
from .synthetic import ChainSpec, VarSpec, gen_chain, gen_hidden_state, gen_var

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
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc mallopt parameters


def _keep_heap() -> bool:
    """Keep freed memory on the heap for the rest of the process.

    Each lag test frees a working set of about a megabyte; with glibc's
    defaults the heap top is trimmed or the blocks are unmapped, and the
    next lag faults the same pages back in, zeroed by the kernel.  Raising
    the trim threshold to 64 MiB and fixing the mmap threshold at 32 MiB
    lets the next lag reuse them; 32 MiB rather than less keeps the
    30.5 MiB kernel matrix of a T=2000 series on the heap as well.  Forked
    workers inherit the setting.  Returns whether it was applied; without
    glibc's ``mallopt`` it does nothing.
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
        "inputs": {str(p): _sha256(p) for p in sorted(inputs)},
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


def _merged(args: argparse.Namespace, key: str, default):
    """Flag value if given, else config-file value, else default.

    Config files may use either hyphenated or underscored keys.
    """
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    cfg = getattr(args, "_file_config", {})
    return cfg.get(key, cfg.get(key.replace("-", "_"), default))


def _load_file_config(args: argparse.Namespace) -> None:
    cfg = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(str(path))
        cfg = json.loads(path.read_text())
        if not isinstance(cfg, dict):
            raise MarkovOrderError(f"config file {path} must hold a JSON object")
    args._file_config = cfg


def _test_config(args: argparse.Namespace) -> TestConfig:
    return TestConfig(
        k_max=int(_merged(args, "kmax", 10)),
        alpha=float(_merged(args, "alpha", 0.05)),
        n_freqs=int(_merged(args, "freqs", 32)),
        n_bootstrap=int(_merged(args, "bootstrap", 300)),
        n_shifts=int(_merged(args, "shifts", 3)),
        min_effective_length=int(_merged(args, "min-effective", 30)),
        rng_seed=int(_merged(args, "seed", 0)),
        estimator=str(_merged(args, "estimator", "kernel")),
    )


def _ingest_config(args: argparse.Namespace) -> IngestConfig:
    return IngestConfig(
        resample_dt=float(_merged(args, "resample-dt", 1.0)),
        segment_length=float(_merged(args, "segment-len", 120.0)),
        min_length=float(_merged(args, "min-len", 70.0)),
        trim_head=float(_merged(args, "trim-head", 0.0)),
        trim_tail=float(_merged(args, "trim-tail", 0.0)),
        segment_mode=str(_merged(args, "segment-mode", "fixed")),
    )


def _collect_csvs(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.extend(sorted(path.glob("*.csv")))
        elif path.exists():
            out.append(path)
        else:
            raise FileNotFoundError(str(path))
    return out


# -- subcommands ---------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    out_dir = Path(_merged(args, "out", "ingested"))
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = _ingest_config(args)
    files = _collect_csvs(args.inputs)
    meta = {}
    if args.cohort:
        meta["cohort"] = args.cohort
    if args.scenario:
        meta["scenario"] = args.scenario

    written, failures, cohort_counts = [], [], {}
    for path in files:
        try:
            for seg in ingest_file(path, cfg, metadata=dict(meta)):
                dest = out_dir / f"{seg.id}.csv"
                write_trajectory(seg, dest)
                written.append(dest)
                label = seg.metadata.get("cohort", "unlabeled")
                cohort_counts[label] = cohort_counts.get(label, 0) + 1
        except (MarkovOrderError, FileNotFoundError) as exc:
            failures.append(str(path))
            log.warning("skipping %s: %s", path, exc)
    _write_manifest(out_dir, "ingest", cfg.to_dict(), files, t0, extra={
        "trajectories_written": len(written),
        "failed_inputs": failures,
        "cohort_counts": cohort_counts,
    })
    log.info("ingested %d trajectories from %d files (%d failed)",
             len(written), len(files), len(failures))
    if files and len(failures) == len(files):
        return 2
    return 0


def _build_generator(spec: dict):
    kind = spec.get("kind")
    if kind == "var":
        vs = VarSpec(coeffs=tuple(np.asarray(a, dtype=float) for a in spec["coeffs"]),
                     noise_cov=np.asarray(spec["noise_cov"], dtype=float),
                     burn_in=int(spec.get("burn_in", 200)))
        return lambda T, rng, id: gen_var(vs, T, rng, dt=float(spec.get("dt", 1.0)), id=id)
    if kind == "chain":
        cs = ChainSpec(order=int(spec["order"]),
                       transition=np.asarray(spec["transition"], dtype=float),
                       embedding=np.asarray(spec["embedding"], dtype=float))
        return lambda T, rng, id: gen_chain(cs, T, rng, dt=float(spec.get("dt", 1.0)), id=id)
    if kind == "hidden":
        return lambda T, rng, id: gen_hidden_state(
            float(spec["persistence"]), np.asarray(spec["means"], dtype=float),
            T, rng, dt=float(spec.get("dt", 1.0)), id=id)
    raise MarkovOrderError(f"unknown generator kind {kind!r}; use var, chain or hidden")


def cmd_synth(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise FileNotFoundError(str(spec_path))
    spec = json.loads(spec_path.read_text())
    gen = _build_generator(spec)
    out_dir = Path(_merged(args, "out", "synth"))
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = int(_merged(args, "seed", 0))
    count = int(args.count)
    T = int(args.length if args.length is not None else spec.get("length", 300))
    name = spec.get("name", spec_path.stem)
    cohort = spec.get("cohort")

    written = []
    for i in range(count):
        traj_id = f"{name}_{i:04d}"
        traj = gen(T, trajectory_rng(seed, traj_id), traj_id)
        if cohort:
            meta = dict(traj.metadata)
            meta["cohort"] = cohort
            traj = Trajectory(states=traj.states, dt=traj.dt, actions=traj.actions,
                              id=traj.id, metadata=meta)
        written.append(write_trajectory(traj, out_dir / f"{traj_id}.csv"))
    _write_manifest(out_dir, "synth",
                    {"spec": spec, "seed": seed, "count": count, "length": T},
                    [spec_path], t0, extra={"trajectories_written": len(written)})
    log.info("wrote %d synthetic trajectories to %s", len(written), out_dir)
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    heap_kept = _keep_heap()
    t0 = time.perf_counter()
    cfg = _test_config(args)
    jobs = int(_merged(args, "jobs", 1))
    files = [p for p in _collect_csvs(args.trajectories) if not p.name.endswith(".json")]
    trajs, items, seen = [], [], {}
    for path in files:
        item_id = path.stem
        try:
            traj = read_trajectory(path)
            item_id = traj.id
            if traj.id in seen:  # the same id would share its seed and its result slot
                raise DuplicateTrajectoryIdError(
                    f"{path}: trajectory id {traj.id!r} already read from {seen[traj.id]}")
            seen[traj.id] = path
            trajs.append(traj)
        except MarkovOrderError as exc:  # an unreadable file fails its item only
            items.append(BatchItem(trajectory_id=item_id, estimate=None,
                                   error=f"{type(exc).__name__}: {exc}"))
    items = sorted(items + batch_test(trajs, cfg, jobs=jobs),
                   key=lambda it: it.trajectory_id)
    out_dir = Path(_merged(args, "out", "results"))
    n_failed = sum(1 for it in items if it.error is not None)
    _write_json(out_dir / "results.json",
                {"config": cfg.to_dict(), "results": [it.to_dict() for it in items]})
    _write_manifest(out_dir, "test", cfg.to_dict(), files, t0, extra={
        "jobs": jobs,
        "n_trajectories": len(items),
        "n_failed": n_failed,
    }, jobs=jobs, heap_kept=heap_kept)
    log.info("tested %d trajectories (%d failed) -> %s", len(items),
             n_failed, out_dir / "results.json")
    if items and n_failed == len(items):
        return 2
    return 0


def _orders_from_results(path: Path) -> list[int]:
    if not path.exists():
        raise EmptyCohortError(f"missing results file: {path}")
    payload = json.loads(path.read_text())
    results = payload.get("results", payload if isinstance(payload, list) else [])
    orders = [r["order"] for r in results if "order" in r and not r.get("error")]
    if not orders:
        raise EmptyCohortError(f"no usable orders in {path}")
    return orders


def cmd_compare(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    path_a, path_b = Path(args.results_a), Path(args.results_b)
    label_a, label_b = (args.labels.split(",") + ["a", "b"])[:2] if args.labels else ("a", "b")
    orders_a = _orders_from_results(path_a)
    orders_b = _orders_from_results(path_b)
    summary = {label_a: summarize_orders(orders_a), label_b: summarize_orders(orders_b)}
    # a degenerate cohort invalidates one test, not the whole comparison
    payload: dict = {"cohorts": {k: v.to_dict() for k, v in summary.items()}}
    comparisons = []
    for name, test in (("t_test", pooled_t_test), ("f_test", f_test)):
        try:
            res = test(orders_a, orders_b)
            payload[name] = res.to_dict()
            comparisons.append(res)
        except MarkovOrderError as exc:
            payload[name] = {"error": str(exc)}
            log.warning("%s unavailable: %s", name, exc)
    out_dir = Path(_merged(args, "out", "comparison"))
    _write_json(out_dir / "comparison.json", payload)
    table = render_summary(summary, comparisons, format="markdown")
    (out_dir / "comparison.md").write_text(table)
    _write_manifest(out_dir, "compare", {"labels": [label_a, label_b]},
                    [path_a, path_b], t0)
    sys.stdout.write(table)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    heap_kept = _keep_heap()
    t0 = time.perf_counter()
    cfg = _test_config(args)
    reps = int(args.replications)
    if reps < 1:
        raise MarkovOrderError("replications must be >= 1")
    T = int(args.length)
    if args.spec:
        spec = json.loads(Path(args.spec).read_text())
        gen = _build_generator(spec)
        true_order = spec.get("true_order")
    else:
        dim = int(args.dim)
        iid = VarSpec(coeffs=(np.zeros((dim, dim)),), noise_cov=np.eye(dim), burn_in=0)
        gen = lambda n, rng, id: gen_var(iid, n, rng, id=id)  # noqa: E731
        true_order = 1

    rejections = np.zeros(cfg.k_max, dtype=int)
    tested = np.zeros(cfg.k_max, dtype=int)
    orders = []
    for i in range(reps):
        traj_id = f"calib_{i:05d}"
        traj = gen(T, trajectory_rng(cfg.rng_seed, traj_id + "_gen"), traj_id)
        est = estimate_order(traj, cfg)
        orders.append(est.order)
        for res in est.per_lag:
            tested[res.k - 1] += 1
            rejections[res.k - 1] += res.reject

    band_lo, band_hi = float(args.band_lo), float(args.band_hi)
    per_lag = []
    for k in range(1, cfg.k_max + 1):
        n = int(tested[k - 1])
        if n == 0:
            continue
        rate = rejections[k - 1] / n
        half = 1.96 * np.sqrt(max(rate * (1 - rate), 1e-12) / n)
        per_lag.append({"k": k, "n": n, "rejection_rate": rate,
                        "ci_low": max(0.0, rate - half), "ci_high": min(1.0, rate + half),
                        "within_band": bool(band_lo <= rate <= band_hi)})
    order_counts = {str(k): int(sum(1 for o in orders if o == k))
                    for k in sorted(set(orders))}
    payload = {
        "replications": reps, "length": T, "alpha": cfg.alpha,
        "size_band": [band_lo, band_hi], "per_lag": per_lag,
        "order_counts": order_counts,
    }
    if true_order is not None:
        payload["true_order"] = int(true_order)
        payload["order_recovery_rate"] = sum(1 for o in orders if o == true_order) / reps
    out_dir = Path(_merged(args, "out", "calibration"))
    _write_json(out_dir / "calibration.json", payload)
    _write_manifest(out_dir, "calibrate", cfg.to_dict(),
                    [Path(args.spec)] if args.spec else [], t0,
                    heap_kept=heap_kept)
    for row in per_lag:
        verdict = "PASS" if row["within_band"] else "FAIL"
        sys.stdout.write(
            f"k={row['k']}: rejection rate {row['rejection_rate']:.3f} "
            f"CI [{row['ci_low']:.3f}, {row['ci_high']:.3f}] {verdict}\n"
        )
    if "order_recovery_rate" in payload:
        sys.stdout.write(f"order recovery rate: {payload['order_recovery_rate']:.3f}\n")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cohorts, orders_by_cohort, inputs = {}, {}, []
    for item in args.results:
        if "=" not in item:
            raise MarkovOrderError(f"expected label=path, got {item!r}")
        label, path = item.split("=", 1)
        orders = _orders_from_results(Path(path))
        cohorts[label] = summarize_orders(orders)
        orders_by_cohort[label] = orders
        inputs.append(Path(path))
    comparisons = []
    if len(cohorts) == 2:
        (label_a, a), (label_b, b) = orders_by_cohort.items()
        comparisons = [pooled_t_test(a, b), f_test(a, b)]
    out_dir = Path(_merged(args, "out", "report"))
    written = write_report_files(out_dir, cohorts, orders_by_cohort, comparisons,
                                 k_max=int(_merged(args, "kmax", 10)))
    _write_manifest(out_dir, "report", {"kmax": int(_merged(args, "kmax", 10))},
                    inputs, t0, extra={"files": [str(p) for p in written]})
    sys.stdout.write(render_summary(cohorts, comparisons, format="markdown"))
    return 0


# -- parser --------------------------------------------------------------------

def _add_test_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alpha", type=float, default=None, help="significance level (default 0.05)")
    sp.add_argument("--kmax", type=int, default=None, help="largest order tested (default 10)")
    sp.add_argument("--freqs", type=int, default=None, help="random frequency pairs per lag (default 32)")
    sp.add_argument("--bootstrap", type=int, default=None, help="bootstrap replicates (default 300)")
    sp.add_argument("--shifts", type=int, default=None, help="residual separations in the sup (default 3)")
    sp.add_argument("--min-effective", type=int, default=None, dest="min_effective",
                    help="minimum T-k (default 30)")
    sp.add_argument("--seed", type=int, default=None, help="base RNG seed (default 0)")
    sp.add_argument("--estimator", choices=("kernel", "mdn"), default=None,
                    help="CCF estimator (default kernel)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="markovorder",
                     description="Markov property tests and order estimation for trajectories")
    parser.add_argument("--version", action="version", version=f"markovorder {__version__}")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="process raw leader/follower files")
    sp.add_argument("inputs", nargs="+", help="raw CSV files or directories")
    sp.add_argument("--out", default=None, help="output directory (default ingested/)")
    sp.add_argument("--resample-dt", type=float, default=None, dest="resample_dt")
    sp.add_argument("--segment-len", type=float, default=None, dest="segment_len")
    sp.add_argument("--min-len", type=float, default=None, dest="min_len")
    sp.add_argument("--segment-mode", choices=("fixed", "min"), default=None, dest="segment_mode")
    sp.add_argument("--trim-head", type=float, default=None, dest="trim_head")
    sp.add_argument("--trim-tail", type=float, default=None, dest="trim_tail")
    sp.add_argument("--cohort", default=None, help="cohort label stored in metadata")
    sp.add_argument("--scenario", default=None, help="scenario label stored in metadata")
    sp.add_argument("--config", default=None, help="JSON config file; flags win")
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("synth", help="generate ground-truth trajectories")
    sp.add_argument("spec", help="JSON generator spec (kind: var|chain|hidden)")
    sp.add_argument("--count", type=int, default=1)
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
    _add_test_flags(sp)
    sp.set_defaults(func=cmd_test)

    sp = sub.add_parser("compare", help="t/F comparison of two result sets")
    sp.add_argument("results_a", help="results.json of the first cohort")
    sp.add_argument("results_b", help="results.json of the second cohort")
    sp.add_argument("--labels", default=None, help="comma-separated cohort labels")
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("calibrate", help="Monte Carlo size/power study")
    sp.add_argument("--spec", default=None, help="generator spec JSON (default iid normal)")
    sp.add_argument("--replications", type=int, default=200)
    sp.add_argument("--length", type=int, default=300)
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--band-lo", type=float, default=0.01, dest="band_lo")
    sp.add_argument("--band-hi", type=float, default=0.12, dest="band_hi")
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None)
    _add_test_flags(sp)
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("report", help="summary tables, histograms and box stats")
    sp.add_argument("results", nargs="+", help="label=results.json pairs")
    sp.add_argument("--out", default=None)
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--config", default=None)
    sp.set_defaults(func=cmd_report)
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
    except (MarkovOrderError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as exc:  # a program bug, not a data error
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
