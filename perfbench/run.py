#!/usr/bin/env python3
"""Benchmark of the markovorder CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run generates seeded inputs under ``perfbench/.work``, launches the real
CLI (``python -m markovorder.cli`` with ``src`` on ``PYTHONPATH``) in rounds
for about S seconds (at least twice), checks every output, and prints as its
last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones listed in ``BENCHMARK.json``; with ``--trace 1`` they are
the per-layer ones, from launches through ``perfbench/tracer.py``
alternating with untraced launches.  The lines before the result hold the
environment, the input properties, every repetition's timings and the
checks that ran.  ``--workload all`` runs every workload untraced and then
traced, prints each result, and ends with one line over all of them.
``--scale smoke`` shrinks every input for a quick check of the benchmark
itself (``perfbench/smoke_test.py``).

Workloads (BENCHMARK.json says why each exists):

* ``short-batch``: 200 canonical d=3 CSVs, T=120, true order 1 or 2 ->
  ``test --jobs 1 --kmax 10``.  The fixed per-lag cost (residual summands and
  the multiplier bootstrap) dominates.
* ``short-batch-par``: the same corpus -> ``test --jobs <cores>``.  Its
  ``results.json`` must equal a serial run's byte for byte.  It runs by
  name and under ``--workload all`` but is not one of the workloads in
  BENCHMARK.json: a 9 s launch per round leaves room for only two or three
  rounds a run, and with one parallel launch taking both cores of a 2-core
  shared host its medians were the least steady of the four, while every
  layer it enters is measured on ``short-batch`` too.  Its ``cpu_s`` adds
  up the CPU time of every worker, so it shows the pool's overhead, not
  its speed-up.
* ``long-series``: 2 CSVs at T=2000 -> ``test --jobs 1 --kmax 10 --alpha
  0.01``.  The n^2 kernel matrices dominate time and memory.  alpha only
  moves reject flags, not any computation; at 0.05 one false rejection in
  two series would swing ``truth_match`` by a half between seeds.
* ``ingest-raw``: 4 geodetic 10 Hz one-hour raw files with about 1% blank
  leader cells -> ``ingest --resample-dt 0.1``.  Only the ingest layer works.

Times are CPU seconds at a fixed host speed.  On a shared 2-core host the
speed of one CPU switches within seconds between fast and slow states (one
ingest-raw launch took 3.5 to 6.4 CPU seconds within the hour; a fixed
Python task 0.12 to 0.29 s within minutes), and launches taken between
workload launches do not see the state a launch ran in.  So a thread of the
benchmark times a fixed burst of work (``probe_burst``, a mix from
``PROBES`` chosen per workload; nothing from the package) every 100 ms
*while* each launch runs, on the same CPU: every ``--jobs 1`` run pins
itself, and so its launches, to one CPU.  Both sides count CPU time, not
wall time (the launch's user+sys time from ``wait4``, the burst's
``time.thread_time``), so neither is charged for the time the other holds
the CPU or for anything else that runs on it: with a busy loop pinned to
the same CPU, short-batch launches took 19.4 s of wall time instead of 9.3
and its ``cpu_s`` rose by 4-5%.  A launch's CPU time multiplied by the mix's
nominal burst time / (its mean burst time) is its time at the nominal host
speed.  ``cpu_s`` and ``setup_s`` are medians of these scaled launch
times; throughputs derive from ``cpu_s``.  With one job and BLAS on one
thread the command's CPU time is its wall time on a quiet machine.  The
probe takes 2-5% of the CPU, the same on every commit.  The raw launch
wall and CPU times and host speeds are on the line before the result.

Every launched process has BLAS pinned to one thread
(OPENBLAS/OMP/MKL_NUM_THREADS=1).  With default BLAS threads on a 2-core
machine, ``test --jobs 2`` on the short-batch corpus took 27.3, 18.8 and
21.5 s in three runs (4 BLAS threads on 2 cores) against 5.2-6.1 s pinned;
that oversubscription is a known defect of the program, not what this
benchmark gates.

Exit status: 0 with a result, 1 with a result whose checks failed, 2
without a result when the program cannot be launched or a launch fails.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0     # a run must end within 180 s
MIN_REPS = 2            # the repeat-digest check compares at least two outputs
SETUP_PER_ROUND = 3     # --version launches before each workload launch
PROBE_EVERY_S = 0.1     # the speed probe times one burst this often during a launch
K_MAX = 10
RESAMPLE_DT = 0.1
SEGMENT_S = 120.0       # the CLI's default --segment-len
NPROC = len(os.sched_getaffinity(0))

SCALES = {
    "full": {"batch": 200, "batch_T": 120, "long": 2, "long_T": 2000,
             "raw": 4, "raw_s": 3600.0},
    "smoke": {"batch": 6, "batch_T": 60, "long": 2, "long_T": 150,
              "raw": 2, "raw_s": 300.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str               # "batch", "long" or "raw"
    probe: str                # the PROBES mix that tracks how the host slows this work
    jobs: int = 1
    flags: tuple = ()

    @property
    def is_ingest(self) -> bool:
        return self.corpus == "raw"

    def cli_args(self, input_dir: Path, out_dir: Path, jobs: int | None = None) -> list[str]:
        if self.is_ingest:
            return ["ingest", str(input_dir), "--out", str(out_dir),
                    "--resample-dt", repr(RESAMPLE_DT)]
        return ["test", str(input_dir), "--jobs", str(jobs or self.jobs),
                "--kmax", str(K_MAX), *self.flags, "--out", str(out_dir)]


WORKLOADS = {w.name: w for w in (
    Workload("short-batch", "batch", "small-numeric"),
    Workload("short-batch-par", "batch", "small-numeric", jobs=NPROC),
    Workload("long-series", "long", "large-numeric", flags=("--alpha", "0.01")),
    Workload("ingest-raw", "raw", "text"),
)}

E2E_UNITS = {"cpu_s": "s", "traj_per_s": "1/s", "rows_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB", "truth_match": "ratio"}


class LaunchError(Exception):
    """A launch failed or ran out of time; the run prints no result."""


@dataclass
class Launch:
    wall_s: float
    cpu_s: float        # user + system time of the process and its waited-for workers
    peak_rss_mb: float
    output: str
    speed: float        # host speed while the launch ran: nominal / mean probe burst

    @property
    def nominal_cpu_s(self) -> float:
        """CPU time at the probe's nominal host speed."""
        return self.cpu_s * self.speed


_rng = np.random.default_rng(0)
_SMALL = (_rng.standard_normal((40, 30)), _rng.standard_normal((30, 60)))
_MEDIUM = (_rng.standard_normal((300, 110)), _rng.standard_normal((110, 240)))
_STREAM = _rng.standard_normal(600_000)
_RAW_LINES = [",".join(f"{v:.7f}" for v in row) for row in
              _rng.standard_normal((400, 5)) * 50 + [0.0, 52.1, 13.4, 52.1, 13.4]]


class _Row:
    __slots__ = ("t", "x", "tag")

    def __init__(self, t: float, x: float, tag: str) -> None:
        self.t, self.x, self.tag = t, x, tag


def _small_products() -> None:
    for _ in range(80):
        np.abs(_SMALL[0] @ _SMALL[1]).max(axis=0)


def _python_loop() -> None:
    acc = 0
    for i in range(16000):
        acc += i * i


def _medium_products() -> None:
    for _ in range(3):
        np.abs(_MEDIUM[0] @ _MEDIUM[1]).max(axis=1)


def _stream() -> None:
    np.exp(_STREAM).sum()


def _parse_format() -> None:
    out = io.StringIO()
    for line in _RAW_LINES:
        t, lat0, lon0, lat1, lon1 = (float(v) for v in line.split(","))
        x = 6_371_000.0 * math.cos(math.radians(lat0)) * math.radians(lon0)
        out.write(f"{t:.3f},{x:.6f},{lat1 - lon1:.6f}\n")


def _objects() -> None:
    rows = [_Row(float(i), i * 0.5, str(i)) for i in range(3000)]
    sum(r.t + r.x for r in rows)


# Each workload's speed probe: a fixed burst of the kinds of work that
# dominate it, and the mean CPU time of that burst beside a launch of it on
# a quiet 2-core Xeon host.  How much a slow spell of the shared host slows
# code depends on the code.  Over 16-30 launches of each workload in each
# of two sessions, launch CPU time scaled by a probe of the workload's own
# kind of work (small numpy calls and Python for short-batch; large arrays
# too for long-series; parsing, formatting and small objects for
# ingest-raw) spread by 0.02-0.04 of its median (IQR); scaled by the
# large-numeric mix, short-batch spread by 0.07 and ingest-raw by 0.08-0.14.
PROBES = {
    "small-numeric": ((_small_products, _python_loop), 0.0021),
    "large-numeric": ((_small_products, _python_loop, _medium_products, _stream), 0.0048),
    "text": ((_python_loop, _parse_format, _objects), 0.0052),
}


def probe_burst(parts) -> float:
    """CPU time of one burst of the probe parts.  They use nothing from the
    package, so no change to the program changes them."""
    t0 = time.thread_time()
    for part in parts:
        part()
    return time.thread_time() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    # bytecode caches fill once under .work, whatever the caller's setting,
    # so launches import compiled modules as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def launch(argv: list[str], log: Path, deadline: float, probe: str) -> Launch:
    """Run one command to completion through ``spawn.py`` and return its wall
    and CPU time, the peak RSS of it and its waited-for workers (the
    largest single process) and the host speed the speed probe saw
    meanwhile."""
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        raise LaunchError(f"no time left for {argv[2:4]}")
    parts, nominal_s = PROBES[probe]
    bursts, stop = [], threading.Event()

    def sample() -> None:   # one burst at once, so even a short launch has one
        bursts.append(probe_burst(parts))
        while not stop.wait(PROBE_EVERY_S):
            bursts.append(probe_burst(parts))

    prober = threading.Thread(target=sample)
    usage_path = log.with_suffix(".usage.json")
    usage_path.unlink(missing_ok=True)
    with log.open("wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py"), str(usage_path),
                                 "--", *argv], cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        prober.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: end the launch before leaving
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            wall = time.perf_counter() - t0
            timer.cancel()
            stop.set()
            prober.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # stray members of the launch's process group do not outlive it
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    output = log.read_text(errors="replace")
    if proc.returncode != 0:
        raise LaunchError(f"{' '.join(argv[1:4])} exited {proc.returncode}:\n{output[-2000:]}")
    usage = json.loads(usage_path.read_text())
    return Launch(wall_s=wall, cpu_s=usage["cpu_s"],
                  peak_rss_mb=usage["peak_rss_kb"] / 1024.0, output=output,
                  speed=nominal_s / statistics.fmean(bursts))


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "markovorder.cli", *args]


def tracer_argv(summary: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"), str(summary), "--", *args]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "markovorder").rglob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def output_digest(out_dir: Path) -> str:
    """sha256 over every output file but manifest.json (which holds wall time)."""
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def make_inputs(wl: Workload, seed: int, scale: dict, in_dir: Path) -> dict:
    if wl.corpus == "batch":
        return inputs.write_corpus(in_dir, seed, scale["batch"], scale["batch_T"], "sb")
    if wl.corpus == "long":
        return inputs.write_corpus(in_dir, seed, scale["long"], scale["long_T"], "ls")
    props = inputs.write_raw_files(in_dir, seed, scale["raw"], scale["raw_s"])
    seg_rows = int(round(SEGMENT_S / RESAMPLE_DT))
    # no leading or trailing leader cell is blank, so every raw row survives
    # gap filling; deriving speeds and accelerations drops two instants
    props["segments_per_file"] = (int(round(props["duration_s"] * props["hz"])) - 2) // seg_rows
    props["segment_rows"] = seg_rows
    return props


def check_test_output(out_dir: Path, props: dict) -> tuple[bool, int, float]:
    """(content ok, failed items, share of estimated orders equal to the truth)."""
    results = json.loads((out_dir / "results.json").read_text())["results"]
    truth = props["true_orders"]
    by_id = {r["trajectory_id"]: r for r in results}
    failed = sum(1 for r in results if r.get("error")) + len(set(truth) - set(by_id))
    ok = ([r["trajectory_id"] for r in results] == sorted(truth)
          and all(isinstance(r.get("order"), int) and 1 <= r["order"] <= K_MAX
                  for r in results))
    match = sum(1 for tid, order in truth.items() if by_id.get(tid, {}).get("order") == order)
    return ok, failed, match / len(truth)


def check_ingest_output(out_dir: Path, seed: int, props: dict) -> tuple[bool, int, float]:
    """(content ok, failed inputs, share of output rows matching the truth).

    A row matches when speeds are within 0.2 m/s, the gap within 0.05 m and
    the follower acceleration within 0.05 m/s^2 of the values derived from
    the generator's exact positions; linear filling of a blank leader cell
    errs by a few millimetres, a wrong projection by metres.
    """
    manifest = json.loads((out_dir / "manifest.json").read_text())
    n_files, per_file = props["count"], props["segments_per_file"]
    seg_rows = props["segment_rows"]
    written = sorted(p.name for p in out_dir.glob("*.csv"))
    expected = [f"raw_{i:02d}_seg{j:03d}.csv" for i in range(n_files) for j in range(per_file)]
    failed = len(manifest["failed_inputs"])
    ok = written == expected and manifest.get("trajectories_written") == len(expected)
    rows = matched = 0
    for i in range(n_files):
        tr = inputs.raw_truth(seed, i, props["duration_s"], props["hz"])
        dt = 1.0 / props["hz"]
        v0 = np.diff(tr["lead"]) / dt
        v1 = np.diff(tr["follow"]) / dt
        want = np.column_stack([v0[1:], v1[1:], (tr["lead"] - tr["follow"])[2:],
                                np.diff(v1) / dt])
        for j in range(per_file):
            path = out_dir / f"raw_{i:02d}_seg{j:03d}.csv"
            if not path.exists():
                continue
            got = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
            ref = want[j * seg_rows:(j + 1) * seg_rows]
            good = (np.abs(got - ref) <= [0.2, 0.2, 0.05, 0.05]).all(axis=1)
            rows += ref.shape[0]
            matched += int(good.sum()) if got.shape == ref.shape else 0
    return ok, failed, matched / max(rows, 1)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


# per-layer metrics read straight off one span: "<span name>.<counter>"
SPAN_METRICS = (
    "markov.lag_test.calls", "markov.lag_test.self_s",
    "ccf.weights.calls", "ccf.weights.self_s", "ccf.weights.cells",
    "ccf.evaluate_many.self_s", "ccf.fit_window.calls", "ccf.fit_window.self_s",
    "ccf.window_embed.calls", "core.standardize.calls", "core.standardize.self_s",
    "ingest.read_trajectory.self_s", "ingest.read_trajectory.bytes",
    "ingest.ingest_file.self_s", "ingest.parse_csv.self_s", "ingest.parse_csv.rows",
    "ingest.project_records.self_s", "ingest.interpolate_gaps.self_s",
    "ingest.resample.self_s", "ingest.write_trajectory.self_s",
    "ingest.write_trajectory.bytes",
)
COUNTER_UNITS = {"calls": "count", "cells": "count", "rows": "count", "bytes": "B",
                 "self_s": "s"}


def layer_metrics(summary: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced launch; layers it never entered read 0."""
    spans = summary["spans"]
    m = {}
    for name in SPAN_METRICS:
        span, counter = name.rsplit(".", 1)
        m[name] = (spans.get(span, {}).get(counter, 0), COUNTER_UNITS[counter])
    batch = spans.get("markov.batch_test", {})
    busy, batch_wall = batch.get("cpu_s", 0.0), batch.get("incl_s", 0.0)
    est_ms = [d * 1e3 for d in spans.get("markov.estimate_order", {}).get("durations_s", [])]
    m.update({
        "markov.estimate_order.p50_ms": (percentile(est_ms, 50), "ms"),
        "markov.estimate_order.p95_ms": (percentile(est_ms, 95), "ms"),
        "markov.batch_test.busy_s": (busy, "s"),
        "markov.batch_test.cpu_util": (
            busy / (batch_wall * batch.get("jobs", 1)) if batch_wall else 0.0, "ratio"),
        "cli.self_s": (summary["main_s"] - summary["top_level_s"], "s"),
        "trace.main_s": (summary["main_s"], "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    return m


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = got.stdout.strip() or sha
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": {v: 1 for v in BLAS_THREAD_VARS},
            "nproc": NPROC, "cpu_model": cpu, "git_sha": sha,
            "jobs": {w.name: w.jobs for w in WORKLOADS.values()}}


def emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def record(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}")
    tmp.write_text(text)
    tmp.replace(path)


def run(wl: Workload, seed: int, seconds: int, trace: bool, scale_name: str, work: Path,
        deadline: float) -> dict:
    scale = SCALES[scale_name]
    in_dir = work / "inputs"
    t0 = time.perf_counter()
    props = make_inputs(wl, seed, scale, in_dir)
    emit({"workload": wl.name, "seed": seed, "trace": int(trace),
          "inputs_s": time.perf_counter() - t0, "env": environment(),
          "inputs": {k: v for k, v in props.items() if k != "true_orders"}})

    # the first launch fills the bytecode caches
    version = launch(cli_argv(["--version"]), work / "version.log", deadline, wl.probe)
    checks = {"version": version.output.startswith("markovorder")}
    setup = []

    # digest of a --jobs 1 results.json for this corpus and program; serial
    # runs record it, parallel runs compare against it (or make it, untimed)
    serial_key = WORK / "serial" / f"{wl.corpus}-{scale_name}-{seed}-{source_digest()}.sha256"
    reference = None
    if wl.jobs > 1:
        if not serial_key.exists():
            ref_dir = work / "serial"
            launch(cli_argv(wl.cli_args(in_dir, ref_dir, jobs=1)), work / "serial.log",
                   deadline, wl.probe)
            record(serial_key, file_digest(ref_dir / "results.json"))
        reference = serial_key.read_text()

    launches, digests, layers = [], [], []
    measure_start = time.monotonic()
    while True:
        i = len(digests)
        out_dir = work / f"out{i}"
        if not trace:   # spread over the run, so one slow spell moves few samples
            setup += [launch(cli_argv(["--version"]), work / "version.log", deadline, wl.probe)
                      for _ in range(SETUP_PER_ROUND)]
        plain = launch(cli_argv(wl.cli_args(in_dir, out_dir)), work / f"out{i}.log", deadline,
                       wl.probe)
        launches.append(plain)
        digests.append(output_digest(out_dir))
        if reference is not None:
            checks["par_matches_serial"] = checks.get("par_matches_serial", True) and \
                file_digest(out_dir / "results.json") == reference
        elif i == 0 and not wl.is_ingest:
            record(serial_key, file_digest(out_dir / "results.json"))
        if trace:
            summary_path = work / f"trace{i}.json"
            traced_dir = work / f"traced{i}"
            traced = launch(tracer_argv(summary_path, wl.cli_args(in_dir, traced_dir)),
                            work / f"trace{i}.log", deadline, wl.probe)
            summary = json.loads(summary_path.read_text())
            layers.append(layer_metrics(summary, traced.wall_s, plain.wall_s))
            digests.append(output_digest(traced_dir))
            shutil.rmtree(traced_dir)
        if i > 0:
            shutil.rmtree(out_dir)
        now = time.monotonic()
        elapsed = now - measure_start
        per_round = elapsed / len(launches)
        # stop at the round count whose total comes nearest to the requested
        # seconds, so a long round does not stretch the run by a whole round
        if len(digests) >= MIN_REPS and elapsed + per_round / 2 >= seconds:
            break
        if now + 1.5 * per_round > deadline:
            if len(digests) < MIN_REPS:
                raise LaunchError("too slow for two repetitions within the time limit")
            break

    checks["repeat_digest"] = len(set(digests)) == 1
    if wl.is_ingest:
        ok, failed_once, truth = check_ingest_output(work / "out0", seed, props)
        checks["ingest_content"] = ok
        checks["truth"] = truth == 1.0
        per_launch = props["count"]
        items, rows = props["count"] * props["segments_per_file"], props["rows"]
    else:
        ok, failed_once, truth = check_test_output(work / "out0", props)
        checks["results_content"] = ok
        checks["truth"] = truth >= 0.5   # an estimator that still finds most orders
        per_launch = items = props["count"]
        rows = props["rows"]
    checks["exit_codes"] = True   # a failed launch raises before this point
    outputs = len(digests)

    emit({"launch_wall_s": [x.wall_s for x in launches],
          "launch_cpu_s": [x.cpu_s for x in launches],
          "launch_speed": [x.speed for x in launches],
          "launch_peak_rss_mb": [x.peak_rss_mb for x in launches],
          "setup_cpu_s": [x.cpu_s for x in setup],
          "setup_speed": [x.speed for x in setup], "checks": checks})
    if trace:
        metrics = {name: {"value": statistics.median(m[name][0] for m in layers),
                          "unit": unit}
                   for name, (_, unit) in layers[0].items()}
    else:
        cpu = statistics.median(x.nominal_cpu_s for x in launches)
        values = {"cpu_s": cpu, "traj_per_s": items / cpu, "rows_per_s": rows / cpu,
                  "setup_s": statistics.median(x.nominal_cpu_s for x in setup),
                  "peak_rss_mb": statistics.median(x.peak_rss_mb for x in launches),
                  "truth_match": truth}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    failed = failed_once * outputs
    return {"correct": all(checks.values()) and failed == 0,
            "attempted": per_launch * outputs, "failed": failed, "metrics": metrics}


def run_in_workdir(wl: Workload, args: argparse.Namespace, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / f"{wl.name}-s{args.seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cpus = os.sched_getaffinity(0)
    if wl.jobs == 1:   # the launches and the speed probe share one CPU
        os.sched_setaffinity(0, {min(cpus)})
    try:
        return run(wl, args.seed, args.seconds, trace, args.scale, work, deadline)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them, each untraced and then traced")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "markovorder" / "cli.py").is_file():
        print(f"markovorder sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        plan = [(wl, trace) for wl in WORKLOADS.values() for trace in (False, True)]
    else:
        plan = [(WORKLOADS[args.workload], bool(args.trace))]
    results = []
    for wl, trace in plan:
        try:
            result = run_in_workdir(wl, args, trace)
        except LaunchError as exc:
            print(f"launch failed: {exc}", file=sys.stderr)
            return 2
        if len(plan) > 1:
            emit({"workload": wl.name, "trace": int(trace), **result})
        results.append((wl.name, result))
    if len(plan) == 1:
        result = results[0][1]
    else:   # one line over every run, metrics named <workload>/<metric>
        result = {"correct": all(r["correct"] for _, r in results),
                  "attempted": sum(r["attempted"] for _, r in results),
                  "failed": sum(r["failed"] for _, r in results),
                  "metrics": {f"{name}/{k}": v for name, r in results
                              for k, v in r["metrics"].items()}}
    emit(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
