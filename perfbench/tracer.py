"""Run the markovorder CLI in-process with spans around each layer's calls.

Usage::

    python perfbench/tracer.py SUMMARY.json -- <markovorder CLI arguments>

The tracer replaces public functions with timing wrappers at the names their
callers look up (``markovorder.cli.read_trajectory``,
``markovorder.markov.standardize``, ``KernelCcf.weights`` ...), calls
``markovorder.cli.main`` and writes per-span totals to SUMMARY.json.  No
code under ``src/`` is changed.  A span's self time is its inclusive time
minus the time covered by the spans it caused.  Names a future version of
the program no longer has are skipped and read as zero calls.

Spans recorded inside ``--jobs`` worker processes stay in the workers; for
the batch as a whole the wrapper around ``batch_test`` records the CPU time
of the process and its reaped workers.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path


class Tracer:
    """Span stack and per-name totals for one traced command."""

    def __init__(self):
        self.stack: list[list[float]] = []   # child time of each open span
        self.top_level_s = 0.0               # time inside spans with no parent
        self.stats: dict[str, dict] = {}

    def _close(self, elapsed: float) -> None:
        if self.stack:
            self.stack[-1][0] += elapsed
        else:
            self.top_level_s += elapsed

    def wrap(self, owner, attr: str, name: str, count=None, durations: bool = False) -> None:
        """Replace ``owner.attr`` with a spanned version named ``name``.

        ``count(stats, args, kwargs, result)`` may add counters after the
        call; its own time is kept out of every span's self time.
        """
        st = self.stats.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        if durations:
            st.setdefault("durations_s", [])
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.stack.pop()
                self._close(elapsed)
                st["calls"] += 1
                st["incl_s"] += elapsed
                st["self_s"] += elapsed - frame[0]
                if durations:
                    st["durations_s"].append(elapsed)
            if count is not None:
                t1 = time.perf_counter()
                count(st, args, kwargs, result)
                self._close(time.perf_counter() - t1)
            return result

        setattr(owner, attr, spanned)


def _file_bytes(path) -> int:
    path = Path(path)
    sidecar = path.with_suffix(".json")
    return path.stat().st_size + (sidecar.stat().st_size if sidecar.exists() else 0)


def _count_read(st, args, kwargs, result):
    st["bytes"] = st.get("bytes", 0) + _file_bytes(kwargs.get("path", args[0]))


def _count_written(st, args, kwargs, result):
    st["bytes"] = st.get("bytes", 0) + _file_bytes(kwargs.get("path", args[1]))


def _count_rows(st, args, kwargs, result):
    rows = result[0] if isinstance(result, tuple) else result
    st["rows"] = st.get("rows", 0) + (rows.shape[0] if hasattr(rows, "shape") else len(rows))


def _count_cells(st, args, kwargs, result):
    st["cells"] = st.get("cells", 0) + int(getattr(result, "size", 0))


def _cpu_now() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _with_cpu(stats: dict, fn):
    """Record CPU seconds of this process and its reaped workers during fn,
    and the ``jobs`` argument it was called with."""
    @functools.wraps(fn)
    def measured(*args, **kwargs):
        c0 = _cpu_now()
        try:
            return fn(*args, **kwargs)
        finally:
            stats["cpu_s"] = stats.get("cpu_s", 0.0) + _cpu_now() - c0
            stats["jobs"] = int(kwargs.get("jobs", args[2] if len(args) > 2 else 1))
    return measured


def install(tracer: Tracer) -> None:
    import markovorder.ccf as ccf
    import markovorder.cli as cli
    import markovorder.ingest as ingest
    import markovorder.markov as markov

    tracer.wrap(cli, "batch_test", "markov.batch_test")
    if hasattr(cli, "batch_test"):
        cli.batch_test = _with_cpu(tracer.stats["markov.batch_test"], cli.batch_test)
    tracer.wrap(cli, "read_trajectory", "ingest.read_trajectory", count=_count_read)
    tracer.wrap(cli, "write_trajectory", "ingest.write_trajectory", count=_count_written)
    tracer.wrap(cli, "ingest_file", "ingest.ingest_file")
    tracer.wrap(markov, "estimate_order", "markov.estimate_order", durations=True)
    tracer.wrap(markov, "lag_test", "markov.lag_test")
    tracer.wrap(markov, "standardize", "core.standardize")
    tracer.wrap(ccf, "fit_forward_window", "ccf.fit_window")
    tracer.wrap(ccf, "fit_backward_window", "ccf.fit_window")
    tracer.wrap(ccf, "window_embed", "ccf.window_embed")
    tracer.wrap(ccf.KernelCcf, "weights", "ccf.weights", count=_count_cells)
    tracer.wrap(ccf.KernelCcf, "evaluate_many", "ccf.evaluate_many")
    tracer.wrap(ingest, "parse_csv", "ingest.parse_csv", count=_count_rows)
    for name in ("project_records", "interpolate_gaps", "resample"):
        tracer.wrap(ingest, name, f"ingest.{name}")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SUMMARY.json -- CLI_ARGS...", file=sys.stderr)
        return 1
    summary_path, cli_args = Path(argv[0]), argv[2:]
    import markovorder.cli as cli

    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    code = cli.main(cli_args)
    main_s = time.perf_counter() - t0
    summary_path.write_text(json.dumps({
        "exit_code": code, "main_s": main_s, "top_level_s": tracer.top_level_s,
        "spans": tracer.stats,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
