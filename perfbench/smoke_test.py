"""Fast check of the benchmark itself at tiny input sizes.

Run from the repository root with ``python3 perfbench/smoke_test.py`` (or
with pytest).  Every workload runs once untraced and once traced with
``--scale smoke``; the test fails if a run exits non-zero, a metric named in
BENCHMARK.json is missing or has the wrong unit, a workload's output check
did not run or failed, or the traced layers are not the ones the workload
should enter.  It also checks that the benchmark refuses to print a result
where the program's sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BASE_CHECKS = {"version", "exit_codes", "repeat_digest", "truth"}
# short-batch-par runs by name but is not gated in BENCHMARK.json; its
# check that parallel output equals serial output still has to run
WORKLOADS = [*(w["name"] for w in SPEC["workloads"]), "short-batch-par"]


def bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


def expected_checks(workload: str) -> set[str]:
    extra = {"ingest_content"} if workload == "ingest-raw" else {"results_content"}
    if workload == "short-batch-par":
        extra.add("par_matches_serial")
    return BASE_CHECKS | extra


def check_run(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    ran = {name for name, ok in info["checks"].items() if ok}
    assert ran >= expected_checks(workload), (workload, info["checks"])
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, set(metrics) ^ {m["name"] for m in wanted}
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
        if not trace:
            assert got["value"] > 0, (workload, m["name"], got)
    return metrics


def test_every_workload_untraced():
    for name in WORKLOADS:
        check_run(name, 0)


def test_every_workload_traced():
    for name in WORKLOADS:
        m = check_run(name, 1)
        estimator = [m[n]["value"] for n in m if n.startswith(("markov.lag_test", "ccf."))]
        if name == "ingest-raw":
            assert not any(estimator) and m["ingest.parse_csv.rows"]["value"] > 0
        elif name == "short-batch-par":
            # lag tests run in the workers; only the batch totals reach the parent
            assert m["markov.batch_test.busy_s"]["value"] > 0
        else:
            assert m["markov.lag_test.calls"]["value"] > 0
            assert m["ingest.parse_csv.rows"]["value"] == 0


def test_no_result_without_program():
    bare = ROOT / "perfbench" / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = bench(SPEC["workloads"][0]["name"], 0, root=bare)
        assert proc.returncode != 0
        assert not any(set(json.loads(ln)) == RESULT_KEYS
                       for ln in proc.stdout.splitlines() if ln.startswith("{"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}", flush=True)
