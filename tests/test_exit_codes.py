"""Exit codes under generated inputs.

A JSON field of the wrong type in a ``--config`` file, a generator spec, a
results file or a trajectory sidecar is read (exit 0) or is a data error
(exit 2) whose message names the file or the key; it is never an internal
error (exit 3).  A raw or canonical CSV whose bytes are mutated fails alone
beside a valid sibling.  ``cli.main`` runs in-process on each mutation.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from markovorder import ingest
from markovorder.cli import main

HUGE = "<1e400>"   # written as the JSON number 1e400, which reads as inf
WRONG = st.sampled_from([True, False, None, "", "x", "1", "-1", "nan", "inf", "1e400",
                         [], [1, "a"], [[0.5]], HUGE, {}, {"a": {"b": [1]}}])
FAST = ["--kmax", "1", "--freqs", "4", "--bootstrap", "19"]
SPEC = {"kind": "var", "name": "v", "cohort": "c", "coeffs": [[[0.4]]], "noise_cov": [[1.0]],
        "burn_in": 10, "dt": 0.5, "length": 40, "true_order": 1}
COMMON = {key: SPEC[key] for key in ("name", "cohort", "dt", "length", "true_order")}
SPECS = {"var": SPEC,   # a valid spec of each kind, with every key it takes
         "chain": {**COMMON, "kind": "chain", "order": 1,
                   "transition": [[0.5, 0.5], [0.5, 0.5]], "embedding": [[0.0], [1.0]]},
         "hidden": {**COMMON, "kind": "hidden", "persistence": 0.9, "means": [[-1.0], [1.0]]}}
RAW = "time_s,lead_x,lead_y,follow_x,follow_y\n" + "".join(
    f"{i},{50 + 5.0 * i},0.0,{3.5 * i},0.0\n" for i in range(300))

examples = settings(derandomize=True, max_examples=100, deadline=None)


def write(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload).replace(json.dumps(HUGE), "1e400"))
    return path


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def assert_read_or_named(code: int, err: str, *names) -> None:
    assert code in (0, 2), err
    assert code == 0 or any(str(name) in err for name in names), err


@contextlib.contextmanager
def folder():
    with tempfile.TemporaryDirectory() as name:
        yield Path(name)


def corpus(root: Path) -> Path:
    out = root / "corpus"
    assert run(["synth", write(root / "spec.json", SPEC), "--count", 2, "--out", out])[0] == 0
    return out


@examples
@given(command=st.sampled_from(["test", "calibrate", "synth", "ingest", "report"]),
       data=st.data())
def test_config_field_of_the_wrong_type(command, data):
    keys = {"test": ["alpha", "kmax", "freqs", "bootstrap", "seed", "estimator", "jobs"],
            "calibrate": ["replications", "length", "dim", "spec", "seed", "jobs"],
            "synth": ["count", "length", "seed"],
            "ingest": ["resample-dt", "segment-len", "min-len", "segment-mode", "trim-head",
                       "trim-tail", "cohort", "scenario"],
            "report": ["kmax"]}[command]
    key, value = data.draw(st.sampled_from(keys)), data.draw(WRONG)
    with folder() as root:
        config = write(root / "run.json", {key: value})
        (root / "raw.csv").write_text(RAW)
        results = write(root / "results.json", [{"order": 1}, {"order": 2}])
        argv = {"test": ["test", corpus(root), *FAST],
                "calibrate": ["calibrate", "--replications", 1, "--length", 40, "--dim", 1,
                              *FAST],
                "synth": ["synth", write(root / "spec.json", SPEC)],
                "ingest": ["ingest", root / "raw.csv"],
                "report": ["report", f"a={results}"]}[command]
        # a flag given on the command line wins over the file, so drop it
        if f"--{key}" in argv:
            index = argv.index(f"--{key}")
            argv = argv[:index] + argv[index + 2:]
        code, err = run([*argv, "--config", config, "--out", root / "out"])
        assert_read_or_named(code, err, config, f"--{key.replace('_', '-')}")


@examples
@given(base=st.sampled_from(sorted(SPECS)), data=st.data(),
       command=st.sampled_from(["synth", "calibrate"]))
def test_spec_field_of_the_wrong_type(base, data, command):
    key, value = data.draw(st.sampled_from(sorted(SPECS[base]))), data.draw(WRONG)
    with folder() as root:
        spec = write(root / "spec.json", {**SPECS[base], key: value})
        argv = (["synth", spec] if command == "synth" else
                ["calibrate", "--spec", spec, "--replications", 1, *FAST])
        code, err = run([*argv, "--out", root / "out"])
        assert_read_or_named(code, err, spec, repr(key), key)


@examples
@given(key=st.sampled_from(["results", "order", "k_max", "error"]), value=WRONG)
def test_results_field_of_the_wrong_type(key, value):
    with folder() as root:
        entry = {"trajectory_id": "t", "order": 2, "k_max": 3, "error": None}
        payload = ({"results": value} if key == "results" else
                   {"results": [{"order": 1, "k_max": 3}, {**entry, key: value}]})
        good = write(root / "good.json", [{"order": 1}, {"order": 2}])
        bad = write(root / "bad.json", payload)
        code, err = run(["report", f"a={good}", f"b={bad}", "--out", root / "out"])
        assert_read_or_named(code, err, bad)


@examples
@given(command=st.sampled_from(["test", "calibrate", "synth", "ingest", "report"]),
       value=WRONG.filter(lambda v: v == HUGE or not isinstance(v, (str, type(None)))))
def test_config_out_not_a_string(command, value):
    with folder() as root:
        config = write(root / "run.json", {"out": value})
        (root / "raw.csv").write_text(RAW)
        results = write(root / "results.json", [{"order": 1}])
        argv = {"test": ["test", root / "raw.csv"], "calibrate": ["calibrate"],
                "synth": ["synth", write(root / "spec.json", SPEC)],
                "ingest": ["ingest", root / "raw.csv"], "report": ["report", f"a={results}"]}
        code, err = run([*argv[command], "--config", config])
        assert code == 2 and err.startswith("data error: --out: bad value "), err


@examples
@given(order=st.integers(1, 10_000), below=st.integers(1, 10_000), whole=st.booleans())
def test_results_k_max_below_its_order(order, below, whole):
    with folder() as root:
        k_max = order - below if whole else order - below / 2
        good = write(root / "good.json", [{"order": 1}, {"order": 2}])
        bad = write(root / "bad.json", [{"order": 1, "k_max": 3}, {"order": order, "k_max": k_max}])
        code, err = run(["report", f"a={good}", f"b={bad}", "--out", root / "out"])
        assert code == 2 and f"{bad}: order {order} is not <= its k_max {k_max!r}" in err, err
        assert not (root / "out").exists()


@examples
@given(dt=st.floats(1e-300, 1e-12), key=st.sampled_from(["resample-dt", "resample_dt"]))
def test_ingest_config_resample_dt_too_small(dt, key):
    # 300 rows a second apart make a grid of over 1e14 rows, above the cap
    with folder() as root:
        (root / "raw.csv").write_text(RAW)
        config = write(root / "run.json", {key: dt})
        code, err = run(["ingest", root / "raw.csv", "--config", config, "--out", root / "out"])
        assert code == 2, err
        manifest = json.loads((root / "out" / "manifest.json").read_text())
        assert manifest["failed_inputs"] == [str(root / "raw.csv")], manifest


@examples
@given(key=st.sampled_from(["id", "dt", "metadata", "cohort"]), value=WRONG)
def test_sidecar_field_of_the_wrong_type(key, value):
    with folder() as root:
        trajectories = corpus(root)
        sidecar = trajectories / "v_0001.json"
        payload = json.loads(sidecar.read_text())
        if key == "cohort":
            payload["metadata"]["cohort"] = value
        else:
            payload[key] = value
        write(sidecar, payload)
        code, err = run(["test", trajectories, *FAST, "--out", root / "out"])
        assert code == 0, err   # the sibling is still tested
        results = json.loads((root / "out" / "results.json").read_text())["results"]
        tested = [r for r in results if "order" in r]
        failed = [r["error"] for r in results if "error" in r]
        assert "v_0000" in [r["trajectory_id"] for r in tested], results
        assert all(sidecar.name in error or key in error for error in failed), failed


# cells a mutation writes, the last one above the csv module's field limit
CELLS = {"nan": "nan", "inf": "inf", "1e400": "1e400", "huge": "9" * 200_000}


def mutate(path: Path, mutation: str, row: int, col: int, quoted: bool) -> None:
    """Apply ``mutation`` to the CSV ``path`` at cell ``col`` of line ``row``."""
    if mutation == "directory":
        path.unlink()
        path.mkdir()
        return
    lines = path.read_text().splitlines(keepends=True)
    body = lines[row].rstrip("\r\n")
    cells = body.split(",")
    col %= len(cells)
    if mutation == "empty":
        lines = []
    elif mutation == "header":
        lines = lines[:1]
    elif mutation == "truncate":   # mid-line, inside cell col
        lines[row:] = [",".join(cells[:col + 1])[:-1]]
    else:
        if mutation in CELLS:
            cells[col] = f'"{CELLS[mutation]}"' if quoted else CELLS[mutation]
        else:
            cells[col] = {"not-utf8": cells[col] + "\xe9", "nul": cells[col] + "\x00",
                          "quote": f'"{cells[col]}"'}[mutation]
        lines[row] = ",".join(cells) + lines[row][len(body):]
    path.write_bytes("".join(lines).encode("latin-1"))   # else ASCII: 0xe9 is the one non-UTF-8 byte


@settings(examples, max_examples=300)
@example(kind="raw", mutation="huge", row=3, col=2, quoted=True)
@example(kind="canonical", mutation="huge", row=3, col=1, quoted=False)
@given(kind=st.sampled_from(["raw", "canonical"]),
       mutation=st.sampled_from(["not-utf8", "nul", "truncate", "empty", "header", "directory",
                                 "quote", *CELLS]),
       row=st.integers(1, 40), col=st.integers(0, 4), quoted=st.booleans())
def test_csv_bytes_mutated(kind, mutation, row, col, quoted):
    with folder() as root, mock.patch.object(ingest, "_parse_rows",
                                             wraps=ingest._parse_rows) as row_wise:
        if kind == "raw":
            inputs = root / "raw"
            inputs.mkdir()
            for name in ("good.csv", "bad.csv"):
                (inputs / name).write_text(RAW)
            argv = ["ingest", inputs]
        else:
            inputs = corpus(root)
            argv = ["test", inputs, *FAST]
        bad = inputs / ("bad.csv" if kind == "raw" else "v_0001.csv")
        mutate(bad, mutation, row, col, quoted)
        code, err = run([*argv, "--out", root / "out"])
        assert code == 0, err   # the sibling is still read
        if kind == "raw":
            manifest = json.loads((root / "out" / "manifest.json").read_text())
            assert manifest["failed_inputs"] in ([], [str(bad)]), manifest
            assert (root / "out" / "good_seg000.csv").exists()
            if mutation == "quote" or (quoted and mutation in CELLS):
                assert row_wise.call_count == 1   # the quote leaves the block parser
        else:
            results = json.loads((root / "out" / "results.json").read_text())["results"]
            assert [r["trajectory_id"] for r in results] == ["v_0000", "v_0001"], results
            assert "order" in results[0], results
