import json
import weakref
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from markovorder import cli
from markovorder.cli import main
from markovorder.cohorts import f_test, pooled_t_test
from markovorder.errors import DuplicateTrajectoryIdError, MarkovOrderError
from markovorder.ingest import IngestConfig, read_trajectory
from markovorder.markov import BatchItem, MarkovTestResult, OrderEstimate, TestConfig, batch_test

VAR1_SPEC = {
    "kind": "var", "name": "v1", "cohort": "demo",
    "coeffs": [[[0.4]]], "noise_cov": [[1.0]], "length": 90,
}


def write_spec(tmp_path: Path, spec=None, name="spec.json") -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(spec or VAR1_SPEC))
    return p


def run(args) -> int:
    return main([str(a) for a in args])


class TestSynth:
    def test_same_seed_identical_files(self, tmp_path):
        spec = write_spec(tmp_path)
        for d in ("a", "b"):
            assert run(["synth", spec, "--count", 2, "--seed", 9,
                        "--out", tmp_path / d]) == 0
        for name in ("v1_0000.csv", "v1_0001.csv", "v1_0000.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_count_zero_writes_nothing(self, tmp_path):
        spec = write_spec(tmp_path)
        assert run(["synth", spec, "--count", 0, "--out", tmp_path / "empty"]) == 0
        assert list((tmp_path / "empty").glob("*.csv")) == []
        assert (tmp_path / "empty" / "manifest.json").exists()

    def test_true_order_metadata(self, tmp_path):
        spec = write_spec(tmp_path, {
            "kind": "var", "name": "v2", "length": 60,
            "coeffs": [[[0.3]], [[0.2]]], "noise_cov": [[1.0]],
        })
        assert run(["synth", spec, "--count", 1, "--out", tmp_path / "o"]) == 0
        sidecar = json.loads((tmp_path / "o" / "v2_0000.json").read_text())
        assert sidecar["metadata"]["true_order"] == "2"

    def test_chain_and_hidden_kinds(self, tmp_path):
        chain = write_spec(tmp_path, {
            "kind": "chain", "name": "c", "order": 1, "length": 50,
            "transition": [[0.5, 0.5], [0.5, 0.5]], "embedding": [[0.0], [1.0]],
        }, name="chain.json")
        hidden = write_spec(tmp_path, {
            "kind": "hidden", "name": "h", "persistence": 0.9,
            "means": [[-1.0], [1.0]], "length": 50,
        }, name="hidden.json")
        assert run(["synth", chain, "--count", 1, "--out", tmp_path / "c"]) == 0
        assert run(["synth", hidden, "--count", 1, "--out", tmp_path / "h"]) == 0

    def test_unknown_kind_is_data_error(self, tmp_path):
        spec = write_spec(tmp_path, {"kind": "bogus"}, name="bad.json")
        assert run(["synth", spec, "--count", 1, "--out", tmp_path / "x"]) == 2

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "var", "noise_cov": [[1.0]]}, "coeffs"),
        ({**VAR1_SPEC, "noise_cov": "x"}, "noise_cov"),
        ({**VAR1_SPEC, "dt": "fast"}, "dt"),
        ({"kind": "hidden", "means": [[0.0], [1.0]]}, "persistence"),
        ({"kind": "chain", "order": "one", "transition": [[1.0]],
          "embedding": [[0.0]]}, "order"),
        ({**VAR1_SPEC, "burn_in": True}, "burn_in"),
        ({**VAR1_SPEC, "dt": True}, "dt"),
    ])
    def test_malformed_spec_is_data_error_naming_key(self, tmp_path, capsys, spec, key):
        path = write_spec(tmp_path, spec, name="bad.json")
        for argv in (["synth", path, "--count", 1, "--out", tmp_path / "x"],
                     ["calibrate", "--spec", path, "--replications", 1, "--length", 60,
                      "--kmax", 1, "--out", tmp_path / "cal"]):
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error: generator spec: ") and repr(key) in err

    def test_unconvertible_length_is_data_error(self, tmp_path, capsys):
        path = write_spec(tmp_path, {**VAR1_SPEC, "length": [90]}, name="bad.json")
        assert run(["synth", path, "--count", 1, "--out", tmp_path / "x"]) == 2
        assert "bad value for 'length'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["length", "burn_in", "order", "true_order"])
    def test_fractional_integer_field_is_data_error(self, tmp_path, capsys, key):
        chain = {"kind": "chain", "name": "c", "order": 1, "length": 50,
                 "transition": [[0.5, 0.5], [0.5, 0.5]], "embedding": [[0.0], [1.0]]}
        base = chain if key == "order" else VAR1_SPEC
        whole = {"length": 60, "burn_in": 10, "order": 1, "true_order": 1}[key]
        for value, code in ((whole + 0.7, 2), (float(whole), 0), (whole, 0)):
            path = write_spec(tmp_path, {**base, key: value}, name="frac.json")
            out = tmp_path / f"o{value!r}"
            argv = (["calibrate", "--spec", path, "--replications", 1, "--length", 60,
                     "--kmax", 1, "--freqs", 4, "--bootstrap", 19, "--out", out]
                    if key == "true_order" else ["synth", path, "--count", 1, "--out", out])
            assert run(argv) == code
            err = capsys.readouterr().err
            assert (f"bad value for {key!r}: {value!r} is not a whole number" in err) == (code == 2)
        if key == "length":   # whole-valued floats give the full series
            rows = (out / "v1_0000.csv").read_text().splitlines()
            assert len(rows) == 1 + whole

    @pytest.mark.parametrize("name", ["../x", "a/b", "", 5])
    def test_unsafe_name_is_data_error_writing_nothing(self, tmp_path, capsys, name):
        spec = write_spec(tmp_path, {**VAR1_SPEC, "name": name}, name="bad.json")
        assert run(["synth", spec, "--count", 2, "--out", tmp_path / "sub" / "out"]) == 2
        assert "bad value for 'name'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["bad.json"]

    @pytest.mark.parametrize("cohort", [5, ["a"], {"a": "b"}, True])
    def test_cohort_not_text_is_data_error_writing_nothing(self, tmp_path, capsys, cohort):
        spec = write_spec(tmp_path, {**VAR1_SPEC, "cohort": cohort}, name="bad.json")
        assert run(["synth", spec, "--count", 2, "--out", tmp_path / "sub" / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: generator spec: bad value for 'cohort'"), err
        assert [p.name for p in tmp_path.rglob("*")] == ["bad.json"]

    @pytest.mark.parametrize("cohort, written", [("demo", "demo"), ("", None), (None, None)])
    def test_cohort_text_is_written_and_empty_one_is_not(self, tmp_path, cohort, written):
        spec = write_spec(tmp_path, {**VAR1_SPEC, "cohort": cohort})
        assert run(["synth", spec, "--count", 1, "--out", tmp_path / "o"]) == 0
        sidecar = json.loads((tmp_path / "o" / "v1_0000.json").read_text())
        assert sidecar["metadata"].get("cohort") == written

    @pytest.mark.parametrize("key", ["burnin", "lenght", "order"])
    def test_unknown_spec_key_is_data_error_naming_it_and_the_file(self, tmp_path, capsys, key):
        # "order" is a key of a chain spec, not of a var spec
        spec = write_spec(tmp_path, {**VAR1_SPEC, key: 0}, name="typo.json")
        for argv in (["synth", spec, "--count", 1],
                     ["calibrate", "--spec", spec, "--replications", 1, "--length", 60,
                      "--kmax", 1, "--freqs", 4, "--bootstrap", 19]):
            assert run([*argv, "--out", tmp_path / "out"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"data error: generator spec {spec}: {key!r} is not a key "
                                  "of a var spec"), err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, reason", [
        ({"coeffs": [[[1.2]]]}, "companion spectral radius"),
        ({"noise_cov": [[-1.0]]}, "positive definite"),
        ({"length": 1}, "need T >= 2, got 1"),
        ({"dt": float("inf")}, "dt must be > 0, got inf"),
    ])
    def test_spec_the_generator_rejects_is_data_error_naming_the_file(self, tmp_path, capsys,
                                                                      change, reason):
        spec = write_spec(tmp_path, {**VAR1_SPEC, **change}, name="rejected.json")
        assert run(["synth", spec, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: generator spec {spec}: ") and reason in err, err
        assert not (tmp_path / "out").exists()

    # checked when the spec is read, so a run that generates nothing fails too
    @pytest.mark.parametrize("spec", [
        {**VAR1_SPEC, "noise_cov": [[float("inf")]]},
        {**VAR1_SPEC, "coeffs": [[[float("nan")]]]},
        {"kind": "chain", "order": 1, "transition": [[0.5, 0.5], [0.5, 0.5]],
         "embedding": [[0.0], [float("inf")]]},
    ], ids=["noise_cov", "coeffs", "embedding"])
    def test_non_finite_spec_parameter_is_data_error_naming_the_file(self, tmp_path, capsys,
                                                                     spec):
        path = write_spec(tmp_path, spec, name="nonfinite.json")
        assert run(["synth", path, "--count", 0, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: generator spec {path}: ") and "must be finite" in err
        assert not (tmp_path / "out").exists()

    # a hidden spec is checked when it is read, as var and chain specs are
    @pytest.mark.parametrize("change, reason", [
        ({"means": [[0.0], [float("inf")]]}, "regime means must be finite"),
        ({"persistence": 1.5}, "persistence must lie in (0, 1), got 1.5"),
        ({"persistence": float("nan")}, "persistence must lie in (0, 1), got nan"),
        ({"means": [[], []]}, "exactly two non-empty regime means"),
    ], ids=["means", "persistence", "persistence-nan", "means-empty"])
    def test_invalid_hidden_spec_is_data_error_naming_the_file(self, tmp_path, capsys,
                                                               change, reason):
        spec = {"kind": "hidden", "persistence": 0.9, "means": [[-1.0], [1.0]], **change}
        path = write_spec(tmp_path, spec, name="hidden.json")
        assert run(["synth", path, "--count", 0, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: generator spec {path}: ") and reason in err, err
        assert not (tmp_path / "out").exists()

    def test_spec_not_json_object_is_data_error(self, tmp_path):
        for name, text in (("broken.json", "{"), ("list.json", "[1, 2]")):
            (tmp_path / name).write_text(text)
            assert run(["synth", tmp_path / name, "--out", tmp_path / "x"]) == 2
            assert run(["calibrate", "--spec", tmp_path / name, "--replications", 1,
                        "--out", tmp_path / "cal"]) == 2


@pytest.fixture
def corpus(tmp_path):
    spec = write_spec(tmp_path)
    out = tmp_path / "corpus"
    assert run(["synth", spec, "--count", 4, "--seed", 3, "--out", out]) == 0
    return out


class TestTest:
    def args(self, corpus, out, extra=()):
        return ["test", corpus, "--seed", 42, "--kmax", 2, "--freqs", 8,
                "--bootstrap", 49, "--out", out, *extra]

    def test_fixed_seed_rerun_identical(self, corpus, tmp_path):
        assert run(self.args(corpus, tmp_path / "r1")) == 0
        assert run(self.args(corpus, tmp_path / "r2")) == 0
        assert (tmp_path / "r1" / "results.json").read_bytes() == \
               (tmp_path / "r2" / "results.json").read_bytes()

    def test_alpha_does_not_change_p_values(self, corpus, tmp_path):
        assert run(self.args(corpus, tmp_path / "a5", ["--alpha", 0.05])) == 0
        assert run(self.args(corpus, tmp_path / "a1", ["--alpha", 0.01])) == 0
        r5 = json.loads((tmp_path / "a5" / "results.json").read_text())["results"]
        r1 = json.loads((tmp_path / "a1" / "results.json").read_text())["results"]
        for x, y in zip(r5, r1):
            p5 = [lag["p_value"] for lag in x["per_lag"]]
            p1 = [lag["p_value"] for lag in y["per_lag"]]
            assert p5 == p1

    def test_jobs_do_not_change_results(self, corpus, tmp_path):
        assert run(self.args(corpus, tmp_path / "j1", ["--jobs", 1])) == 0
        assert run(self.args(corpus, tmp_path / "j2", ["--jobs", 2])) == 0
        assert (tmp_path / "j1" / "results.json").read_bytes() == \
               (tmp_path / "j2" / "results.json").read_bytes()

    def test_manifest_records_run(self, corpus, tmp_path):
        assert run(self.args(corpus, tmp_path / "m")) == 0
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["command"] == "test"
        assert manifest["config"]["rng_seed"] == 42
        assert len(manifest["inputs"]) == 4
        assert "config_hash" in manifest and "wall_time_s" in manifest
        env = manifest["environment"]
        assert env["numpy"] == np.__version__ and env["jobs"] == 1
        assert "jobs" not in manifest   # recorded once, under environment
        assert env["cpu_count"] >= 1 and isinstance(env["heap_kept"], bool)
        assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS"}
        # the environment and the lag count are run telemetry: neither reaches results.json
        results = (tmp_path / "m" / "results.json").read_text()
        assert "environment" not in results and "lags_tested" not in results
        assert manifest["lags_tested"] == sum(len(r["per_lag"])
                                              for r in json.loads(results)["results"])

    def test_result_keys_are_record_fields(self, corpus, tmp_path):
        assert run(self.args(corpus, tmp_path / "k")) == 0
        results = json.loads((tmp_path / "k" / "results.json").read_text())["results"]
        assert len(results) == 4
        for item in results:
            assert set(item) == {"trajectory_id"} | {f.name for f in fields(OrderEstimate)}
            for lag in item["per_lag"]:
                assert set(lag) == {f.name for f in fields(MarkovTestResult)}

    def test_heap_setting_optional(self, corpus, tmp_path, monkeypatch):
        # without glibc's mallopt the run goes on and says so in its manifest
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert run(self.args(corpus, tmp_path / "h")) == 0
        manifest = json.loads((tmp_path / "h" / "manifest.json").read_text())
        assert manifest["environment"]["heap_kept"] is False
        assert (tmp_path / "h" / "results.json").exists()

    def test_non_utf8_file_is_per_item_error(self, corpus, tmp_path):
        assert run(self.args(corpus, tmp_path / "ref")) == 0
        (corpus / "zz_latin1.csv").write_bytes(b"time_s,v0,a1\r\n0.0,1.0\xe9,\r\n")
        out = tmp_path / "latin1"
        assert run(self.args(corpus, out)) == 0
        results = json.loads((out / "results.json").read_text())["results"]
        errors = [r for r in results if "error" in r]
        assert len(results) == 5 and [r["trajectory_id"] for r in errors] == ["zz_latin1"]
        assert errors[0]["error"].startswith("SchemaMismatchError: zz_latin1.csv: not UTF-8")
        ref = json.loads((tmp_path / "ref" / "results.json").read_text())["results"]
        assert [r for r in results if "error" not in r] == ref

    def test_oversized_cell_is_per_item_error(self, corpus, tmp_path):
        # above the csv module's 131,072-character field limit
        assert run(self.args(corpus, tmp_path / "ref")) == 0
        path = corpus / "v1_0003.csv"
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\r\n" + b"9" * 200_000, 1))
        out = tmp_path / "huge"
        assert run(self.args(corpus, out)) == 0
        results = json.loads((out / "results.json").read_text())["results"]
        errors = [r for r in results if "error" in r]
        assert [r["trajectory_id"] for r in errors] == ["v1_0003"]
        assert errors[0]["error"].startswith("SchemaMismatchError: v1_0003.csv: field larger")
        ref = json.loads((tmp_path / "ref" / "results.json").read_text())["results"]
        assert [r for r in results if "error" not in r] == ref[:3]

    def test_only_non_utf8_files_is_data_error(self, tmp_path):
        corpus = tmp_path / "latin1"
        corpus.mkdir()
        (corpus / "a.csv").write_bytes(b"time_s,v0,a1\r\n0.0,1.0\xe9,\r\n")
        assert run(self.args(corpus, tmp_path / "out")) == 2

    def test_manifest_counts_failures_by_class(self, corpus, tmp_path):
        assert run(self.args(corpus, tmp_path / "ref")) == 0
        manifest = json.loads((tmp_path / "ref" / "manifest.json").read_text())
        assert manifest["failures_by_class"] == {}
        (corpus / "zz_latin1.csv").write_bytes(b"time_s,v0,a1\r\n0.0,1.0\xe9,\r\n")
        out = tmp_path / "bad"
        assert run(self.args(corpus, out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_failed"] == 1
        assert manifest["failures_by_class"] == {"SchemaMismatchError": 1}
        results = json.loads((out / "results.json").read_text())
        assert set(results) == {"config", "results"}   # the counts stay in the manifest
        ref = json.loads((tmp_path / "ref" / "results.json").read_text())["results"]
        assert [r for r in results["results"] if "error" not in r] == ref

    def test_duplicate_id_is_per_item_error(self, corpus, tmp_path):
        assert run(self.args(corpus, tmp_path / "ref")) == 0
        first = sorted(corpus.glob("*.csv"))[0]
        for suffix in (".csv", ".json"):   # the sidecar carries the id
            (corpus / f"zz_copy{suffix}").write_bytes(first.with_suffix(suffix).read_bytes())
        out = tmp_path / "dup"
        assert run(self.args(corpus, out)) == 0
        results = json.loads((out / "results.json").read_text())["results"]
        errors = [r for r in results if "error" in r]
        assert len(results) == 5 and len(errors) == 1
        assert errors[0]["error"].startswith("DuplicateTrajectoryIdError: ")
        assert "zz_copy.csv" in errors[0]["error"] and first.name in errors[0]["error"]
        ref = json.loads((tmp_path / "ref" / "results.json").read_text())["results"]
        assert [r for r in results if "error" not in r] == ref
        assert json.loads((out / "manifest.json").read_text())["n_failed"] == 1

    def test_unreadable_file_among_good(self, corpus, tmp_path):
        (corpus / "broken.csv").write_text("time_s,v0,a1\n0.0,1.0,0.5\n1.0,oops,0.5\n")
        out = tmp_path / "u"
        assert run(self.args(corpus, out)) == 0
        results = json.loads((out / "results.json").read_text())["results"]
        assert len(results) == 5
        errors = {r["trajectory_id"]: r["error"] for r in results if "error" in r}
        assert list(errors) == ["broken"]
        assert errors["broken"].startswith("UnparsableRowError: broken.csv: row 2")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_failed"] == 1

    def test_directory_named_csv_is_per_item_error(self, corpus, tmp_path):
        (corpus / "bogus.csv").mkdir()
        out = tmp_path / "d"
        assert run(self.args(corpus, out)) == 0
        results = json.loads((out / "results.json").read_text())["results"]
        errors = {r["trajectory_id"]: r["error"] for r in results if "error" in r}
        assert len(results) == 5 and list(errors) == ["bogus"]
        assert errors["bogus"].startswith("IsADirectoryError: ")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_failed"] == 1
        assert str(corpus / "bogus.csv") not in manifest["inputs"]

    def test_every_file_unreadable_is_data_error(self, tmp_path):
        junk = tmp_path / "junk"
        junk.mkdir()
        for name in ("a", "b"):
            (junk / f"{name}.csv").write_text("not,a,trajectory\n1,2,3\n")
        out = tmp_path / "j"
        assert run(self.args(junk, out)) == 2
        results = json.loads((out / "results.json").read_text())["results"]
        assert [r["trajectory_id"] for r in results] == ["a", "b"]
        assert all(r["error"].startswith("SchemaMismatchError") for r in results)

    @pytest.mark.parametrize("text, error", [
        ("time_s,v0,a1\n0.0,1.0,0.5\n0.0,2.0,0.5\n1.0,3.0,0.5\n", "NonPositiveDtError"),
        ("time_s,v0,a1\n0.0,1.0,0.5\n", "LengthMismatchError"),
    ], ids=["equal-time-stamps", "one-row"])
    def test_bad_time_column_without_sidecar_is_per_item_error(self, corpus, tmp_path,
                                                               text, error):
        # without a sidecar, dt is the difference of the first two time stamps
        (corpus / "bare.csv").write_text(text)
        out = tmp_path / "b"
        assert run(self.args(corpus, out)) == 0
        results = json.loads((out / "results.json").read_text())["results"]
        errors = {r["trajectory_id"]: r["error"] for r in results if "error" in r}
        assert len(results) == 5 and list(errors) == ["bare"]
        assert errors["bare"].startswith(f"{error}: ")
        alone = tmp_path / "alone"
        alone.mkdir()
        (alone / "bare.csv").write_text(text)
        assert run(self.args(alone, tmp_path / "a")) == 2

    def test_bad_sidecars_are_per_item_errors(self, tmp_path):
        spec = write_spec(tmp_path)
        corpus = tmp_path / "sidecars"
        assert run(["synth", spec, "--count", 1, "--seed", 3, "--out", corpus]) == 0
        good = corpus / "v1_0000.csv"
        bad = {"numeric_id": '{"id": 5}', "not_json": '{"id": "x",',
               "text_dt": '{"dt": "fast"}', "list_metadata": '{"metadata": [1, 2]}'}
        for stem, sidecar in bad.items():
            (corpus / f"{stem}.csv").write_bytes(good.read_bytes())
            (corpus / f"{stem}.json").write_text(sidecar)
        out = tmp_path / "s"
        assert run(["test", corpus, "--kmax", 1, "--freqs", 4, "--bootstrap", 19,
                    "--out", out]) == 0
        results = json.loads((out / "results.json").read_text())["results"]
        errors = {r["trajectory_id"]: r["error"] for r in results if "error" in r}
        assert sorted(errors) == sorted(bad)
        for stem, error in errors.items():
            assert error.startswith(f"SchemaMismatchError: {stem}.json: ")
        assert [r["trajectory_id"] for r in results if "order" in r] == ["v1_0000"]

    def test_mdn_estimator_selectable(self, corpus, tmp_path):
        files = sorted(corpus.glob("*.csv"))[:2]
        for jobs in (1, 2):
            assert run(["test", *files, "--seed", 1, "--kmax", 1, "--freqs", 4,
                        "--bootstrap", 19, "--estimator", "mdn", "--jobs", jobs,
                        "--out", tmp_path / f"mdn{jobs}"]) == 0
        payload = json.loads((tmp_path / "mdn1" / "results.json").read_text())
        assert payload["config"]["estimator"] == "mdn"
        assert [r["per_lag"][0]["p_value"] > 0 for r in payload["results"]] == [True, True]
        assert (tmp_path / "mdn1" / "results.json").read_bytes() == \
            (tmp_path / "mdn2" / "results.json").read_bytes()


def unstreamed_results(files, cfg):
    """``results.json`` as ``test`` wrote it when it held the whole corpus:
    every file read first, the read errors and then ``batch_test``'s items
    stably sorted by id, and one ``json.dump`` of them all."""
    trajs, items, seen = [], [], {}
    for path in files:
        item_id = path.stem
        try:
            traj = read_trajectory(path)
            item_id = traj.id
            if traj.id in seen:
                raise DuplicateTrajectoryIdError(
                    f"{path}: trajectory id {traj.id!r} already read from {seen[traj.id]}")
            seen[traj.id] = path
            trajs.append(traj)
        except (MarkovOrderError, OSError) as exc:
            items.append(BatchItem(trajectory_id=item_id, estimate=None,
                                   error=f"{type(exc).__name__}: {exc}"))
    items = sorted(items + batch_test(trajs, cfg), key=lambda it: it.trajectory_id)
    return json.dumps({"config": asdict(cfg), "results": [it.to_dict() for it in items]},
                      indent=2, sort_keys=True) + "\n"


BROKEN_CSV = "time_s,v0,a1\n0.0,1.0,0.5\n1.0,oops,0.5\n"


def tiny_corpus(tmp_path, count, name="v1", length=40) -> Path:
    spec = write_spec(tmp_path, {**VAR1_SPEC, "name": name}, name=f"{name}.json")
    out = tmp_path / "corpus"
    assert run(["synth", spec, "--count", count, "--length", length, "--seed", 3,
                "--out", out]) == 0
    return out


class TestTestStreams:
    """``test`` reads, tests and spools ``cli._CHUNK`` files at a time."""

    FLAGS = ["--seed", 42, "--kmax", 1, "--freqs", 4, "--bootstrap", 19]
    CFG = TestConfig(k_max=1, n_freqs=4, n_bootstrap=19, rng_seed=42)

    @pytest.fixture
    def mixed(self, tmp_path):
        """Over two chunks of files, among them an unreadable file whose
        sidecar names a tested id, a duplicate id chunks apart, an id whose
        first file fails to read and a trajectory too short to test."""
        corpus = tiny_corpus(tmp_path, 2 * cli._CHUNK + 8)
        assert run(["synth", write_spec(tmp_path, {**VAR1_SPEC, "name": "short"}),
                    "--count", 1, "--length", 20, "--out", corpus]) == 0
        (corpus / "broken.csv").write_text(BROKEN_CSV)
        (corpus / "broken.json").write_text('{"id": "v1_0005"}')
        first = corpus / "v1_0000.csv"
        for suffix in (".csv", ".json"):   # sorts last: a chunk after v1_0000's
            (corpus / f"zz_copy{suffix}").write_bytes(first.with_suffix(suffix).read_bytes())
        (corpus / "pair.csv").write_text(BROKEN_CSV)
        (corpus / "pair.json").write_text('{"id": "pair"}')
        (corpus / "pair_b.csv").write_bytes((corpus / "v1_0001.csv").read_bytes())
        (corpus / "pair_b.json").write_text('{"id": "pair", "dt": 1.0}')
        return corpus

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_keep_the_unstreamed_bytes(self, mixed, tmp_path, jobs):
        out = tmp_path / f"out{jobs}"
        assert run(["test", mixed, *self.FLAGS, "--jobs", jobs, "--out", out]) == 0
        files = sorted(mixed.glob("*.csv"))
        assert len(files) > 2 * cli._CHUNK
        text = (out / "results.json").read_text()
        assert text == unstreamed_results(files, self.CFG)
        results = json.loads(text)["results"]
        errors = [(r["trajectory_id"], r["error"].split(":")[0]) for r in results if "error" in r]
        assert errors == [("broken", "UnparsableRowError"), ("pair", "UnparsableRowError"),
                          ("short_0000", "TrajectoryTooShortError"),
                          ("v1_0000", "DuplicateTrajectoryIdError")]
        # within an id the read's error comes first, whatever the file order
        assert [("error" in r) for r in results if r["trajectory_id"] in ("pair", "v1_0000")] \
            == [True, False, True, False]
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["n_trajectories"], manifest["n_failed"]) == (len(results), 4)
        assert manifest["failures_by_class"] == {
            "DuplicateTrajectoryIdError": 1, "TrajectoryTooShortError": 1,
            "UnparsableRowError": 2}
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "results.json"]

    def test_empty_directory_writes_an_empty_list(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "out"
        assert run(["test", empty, *self.FLAGS, "--out", out]) == 0
        text = (out / "results.json").read_text()
        assert text == unstreamed_results([], self.CFG)
        assert '"results": []' in text
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "results.json"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_at_most_one_chunk_of_trajectories_is_alive(self, tmp_path, monkeypatch, jobs):
        corpus = tiny_corpus(tmp_path, 3 * cli._CHUNK)
        live = most = 0

        def gone():
            nonlocal live
            live -= 1

        def counted(path):
            nonlocal live, most
            traj = read_trajectory(path)
            live += 1
            most = max(most, live)
            weakref.finalize(traj, gone)
            return traj

        monkeypatch.setattr(cli, "read_trajectory", counted)
        assert run(["test", corpus, *self.FLAGS, "--jobs", jobs, "--out", tmp_path / "o"]) == 0
        assert 0 < most <= cli._CHUNK + jobs


def fake_results(tmp_path, name, orders):
    payload = {"results": [
        {"trajectory_id": f"{name}_{i}", "alpha": 0.05, "order": int(o),
         "capped": False, "per_lag": []}
        for i, o in enumerate(orders)
    ]}
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(payload))
    return p


class TestCompare:
    """The two-cohort t and F tests of ``report``, read from summary.json."""

    def test_cohort_against_itself(self, tmp_path, capsys):
        p = fake_results(tmp_path, "same", [1, 2, 2, 3, 4])
        assert run(["report", f"x={p}", f"y={p}", "--out", tmp_path / "cmp"]) == 0
        payload = json.loads((tmp_path / "cmp" / "summary.json").read_text())
        assert payload["t_test"]["t"] == pytest.approx(0.0, abs=1e-12)
        assert payload["f_test"]["f"] == pytest.approx(1.0, abs=1e-12)

    def test_variance_ratio_cohorts_f_significant(self, tmp_path):
        rng = np.random.default_rng(0)
        tight = np.clip(np.round(rng.normal(2, 0.6, size=50)), 1, 10).astype(int)
        wide = np.clip(np.round(rng.normal(2, 0.6 * np.sqrt(10), size=50)), 1, 10).astype(int)
        pa = fake_results(tmp_path, "wide", wide.tolist())
        pb = fake_results(tmp_path, "tight", tight.tolist())
        assert run(["report", f"a={pa}", f"b={pb}", "--out", tmp_path / "cmp2"]) == 0
        payload = json.loads((tmp_path / "cmp2" / "summary.json").read_text())
        assert payload["f_test"]["significant"] is True
        assert payload["f_test"]["f"] > 3.0

    def test_values_equal_direct_calls(self, tmp_path):
        orders_a, orders_b = [1, 1, 2, 3, 2, 1], [1, 2, 4, 5, 2, 3, 7]
        pa = fake_results(tmp_path, "av", orders_a)
        pb = fake_results(tmp_path, "hv", orders_b)
        # the first label=path given is the first cohort of both tests
        assert run(["report", f"hv={pb}", f"av={pa}", "--out", tmp_path / "ba"]) == 0
        assert run(["report", f"av={pa}", f"hv={pb}", "--out", tmp_path / "ab"]) == 0
        for out, (a, b) in (("ab", (orders_a, orders_b)), ("ba", (orders_b, orders_a))):
            payload = json.loads((tmp_path / out / "summary.json").read_text())
            assert payload["t_test"] == asdict(pooled_t_test(a, b))
            assert payload["f_test"] == asdict(f_test(a, b))

    def test_missing_cohort_file(self, tmp_path, capsys):
        p = fake_results(tmp_path, "ok", [1, 2, 3])
        rc = run(["report", f"a={p}", f"b={tmp_path / 'absent.json'}", "--out", tmp_path / "c"])
        assert rc == 2
        assert "absent.json" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_degenerate_cohort_keeps_t_test(self, tmp_path):
        pa = fake_results(tmp_path, "spread", [1, 2, 3, 4, 5])
        pb = fake_results(tmp_path, "flat", [1, 1, 1, 1])
        assert run(["report", f"a={pa}", f"b={pb}", "--out", tmp_path / "cmp3"]) == 0
        payload = json.loads((tmp_path / "cmp3" / "summary.json").read_text())
        assert "t" in payload["t_test"]
        assert "error" in payload["f_test"]

    def test_list_payload_accepted(self, tmp_path):
        pa = fake_results(tmp_path, "a", [1, 2, 2, 3])
        pb = tmp_path / "bare.json"
        pb.write_text(json.dumps(json.loads(pa.read_text())["results"]))
        assert run(["report", f"a={pa}", f"b={pb}", "--out", tmp_path / "cmp"]) == 0
        payload = json.loads((tmp_path / "cmp" / "summary.json").read_text())
        assert payload["cohorts"]["a"] == payload["cohorts"]["b"]

    @pytest.mark.parametrize("text", ["[1, 2]", "5", '{"results": 5}', '{"results": ["x"]}'])
    def test_malformed_payload_is_data_error_naming_file(self, tmp_path, capsys, text):
        good = fake_results(tmp_path, "ok", [1, 2, 3])
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(["report", f"a={good}", f"b={bad}", "--out", tmp_path / "rep"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: ") and "Traceback" not in err

    @pytest.mark.parametrize("order", ["x", None, 0, 1.5, True, [2]],
                             ids=["text", "null", "zero", "fraction", "bool", "list"])
    def test_order_not_whole_is_data_error_naming_file(self, tmp_path, capsys, order):
        good = fake_results(tmp_path, "ok", [1, 2, 3])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"order": order}, {"order": 1}]))
        assert run(["report", f"a={good}", f"b={bad}", "--out", tmp_path / "rep"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: order ") and "Traceback" not in err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("order, k_max", [(10**20, 10), (1e20, 10), (4, 3), (2, "x")],
                             ids=["huge-int", "huge-float", "above", "bad-kmax"])
    def test_order_above_its_kmax_is_data_error_naming_file(self, tmp_path, capsys,
                                                            order, k_max):
        good = fake_results(tmp_path, "ok", [1, 2, 3])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"order": 1, "k_max": 3}, {"order": order, "k_max": k_max}]))
        assert run(["report", f"a={good}", f"b={bad}", "--out", tmp_path / "rep"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: order {order!r} is not <= its k_max ")
        assert "Traceback" not in err and not (tmp_path / "rep").exists()

    def test_whole_float_order_reads_as_int(self, tmp_path):
        floats = tmp_path / "floats.json"
        floats.write_text(json.dumps([{"order": 1.0}, {"order": 2.0, "k_max": 2.0},
                                      {"order": 2}]))
        ints = fake_results(tmp_path, "ints", [1, 2, 2])
        for name, p in (("f", floats), ("i", ints)):
            assert run(["report", f"a={p}", "--out", tmp_path / name]) == 0
        for name in ("summary.json", "histogram_a.csv"):
            assert (tmp_path / "f" / name).read_text() == (tmp_path / "i" / name).read_text()


class TestCalibrate:
    def test_single_replication_degenerate_rate(self, tmp_path, capsys):
        assert run(["calibrate", "--replications", 1, "--length", 60,
                    "--dim", 1, "--kmax", 1, "--freqs", 4, "--bootstrap", 19,
                    "--seed", 1, "--out", tmp_path / "cal"]) == 0
        payload = json.loads((tmp_path / "cal" / "calibration.json").read_text())
        assert payload["per_lag"][0]["rejection_rate"] in (0.0, 1.0)
        assert "order recovery rate" in capsys.readouterr().out

    def test_small_null_study_runs(self, tmp_path):
        assert run(["calibrate", "--replications", 10, "--length", 80,
                    "--dim", 1, "--kmax", 1, "--freqs", 8, "--bootstrap", 49,
                    "--seed", 2, "--out", tmp_path / "cal2"]) == 0
        payload = json.loads((tmp_path / "cal2" / "calibration.json").read_text())
        assert payload["per_lag"][0]["n"] == 10
        assert 0.0 <= payload["per_lag"][0]["rejection_rate"] <= 0.3
        manifest = json.loads((tmp_path / "cal2" / "manifest.json").read_text())
        assert manifest["environment"]["jobs"] == 1

    @pytest.mark.parametrize("alpha, flags, band", [
        (0.10, ["--kmax", 1], [0.02, 0.24]),
        (0.05, ["--kmax", 1], [0.01, 0.12]),
        (0.10, ["--kmax", 2], [0.02, 0.24]),
    ])
    def test_size_band_follows_alpha(self, tmp_path, alpha, flags, band):
        """Every lag is judged against [alpha / 5, min(2.4 alpha, 1)]."""
        out = tmp_path / "cal"
        assert run(["calibrate", "--replications", 1, "--length", 60, "--dim", 1,
                    "--freqs", 4, "--bootstrap", 19, "--alpha", alpha,
                    *flags, "--out", out]) == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert payload["size_band"] == band
        assert len(payload["per_lag"]) == flags[1]
        for row in payload["per_lag"]:
            assert row["within_band"] == (band[0] <= row["rejection_rate"] <= band[1])

    def test_every_lag_counts_every_replication(self, tmp_path):
        # test stops at the first accepted lag; calibrate tests every lag, so
        # each lag's rate is over all replications
        out = tmp_path / "cal"
        assert run(["calibrate", "--replications", 10, "--length", 80, "--dim", 1,
                    "--kmax", 3, "--freqs", 4, "--bootstrap", 19, "--seed", 3,
                    "--out", out]) == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert [(row["k"], row["n"]) for row in payload["per_lag"]] == \
               [(1, 10), (2, 10), (3, 10)]

    def test_jobs_do_not_change_calibration(self, tmp_path):
        payloads = []
        for jobs in (1, 2):
            out = tmp_path / f"j{jobs}"
            assert run(["calibrate", "--replications", 4, "--length", 60, "--kmax", 1,
                        "--bootstrap", 19, "--jobs", jobs, "--out", out]) == 0
            payloads.append((out / "calibration.json").read_bytes())
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["environment"]["jobs"] == jobs
        assert payloads[0] == payloads[1]

    def test_true_order_given_as_string(self, tmp_path):
        got = []
        for name, true_order in (("int", 1), ("str", "1")):
            spec = write_spec(tmp_path, {**VAR1_SPEC, "true_order": true_order},
                              name=f"{name}.json")
            assert run(["calibrate", "--spec", spec, "--replications", 2, "--length", 60,
                        "--kmax", 1, "--freqs", 4, "--bootstrap", 19,
                        "--out", tmp_path / name]) == 0
            payload = json.loads((tmp_path / name / "calibration.json").read_text())
            got.append((payload["true_order"], payload["order_recovery_rate"]))
        assert got == [(1, 1.0), (1, 1.0)]   # at kmax 1 every order is 1

    def test_default_null_equals_its_spec(self, tmp_path):
        spec = write_spec(tmp_path, {"kind": "var", "coeffs": [[[0.0, 0.0], [0.0, 0.0]]],
                                     "noise_cov": [[1.0, 0.0], [0.0, 1.0]], "burn_in": 0,
                                     "true_order": 1}, name="iid.json")
        flags = ["--replications", 20, "--length", 80, "--kmax", 2, "--freqs", 4,
                 "--bootstrap", 19, "--dim", 2]
        assert run(["calibrate", *flags, "--out", tmp_path / "default"]) == 0
        assert run(["calibrate", "--spec", spec, *flags, "--out", tmp_path / "spec"]) == 0
        assert (tmp_path / "default" / "calibration.json").read_bytes() == \
               (tmp_path / "spec" / "calibration.json").read_bytes()

    def test_non_integer_true_order_is_data_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {**VAR1_SPEC, "true_order": "one"})
        assert run(["calibrate", "--spec", spec, "--replications", 1, "--length", 60,
                    "--kmax", 1, "--out", tmp_path / "cal"]) == 2
        assert "bad value for 'true_order'" in capsys.readouterr().err


    def test_length_is_the_flag_else_config_else_spec_else_300(self, tmp_path):
        spec = write_spec(tmp_path, {**VAR1_SPEC, "length": 80})
        no_length = write_spec(tmp_path, {k: v for k, v in VAR1_SPEC.items() if k != "length"},
                               name="no_length.json")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"length": 70}))
        fast = ["--replications", 1, "--kmax", 1, "--freqs", 4, "--bootstrap", 19]
        for argv, length in ((["--spec", spec], 80), (["--spec", spec, "--config", cfg], 70),
                             (["--spec", spec, "--config", cfg, "--length", 60], 60),
                             (["--spec", no_length], 300)):
            out = tmp_path / f"cal{length}"
            assert run(["calibrate", *argv, *fast, "--out", out]) == 0
            assert json.loads((out / "calibration.json").read_text())["length"] == length

    def test_length_below_two_is_data_error_naming_the_flag(self, tmp_path, capsys):
        out = tmp_path / "cal"
        assert run(["calibrate", "--replications", 1, "--length", 1, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: --length: bad value 1: must be >= 2"), err
        assert not out.exists()

    def test_size_band_is_not_a_setting(self, capsys):
        """The band is the acceptance criteria's, so calibrate offers no
        flag for it."""
        with pytest.raises(SystemExit):
            run(["calibrate", "--help"])
        assert "--band" not in capsys.readouterr().out

    @pytest.mark.parametrize("flags, config", [
        (["--band-lo", "nan", "--band-hi", 0.5], None),
        (["--band-lo", 0.9, "--band-hi", 0.1], None),
        (["--band-lo", -0.1], None),
        (["--band-hi", "inf"], None),
        ([], {"band-lo": float("nan")}),
        ([], {"band_lo": 0.5, "band-hi": 0.2}),
        (["--band-hi", 0.3], {"band-lo": 0.4}),
    ], ids=["nan", "reversed", "negative", "inf", "config-nan", "config-reversed",
            "flag-below-config"])
    def test_band_outside_zero_one_or_reversed_is_data_error_naming_the_flag(
            self, tmp_path, capsys, flags, config):
        """No band value is taken, in or out of [0, 1]: a ``--band-*`` flag
        is a usage error naming it, and a band key of a config file a data
        error naming the key and the file; each is raised before --out
        exists."""
        cfg = tmp_path / "run.json"
        if config is not None:
            cfg.write_text(json.dumps(config))
            flags = [*flags, "--config", cfg]
        out = tmp_path / "cal"
        code = run(["calibrate", "--replications", 1, "--length", 60, *flags, "--out", out])
        err = capsys.readouterr().err
        if flags and flags[0] != "--config":
            assert code == 1
            assert f"unrecognized arguments: {flags[0]}" in err, err
        else:
            assert code == 2
            assert err.startswith(f"data error: config file {cfg}: "), err
            assert all(repr(key) in err for key in config), err
            assert "is not a flag of calibrate" in err, err
        assert not out.exists()

    def test_default_band_is_at_most_one(self, tmp_path):
        out = tmp_path / "cal"
        assert run(["calibrate", "--replications", 1, "--length", 60, "--dim", 1, "--kmax", 1,
                    "--freqs", 4, "--bootstrap", 19, "--alpha", 0.5, "--out", out]) == 0
        assert json.loads((out / "calibration.json").read_text())["size_band"] == [0.1, 1.0]

    def test_failed_replication_is_data_error_naming_it(self, tmp_path, capsys):
        out = tmp_path / "cal"
        assert run(["calibrate", "--replications", 2, "--length", 30, "--kmax", 1,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: replication calib_00000: TrajectoryTooShortError")
        assert not (out / "calibration.json").exists()


def test_pool_has_no_more_workers_than_items(tmp_path, monkeypatch):
    """``test`` and ``calibrate`` each open one pool, of at most one worker
    per file or replication and none at --jobs 1, and the bytes they write do
    not depend on it."""
    import concurrent.futures
    pool, sizes = concurrent.futures.ProcessPoolExecutor, []

    def counted(max_workers=None, **kwargs):
        sizes.append(max_workers)
        return pool(max_workers=max_workers, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    corpus = tiny_corpus(tmp_path, 2)
    fast = ["--kmax", 1, "--freqs", 4, "--bootstrap", 19]
    for argv, output in ((["test", corpus], "results.json"),
                         (["calibrate", "--replications", 2, "--length", 40], "calibration.json")):
        written = []
        for jobs, pools in ((1, []), (6, [2])):
            sizes.clear()
            out = tmp_path / f"{argv[0]}{jobs}"
            assert run([*argv, *fast, "--jobs", jobs, "--out", out]) == 0
            assert sizes == pools
            written.append((out / output).read_bytes())
        assert written[0] == written[1]


class TestIngestCommand:
    def write_raw(self, path, n=250):
        lines = ["time_s,lead_x,lead_y,follow_x,follow_y"]
        for i in range(n):
            lines.append(f"{i},{50 + 5.0 * i},0.0,{3.5 * i},0.0")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_single_file_two_segments(self, tmp_path):
        raw = self.write_raw(tmp_path / "run.csv")
        out = tmp_path / "ing"
        assert run(["ingest", raw, "--out", out, "--segment-len", 120,
                    "--cohort", "av"]) == 0
        written = sorted(p.name for p in out.glob("*.csv"))
        assert len(written) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["cohort_counts"] == {"av": 2}

    def test_repeated_segment_id_fails_the_later_file_alone(self, tmp_path, caplog):
        # a/x.csv and b/x.csv both give segments x_seg000 and x_seg001
        first, second = tmp_path / "a" / "x.csv", tmp_path / "b" / "x.csv"
        for path, n in ((first, 250), (second, 260)):
            path.parent.mkdir()
            self.write_raw(path, n)
        assert run(["ingest", first, "--out", tmp_path / "alone"]) == 0
        out = tmp_path / "both"
        assert run(["ingest", first, second, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_inputs"] == [str(second)]
        assert manifest["trajectories_written"] == 2
        for name in ("x_seg000.csv", "x_seg001.csv", "x_seg000.json", "x_seg001.json"):
            assert (out / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
        assert f"trajectory id 'x_seg000' already written from {first}" in caplog.text

    def test_segment_over_an_input_fails_its_file_alone(self, tmp_path, caplog):
        # --out is the input folder: min mode writes trip.csv's one segment as
        # trip.csv, and fixed mode its first as trip_seg000.csv, another input
        trip = self.write_raw(tmp_path / "trip.csv")
        raw = trip.read_bytes()
        assert run(["ingest", tmp_path, "--segment-mode", "min", "--out", tmp_path]) == 2
        assert trip.read_bytes() == raw
        assert [p.name for p in tmp_path.glob("*.csv")] == ["trip.csv"]
        assert f"{trip}: a segment would overwrite input {trip}" in caplog.text
        other = self.write_raw(tmp_path / "trip_seg000.csv", n=130)
        raws = [raw, other.read_bytes()]
        assert run(["ingest", tmp_path, "--segment-len", 120, "--out", tmp_path]) == 0
        assert [trip.read_bytes(), other.read_bytes()] == raws
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
            "trip.csv", "trip_seg000.csv", "trip_seg000_seg000.csv"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failed_inputs"] == [str(trip)]

    def test_empty_directory_ok(self, tmp_path):
        src = tmp_path / "emptydir"
        src.mkdir()
        out = tmp_path / "ing2"
        assert run(["ingest", src, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["trajectories_written"] == 0

    def test_malformed_among_valid(self, tmp_path):
        good = self.write_raw(tmp_path / "good.csv")
        bad = tmp_path / "bad.csv"
        bad.write_text("nonsense,columns\n1,2\n")
        out = tmp_path / "ing3"
        assert run(["ingest", good, bad, "--out", out, "--segment-len", 120]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_inputs"] == [str(bad)]
        assert manifest["trajectories_written"] == 2

    def test_directory_named_csv_among_valid(self, tmp_path):
        src = tmp_path / "raw"
        src.mkdir()
        self.write_raw(src / "good.csv")
        (src / "bogus.csv").mkdir()
        out = tmp_path / "ing5"
        assert run(["ingest", src, "--out", out, "--segment-len", 120]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_inputs"] == [str(src / "bogus.csv")]
        assert manifest["trajectories_written"] == 2

    def test_all_failed_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nonsense,columns\n1,2\n")
        assert run(["ingest", bad, "--out", tmp_path / "ing4"]) == 2

    def write_latin1(self, path):
        self.write_raw(path)
        path.write_bytes(path.read_bytes().replace(b"0.0\n", b"0.0\xe9\n", 1))
        return path

    def test_non_utf8_among_valid(self, tmp_path):
        good = self.write_raw(tmp_path / "good.csv")
        bad = self.write_latin1(tmp_path / "latin1.csv")
        out = tmp_path / "ing6"
        assert run(["ingest", good, bad, "--out", out, "--segment-len", 120]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_inputs"] == [str(bad)]
        assert manifest["trajectories_written"] == 2
        assert sorted(p.name for p in out.glob("*.csv")) == ["good_seg000.csv",
                                                               "good_seg001.csv"]

    def test_oversized_cell_fails_its_file_alone(self, tmp_path, caplog):
        # a quoted cell sends the file to the csv module, which refuses one
        # above 131,072 characters
        good = self.write_raw(tmp_path / "good.csv")
        bad = tmp_path / "huge.csv"
        lines = good.read_text().splitlines()
        lines[5] = lines[5].replace(",0.0,", ',"' + "0" * 200_000 + '",', 1)
        bad.write_text("\n".join(lines) + "\n")
        assert run(["ingest", good, "--segment-len", 120, "--out", tmp_path / "alone"]) == 0
        out = tmp_path / "both"
        assert run(["ingest", good, bad, "--segment-len", 120, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_inputs"] == [str(bad)]
        assert manifest["trajectories_written"] == 2
        for name in ("good_seg000.csv", "good_seg001.csv"):
            assert (out / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
        assert "huge.csv: field larger than field limit" in caplog.text

    def test_only_non_utf8_is_data_error(self, tmp_path):
        bad = self.write_latin1(tmp_path / "latin1.csv")
        assert run(["ingest", bad, "--out", tmp_path / "ing7"]) == 2

    @pytest.mark.parametrize("dt", ["1e-300", "1e-12"])
    def test_grid_above_cap_fails_its_file(self, tmp_path, caplog, dt):
        raw = self.write_raw(tmp_path / "run.csv", n=3)
        out = tmp_path / "ing8"
        assert run(["ingest", raw, "--resample-dt", dt, "--out", out]) == 2
        assert f"dt = {dt} makes a grid of 2e+" in caplog.text
        assert json.loads((out / "manifest.json").read_text())["failed_inputs"] == [str(raw)]

    @pytest.mark.parametrize("flag", ["resample-dt", "segment-len", "min-len",
                                      "trim-head", "trim-tail"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_duration_is_data_error_naming_flag(self, tmp_path, capsys,
                                                          flag, value):
        raw = self.write_raw(tmp_path / "run.csv")
        assert run(["ingest", raw, f"--{flag}", value, "--out", tmp_path / "ing"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: --{flag}: ") and "Traceback" not in err
        assert f"must be finite, got {value}" in err

    def test_negative_trim_is_data_error_naming_its_flag_alone(self, tmp_path, capsys):
        raw = self.write_raw(tmp_path / "run.csv")
        cfg, out = tmp_path / "run.json", tmp_path / "ing"
        cfg.write_text(json.dumps({"trim-head": 1, "trim-tail": -1}))
        for argv, flag in ((["--trim-head", -1, "--trim-tail", 1], "trim-head"),
                           (["--config", cfg], "trim-tail")):
            assert run(["ingest", raw, *argv, "--out", out]) == 2
            field = flag.replace("-", "_")
            assert capsys.readouterr().err == \
                f"data error: --{flag}: {field} must be >= 0, got -1.0\n"
        assert not out.exists()


class TestReportCommand:
    def test_writes_files_and_table(self, tmp_path, capsys):
        pa = fake_results(tmp_path, "av", [1, 1, 1, 2, 2])
        pb = fake_results(tmp_path, "hv", [1, 2, 3, 4, 8])
        out = tmp_path / "rep"
        assert run(["report", f"av={pa}", f"hv={pb}", "--out", out]) == 0
        names = {p.name for p in out.glob("*")}
        assert {"summary.md", "summary.csv", "summary.json",
                "histogram_av.csv", "box_hv.json"} <= names
        assert "| av |" in capsys.readouterr().out

    def test_zero_variance_cohorts_record_failed_tests(self, tmp_path, capsys):
        p = fake_results(tmp_path, "flat", [1, 1, 1, 1])
        out = tmp_path / "rep0"
        assert run(["report", f"a={p}", f"b={p}", "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["t_test"] == {"error": "pooled variance is zero"}
        assert summary["f_test"] == {"error": "denominator cohort variance is zero"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert "t_test" not in manifest and "f_test" not in manifest
        assert "| a |" in capsys.readouterr().out

    def test_repeated_label_is_data_error(self, tmp_path, capsys):
        pa = fake_results(tmp_path, "av", [1, 1, 2])
        pb = fake_results(tmp_path, "hv", [2, 3, 4])
        out = tmp_path / "rep"
        assert run(["report", f"x={pa}", f"x={pb}", "--out", out]) == 2
        assert "'x'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label", ["", "av,x", "a|b", "a/b"])
    def test_unsafe_label_is_data_error_naming_it(self, tmp_path, capsys, label):
        # a label names the histogram and box files and a cell of each table
        pa = fake_results(tmp_path, "av", [1, 1, 2])
        pb = fake_results(tmp_path, "hv", [2, 3, 4])
        out = tmp_path / "rep"
        assert run(["report", f"ok={pa}", f"{label}={pb}", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cohort label {label!r} ") and "Traceback" not in err
        assert not out.exists()

    def test_single_cohort_summary_has_no_tests(self, tmp_path):
        p = fake_results(tmp_path, "av", [1, 2, 3])
        assert run(["report", f"av={p}", "--out", tmp_path / "rep"]) == 0
        assert set(json.loads((tmp_path / "rep" / "summary.json").read_text())) == {"cohorts"}

    @pytest.mark.parametrize("top, bins", [(3, 10), (12, 12)])
    def test_default_bins_reach_the_largest_order(self, tmp_path, top, bins):
        p = fake_results(tmp_path, "av", [1, 2, top])
        out = tmp_path / "rep"
        assert run(["report", f"av={p}", "--out", out]) == 0
        rows = (out / "histogram_av.csv").read_text().splitlines()
        assert len(rows) == 1 + bins and rows[top].startswith(f"{top},1,")
        assert json.loads((out / "manifest.json").read_text())["config"] == {"kmax": bins}

    def test_kmax_below_an_order_writes_nothing(self, tmp_path, capsys):
        p = fake_results(tmp_path, "av", [1, 2, 12])
        out = tmp_path / "rep"
        assert run(["report", f"av={p}", "--kmax", 10, "--out", out]) == 2
        assert "order 12 outside 1..10" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", [{"order": 10**20, "k_max": 10**20},
                                       {"order": 10**20}, {"order": 10_001}],
                             ids=["huge-with-kmax", "huge-alone", "one-above"])
    def test_order_above_the_bin_bound_is_data_error_naming_file(self, tmp_path, capsys,
                                                                 entry):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"order": 1}, entry]))
        out = tmp_path / "rep"
        assert run(["report", f"a={bad}", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: order {entry['order']!r} is above 10000")
        assert "Traceback" not in err and not out.exists()

    def test_kmax_above_the_bin_bound_is_data_error_naming_flag(self, tmp_path, capsys):
        p = fake_results(tmp_path, "av", [1, 2, 10_000])
        for kmax in (10**20, 10_001):
            assert run(["report", f"av={p}", "--kmax", kmax, "--out", tmp_path / "rep"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error: --kmax: bad value ") and "Traceback" not in err
            assert not (tmp_path / "rep").exists()
        assert run(["report", f"av={p}", "--kmax", 10_000, "--out", tmp_path / "rep"]) == 0
        assert len((tmp_path / "rep" / "histogram_av.csv").read_text().splitlines()) == 10_001

    def test_label_syntax_required(self, tmp_path):
        pa = fake_results(tmp_path, "av", [1, 2])
        assert run(["report", str(pa), "--out", tmp_path / "r"]) == 2


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_compare_is_a_usage_error(self, tmp_path, capsys):
        # the t and F tests come from report alone
        p = fake_results(tmp_path, "ok", [1, 2, 3])
        assert run(["compare", p, p, "--out", tmp_path / "cmp"]) == 1
        assert "invalid choice: 'compare'" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_missing_input_is_data_error(self, tmp_path):
        assert run(["test", tmp_path / "missing_dir_x", "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("argv, config, flag", [
        (["ingest", "RAW"], {"resample-dt": True}, "--resample-dt"),
        (["synth", "SPEC", "--count", -2], None, "--count"),
        (["synth", "SPEC", "--length", 0], None, "--length"),
        (["synth", "SHORT"], None, "need T >= 2"),
    ])
    def test_bad_setting_leaves_no_out_directory(self, tmp_path, capsys, argv, config, flag):
        raw = tmp_path / "tiny.csv"
        raw.write_text("time_s,lead_x,lead_y,follow_x,follow_y\n"
                       "0,50,0,0,0\n1,55,0,3.5,0\n2,60,0,7,0\n")
        files = {"RAW": raw, "SPEC": write_spec(tmp_path),
                 "SHORT": write_spec(tmp_path, {**VAR1_SPEC, "length": 1}, name="short.json")}
        argv = [files.get(a, a) for a in argv]
        if config is not None:
            (tmp_path / "bad.json").write_text(json.dumps(config))
            argv += ["--config", tmp_path / "bad.json"]
        assert run([*argv, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and flag in err
        assert not (tmp_path / "out").exists()

    def test_program_bug_is_internal_error(self, corpus, tmp_path, monkeypatch, capsys):
        from markovorder import markov

        def broken(traj, cfg, rng=None, *, every_lag=False):
            raise IndexError("slicing slip")
        monkeypatch.setattr(markov, "estimate_order", broken)
        assert run(["test", corpus, "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert "internal error: IndexError" in err
        assert "Traceback" in err and "slicing slip" in err

    @pytest.mark.parametrize("site", ["config", "synth", "calibrate", "report"])
    def test_file_not_json_is_data_error_naming_it(self, tmp_path, capsys, site):
        bad = tmp_path / "broken.json"
        bad.write_text("{")
        good = fake_results(tmp_path, "ok", [1, 2, 3])
        argv = {
            "config": ["report", f"a={good}", "--config", bad, "--out", tmp_path / "r"],
            "synth": ["synth", bad, "--out", tmp_path / "s"],
            "calibrate": ["calibrate", "--spec", bad, "--replications", 1,
                          "--out", tmp_path / "c"],
            "report": ["report", f"a={good}", f"b={bad}", "--out", tmp_path / "r"],
        }[site]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"data error: {bad} is not JSON: ")

    def test_directory_as_config_is_data_error(self, tmp_path, capsys):
        assert run(["synth", write_spec(tmp_path), "--config", tmp_path,
                    "--out", tmp_path / "s"]) == 2
        assert capsys.readouterr().err.startswith("data error: ")

    @pytest.mark.parametrize("argv, config, flag", [
        (["test", "CORPUS", "--kmax", 0], None, "--kmax"),
        (["test", "CORPUS", "--alpha", 1.5], None, "--alpha"),
        (["test", "CORPUS"], {"alpha": "abc"}, "--alpha"),
        (["test", "CORPUS"], {"jobs": "two"}, "--jobs"),
        (["calibrate", "--bootstrap", 0], None, "--bootstrap"),
        (["ingest", "CORPUS", "--resample-dt", 0], None, "resample_dt"),
        (["test", "CORPUS", "--jobs", -3], None, "--jobs"),
        (["calibrate", "--dim", 0], None, "--dim"),
        (["calibrate", "--dim", -1], None, "--dim"),
        (["calibrate", "--jobs", 0], None, "--jobs"),
    ])
    def test_bad_setting_is_data_error(self, corpus, tmp_path, capsys, argv, config, flag):
        argv = [corpus if a == "CORPUS" else a for a in argv]
        if config is not None:
            (tmp_path / "bad.json").write_text(json.dumps(config))
            argv += ["--config", tmp_path / "bad.json"]
        assert run([*argv, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and flag in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["test", "CORPUS"], ["calibrate", "--replications", 1]])
    def test_out_not_a_string_is_data_error_before_any_work(self, corpus, tmp_path,
                                                            capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("batch_test ran before --out was checked")
        monkeypatch.setattr(cli, "batch_test", no_work)
        (tmp_path / "bad.json").write_text(json.dumps({"out": 5}))
        argv = [corpus if a == "CORPUS" else a for a in argv]
        assert run([*argv, "--config", tmp_path / "bad.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: --out: bad value 5") and "Traceback" not in err

    # the separations and the least T - k are fixed where the test's size is
    # calibrated, so test and calibrate have no flag for them
    @pytest.mark.parametrize("argv", [["test", "CORPUS"], ["calibrate"]])
    @pytest.mark.parametrize("flag", ["--shifts", "--min-effective"])
    def test_separation_flags_are_usage_errors(self, corpus, tmp_path, capsys, argv, flag):
        argv = [corpus if a == "CORPUS" else a for a in argv]
        assert run([*argv, flag, 3, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err.startswith("usage error: unrecognized arguments: ")
        assert not (tmp_path / "o").exists()
        with pytest.raises(SystemExit):
            main([argv[0], "--help"])
        assert flag not in capsys.readouterr().out

    def test_bad_count_names_only_its_flag(self, corpus, tmp_path, capsys):
        assert run(["test", corpus, "--freqs", 0, "--bootstrap", 19,
                    "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == "data error: --freqs: n_freqs must be >= 1, got 0\n"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestConfigFile:
    def test_flags_win_over_config(self, corpus, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kmax": 1, "bootstrap": 19, "freqs": 4, "seed": 5}))
        out1 = tmp_path / "cfg1"
        assert run(["test", corpus, "--config", cfg, "--out", out1]) == 0
        payload = json.loads((out1 / "results.json").read_text())
        assert payload["config"]["k_max"] == 1
        assert payload["config"]["rng_seed"] == 5
        out2 = tmp_path / "cfg2"
        assert run(["test", corpus, "--config", cfg, "--kmax", 2, "--out", out2]) == 0
        payload = json.loads((out2 / "results.json").read_text())
        assert payload["config"]["k_max"] == 2

    def test_config_block_is_dataclass_of_given_keys(self, corpus, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kmax": 1, "bootstrap": 19, "freqs": 4,
                                   "alpha": 0.1, "seed": 5}))
        out = tmp_path / "cfg"
        assert run(["test", corpus, "--config", cfg, "--out", out]) == 0
        payload = json.loads((out / "results.json").read_text())
        assert payload["config"] == asdict(TestConfig(
            k_max=1, n_bootstrap=19, n_freqs=4, alpha=0.1, rng_seed=5))

    @pytest.mark.parametrize("key", ["kmax", "seed", "jobs"])
    def test_fractional_whole_number_is_data_error(self, corpus, tmp_path, capsys, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bootstrap": 19, "freqs": 4, key: 1.9}))
        assert run(["test", corpus, "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: --{key}: bad value 1.9") and "Traceback" not in err
        cfg.write_text(json.dumps({"bootstrap": 19, "freqs": 4, key: 2.0}))
        assert run(["test", corpus, "--config", cfg, "--out", tmp_path / "ok"]) == 0
        payload = json.loads((tmp_path / "ok" / "results.json").read_text())
        manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
        assert {"kmax": payload["config"]["k_max"], "seed": payload["config"]["rng_seed"],
                "jobs": manifest["environment"]["jobs"]}[key] == 2

    @pytest.mark.parametrize("flags, cls", [(cli._TEST_FLAGS, TestConfig),
                                            (cli._INGEST_FLAGS, IngestConfig)])
    def test_flag_table_names_each_field_once(self, flags, cls):
        assert sorted(flags.values()) == sorted(f.name for f in fields(cls))

    @pytest.mark.parametrize("argv, config, key", [
        (["calibrate", "--length", 60, "--dim", 1, "--kmax", 1, "--freqs", 4, "--bootstrap", 19],
         {"replications": 2, "kmaxx": 3}, "kmaxx"),
        (["test", "CORPUS"], {"k_max": 1}, "k_max"),
        (["synth", "SPEC"], {"spec": "other.json"}, "spec"),
        (["report", "a=RESULTS"], {"jobs": 2}, "jobs"),
        (["test", "CORPUS"], {"shifts": 3}, "shifts"),
        (["test", "CORPUS"], {"min_effective": 20}, "min_effective"),
        (["calibrate", "--replications", 1], {"min-effective": 20}, "min-effective"),
        (["test", "CORPUS"], {"min-effective": 20}, "min-effective"),
    ])
    def test_unknown_key_is_data_error_naming_it(self, corpus, tmp_path, capsys,
                                                 argv, config, key):
        names = {"CORPUS": corpus, "SPEC": write_spec(tmp_path),
                 "a=RESULTS": f"a={fake_results(tmp_path, 'ok', [1, 2])}"}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv = [names.get(a, a) for a in argv]
        assert run([*argv, "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: config file {cfg}: {key!r} is not a flag of "
                              f"{argv[0]}") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_calibrate_reads_its_flags_from_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"replications": 2, "length": 60, "dim": 1, "kmax": 1,
                                   "freqs": 4, "bootstrap": 19, "alpha": 0.5}))
        assert run(["calibrate", "--config", cfg, "--out", tmp_path / "cal"]) == 0
        payload = json.loads((tmp_path / "cal" / "calibration.json").read_text())
        assert (payload["replications"], payload["length"]) == (2, 60)
        assert (payload["alpha"], payload["size_band"]) == (0.5, [0.1, 1.0])
        assert payload["per_lag"][0]["n"] == 2
        assert run(["calibrate", "--config", cfg, "--replications", 1,
                    "--out", tmp_path / "flag"]) == 0
        assert json.loads((tmp_path / "flag" / "calibration.json").read_text())[
            "replications"] == 1

    def test_synth_reads_count_and_length_from_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"count": 3, "length": 40}))
        assert run(["synth", write_spec(tmp_path), "--config", cfg,
                    "--out", tmp_path / "s"]) == 0
        files = sorted((tmp_path / "s").glob("*.csv"))
        assert len(files) == 3
        assert len(files[0].read_text().splitlines()) == 41   # header and 40 rows

    @pytest.mark.parametrize("argv, config, flag", [
        (["calibrate"], {"replications": 1.5}, "--replications"),
        (["calibrate"], {"jobs": 0}, "--jobs"),
        (["calibrate"], {"spec": 5}, "--spec"),
        (["synth", "SPEC"], {"count": "two"}, "--count"),
        (["synth", "SPEC"], {"length": 40.5}, "--length"),
        (["synth", "SPEC"], {"count": -2}, "--count"),
        (["calibrate"], {"kmax": True}, "--kmax"),
        (["calibrate"], {"dim": 0}, "--dim"),
        (["ingest", "RAW"], {"resample-dt": True}, "--resample-dt"),
    ])
    def test_bad_config_value_is_data_error_naming_flag(self, tmp_path, capsys,
                                                        argv, config, flag):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv = [write_spec(tmp_path) if a == "SPEC" else tmp_path if a == "RAW" else a
                for a in argv]
        assert run([*argv, "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {flag}: bad value ") and "Traceback" not in err
