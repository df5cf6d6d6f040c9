import json
from pathlib import Path

import numpy as np
import pytest

from markovorder import cli
from markovorder.cli import main

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
        assert env["cpu_count"] >= 1 and isinstance(env["heap_kept"], bool)
        assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS"}
        # the environment is run telemetry: none of it reaches results.json
        assert "environment" not in (tmp_path / "m" / "results.json").read_text()

    def test_heap_setting_optional(self, corpus, tmp_path, monkeypatch):
        # without glibc's mallopt the run goes on and says so in its manifest
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert run(self.args(corpus, tmp_path / "h")) == 0
        manifest = json.loads((tmp_path / "h" / "manifest.json").read_text())
        assert manifest["environment"]["heap_kept"] is False
        assert (tmp_path / "h" / "results.json").exists()

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

    def test_mdn_estimator_selectable(self, corpus, tmp_path):
        out = tmp_path / "mdn"
        files = sorted(corpus.glob("*.csv"))[:1]
        assert run(["test", files[0], "--seed", 1, "--kmax", 1, "--freqs", 4,
                    "--bootstrap", 19, "--estimator", "mdn", "--out", out]) == 0
        payload = json.loads((out / "results.json").read_text())
        assert payload["config"]["estimator"] == "mdn"
        assert payload["results"][0]["per_lag"][0]["p_value"] > 0


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
    def test_cohort_against_itself(self, tmp_path, capsys):
        p = fake_results(tmp_path, "same", [1, 2, 2, 3, 4])
        assert run(["compare", p, p, "--labels", "x,y",
                    "--out", tmp_path / "cmp"]) == 0
        payload = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
        assert payload["t_test"]["t"] == pytest.approx(0.0, abs=1e-12)
        assert payload["f_test"]["f"] == pytest.approx(1.0, abs=1e-12)

    def test_variance_ratio_cohorts_f_significant(self, tmp_path):
        rng = np.random.default_rng(0)
        tight = np.clip(np.round(rng.normal(2, 0.6, size=50)), 1, 10).astype(int)
        wide = np.clip(np.round(rng.normal(2, 0.6 * np.sqrt(10), size=50)), 1, 10).astype(int)
        pa = fake_results(tmp_path, "wide", wide.tolist())
        pb = fake_results(tmp_path, "tight", tight.tolist())
        assert run(["compare", pa, pb, "--out", tmp_path / "cmp2"]) == 0
        payload = json.loads((tmp_path / "cmp2" / "comparison.json").read_text())
        assert payload["f_test"]["significant"] is True
        assert payload["f_test"]["f"] > 3.0

    def test_missing_cohort_file(self, tmp_path, capsys):
        p = fake_results(tmp_path, "ok", [1, 2, 3])
        rc = run(["compare", p, tmp_path / "absent.json", "--out", tmp_path / "c"])
        assert rc == 2
        assert "absent.json" in capsys.readouterr().err

    def test_degenerate_cohort_keeps_t_test(self, tmp_path):
        pa = fake_results(tmp_path, "spread", [1, 2, 3, 4, 5])
        pb = fake_results(tmp_path, "flat", [1, 1, 1, 1])
        assert run(["compare", pa, pb, "--out", tmp_path / "cmp3"]) == 0
        payload = json.loads((tmp_path / "cmp3" / "comparison.json").read_text())
        assert "t" in payload["t_test"]
        assert "error" in payload["f_test"]


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

    def test_all_failed_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nonsense,columns\n1,2\n")
        assert run(["ingest", bad, "--out", tmp_path / "ing4"]) == 2


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

    def test_label_syntax_required(self, tmp_path):
        pa = fake_results(tmp_path, "av", [1, 2])
        assert run(["report", str(pa), "--out", tmp_path / "r"]) == 2


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_input_is_data_error(self, tmp_path):
        assert run(["test", tmp_path / "missing_dir_x", "--out", tmp_path / "o"]) == 2

    def test_program_bug_is_internal_error(self, corpus, tmp_path, monkeypatch, capsys):
        from markovorder import markov

        def broken(traj, cfg, rng=None):
            raise IndexError("slicing slip")
        monkeypatch.setattr(markov, "estimate_order", broken)
        assert run(["test", corpus, "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert "internal error: IndexError" in err
        assert "Traceback" in err and "slicing slip" in err

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
