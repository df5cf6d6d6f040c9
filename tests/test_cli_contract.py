"""The CLI's byte contract on corpora that reach each lag-test path.

``results.json`` must not depend on ``--jobs``, and lag 1 must not depend on
``--kmax``, whichever kernel tiles and bootstrap factor a series takes.
Those ``test`` runs go through ``python -m markovorder.cli`` with one BLAS
thread; corpora and the ingest check run ``cli.main`` in process.  Each
corpus is built once per module.
"""

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import markovorder
from markovorder import Trajectory, ccf, standardize
from markovorder.cli import main
from markovorder.ingest import write_trajectory

FAST = ["--freqs", "4", "--bootstrap", "19"]
VAR1 = {"kind": "var", "name": "ci", "coeffs": [[[0.4]]], "noise_cov": [[1.0]]}
CHAIN = {"kind": "chain", "name": "chain", "order": 1,
         "transition": [[0.7, 0.2, 0.1], [0.15, 0.6, 0.25], [0.05, 0.35, 0.6]],
         "embedding": [[-1.2], [0.0], [1.4]]}
VAR3 = {"kind": "var", "name": "var3",
        "coeffs": [[[0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]]],
        "noise_cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}


def run(*argv) -> int:
    return main([str(a) for a in argv])


@functools.cache
def results_of(corpus: Path, *flags) -> bytes:
    """``results.json`` of ``test`` on ``corpus``, run once in a subprocess
    with ``OPENBLAS_NUM_THREADS=1``."""
    out = corpus.parent / "".join(["out", *map(str, flags)])
    path = os.pathsep.join([str(Path(markovorder.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-m", "markovorder.cli", "test", str(corpus),
                    *map(str, flags), "--out", str(out)], check=True, timeout=300,
                   env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path})
    return (out / "results.json").read_bytes()


def synth(root: Path, spec: dict, count: int, length: int) -> Path:
    (root / "spec.json").write_text(json.dumps(spec))
    assert run("synth", root / "spec.json", "--count", count, "--length", length,
               "--seed", 1, "--out", root / "corpus") == 0
    return root / "corpus"


def circle(root: Path) -> Path:
    """T=1000 (float64 tiles) with every 30th state on a circle around the
    others: standardized, the lag-1 windows on it lie 41 bandwidths across,
    so the tiles flush the logits whose exp would be a float64 denormal."""
    out = root / "corpus"
    out.mkdir()
    t = np.arange(1000)
    ring = (t % 30 == 0) * 1.0
    for seed in (1, 2):
        noise = np.random.default_rng(seed).standard_normal(1000)
        traj = Trajectory(np.column_stack([ring * np.cos(0.1 * t), ring * np.sin(0.1 * t),
                                           noise]), dt=0.1, id=f"circle_{seed}")
        u = standardize(traj).states[:-1] / (1.06 * 999 ** (-1 / 7))
        assert -2 * (u * u).sum(axis=1).max() < ccf._LEAST_NORMAL
        write_trajectory(traj, out / f"circle_{seed}.csv")
    return out


CORPORA = {
    # two kernel tiles a side; the bootstrap draws through the p x p factor
    # of the summands' Gram matrix (--freqs 4: p=24, n_pad about 596)
    "var600": lambda root: synth(root, VAR1, 2, 600),
    # 1,499 or 1,500 windows, above the 1,024 from which the tiles are float32
    "var1500": lambda root: synth(root, VAR1, 2, 1500),
    # rank-deficient summand tables: every lag's Cholesky factorisation fails
    # and the bootstrap draws through the Gram matrix's eigendecomposition
    "chain600": lambda root: synth(root, CHAIN, 2, 600),
    "circle1000": circle,
}


@pytest.fixture(scope="module", params=list(CORPORA))
def corpus(request, tmp_path_factory):
    return CORPORA[request.param](tmp_path_factory.mktemp(request.param))


def test_results_do_not_depend_on_jobs(corpus):
    assert results_of(corpus, *FAST, "--kmax", 2, "--jobs", 1) == \
        results_of(corpus, *FAST, "--kmax", 2, "--jobs", 2)


def test_lag_one_does_not_depend_on_kmax(corpus):
    # the lags of a trajectory take their bootstrap multipliers from the
    # leading columns of one matrix
    one, two = (json.loads(results_of(corpus, *FAST, "--kmax", k, "--jobs", 1))["results"]
                for k in (1, 2))
    assert [r["per_lag"] for r in one] == [r["per_lag"][:1] for r in two]


def test_default_flags_give_whole_301ths_alike_at_any_jobs(tmp_path):
    # the benchmark's single-tile shape at the default --freqs and --bootstrap
    # (p=192, B=300): every p-value is a whole number of 301ths in 1..301
    corpus = synth(tmp_path, VAR3, 4, 120)
    payload = results_of(corpus, "--jobs", 1)
    assert payload == results_of(corpus, "--jobs", 2)
    results = json.loads(payload)["results"]
    # the search stops at the order: each result holds lags 1..order, or all
    # k_max of them when capped
    assert len(results) == 4, results
    for r in results:
        assert [lag["k"] for lag in r["per_lag"]] == list(range(1, r["order"] + 1)), r
    lags = [lag for r in results for lag in r["per_lag"]]
    for lag in lags:
        count = lag["p_value"] * 301
        assert abs(count - round(count)) < 1e-9 and 1 <= round(count) <= 301, lag


def test_planar_copy_ingests_to_the_geodetic_bytes(tmp_path):
    # one geodetic raw file with blank leader cells and its planar copy, which
    # holds the meters ingest projects it to (x is 0, as lon is fixed); the
    # header alone picks the layout.  Min mode reads only --min-len: 150 s,
    # above the default 120 s segment length and below the file's 198 s,
    # keeps each file whole
    geodetic = [["time_s", "lead_lat", "lead_lon", "follow_lat", "follow_lon"]]
    planar = [["time_s", "lead_x", "lead_y", "follow_x", "follow_y"]]
    meters = lambda lat: repr(6_371_000.0 * (lat - 28.0) * (math.pi / 180.0))
    for i in range(200):
        lead = 28.0 + (30.0 + 10.0 * i + 0.01 * i * i) / 111194.9266
        follow = 28.0 + 10.0 * i / 111194.9266
        blank = i % 37 == 5
        geodetic.append([repr(float(i)), "" if blank else repr(lead), "-82.0", repr(follow),
                         "-82.0"])
        planar.append([repr(float(i)), *(["", ""] if blank else ["0.0", meters(lead)]),
                       "0.0", meters(follow)])
    raw = tmp_path / "raw"
    raw.mkdir()
    for name, table in (("geodetic", geodetic), ("planar", planar)):
        (raw / f"{name}.csv").write_text("".join(",".join(r) + "\n" for r in table))
    out = tmp_path / "ingested"
    assert run("ingest", raw, "--segment-mode", "min", "--min-len", 150, "--out", out) == 0
    assert json.loads((out / "manifest.json").read_text())["trajectories_written"] == 2
    assert (out / "geodetic.csv").read_bytes() == (out / "planar.csv").read_bytes()
    # 200 rows make 198 states: the accelerations difference twice
    assert len((out / "planar.csv").read_text().splitlines()) == 1 + 198
