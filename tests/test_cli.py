"""The ``steerqrng`` command started as a subprocess (``python -m steerqrng``
from ``src/``): the same bits on one core and on all, the README config's
artifacts forked and on one core, mu against beta in the certificates, both
certification sweeps and the bootstrap floor."""

import csv
import json
import os
import subprocess
import sys

import pytest

from steerqrng import pipeline as pl

SRC = os.path.dirname(os.path.dirname(os.path.abspath(pl.__file__)))

# binds this process to the CPU in argv[1], then runs the command on the rest
ONE_CORE = ("import os, runpy, sys; os.sched_setaffinity(0, {int(sys.argv.pop(1))}); "
            "runpy.run_module('steerqrng', run_name='__main__', alter_sys=True)")

README_CONFIG = {
    "format": "steerqrng-config-v1",
    "experiment": {"visibility": 0.99, "eta_alice": 0.543, "eta_bob": 1.0,
                   "pair_rate": 100000, "duration_rng": 1.0,
                   "trials_certification": 1000000, "rng_seed": 0},
    "certification": {"x_star": "auto", "resamples": 100},
    "extraction": {"epsilon": 1e-6, "block_bits": 20000},
}

needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="binding a process to a CPU needs sched_setaffinity")


def steerqrng(*args, one_core=False, env=None, cwd):
    """The command's exit status; with ``one_core`` it runs bound to the
    first CPU this process may use."""
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "steerqrng"]
    if one_core:
        argv = [sys.executable, "-c", ONE_CORE, str(min(os.sched_getaffinity(0)))]
    proc = subprocess.run(argv + list(args), cwd=cwd, env=env, capture_output=True,
                          timeout=600)
    print(proc.stderr.decode(), end="")  # shown when a test fails
    return proc.returncode


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def mu_beta_gap(certificate: str) -> float:
    values = dict(line.split()[:2] for line in read(certificate).decode().splitlines()
                  if line.split()[0] in ("mu", "beta"))
    assert set(values) == {"mu", "beta"}
    return abs(float(values["mu"]) - float(values["beta"]))


def sweep_rows(out: str) -> tuple[list[str], list[list[str]]]:
    with open(os.path.join(out, pl.SWEEP_TSV), newline="") as fh:
        header, *rows = csv.reader(fh, delimiter="\t")
    return header, rows


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The default config at seed 3 and the README config, each on all CPUs
    and on one; the README run on all CPUs has one BLAS thread, so its
    bootstrap runs in forked slices, one per CPU."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "readme.json"
    config.write_text(json.dumps(README_CONFIG))
    status = {
        "run": steerqrng("run", "-o", str(root / "run"), "--seed", "3", cwd=root),
        "run1": steerqrng("run", "-o", str(root / "run1"), "--seed", "3", one_core=True,
                          cwd=root),
        "readme": steerqrng("run", "-c", str(config), "-o", str(root / "readme"), "--seed", "3",
                            env={"OPENBLAS_NUM_THREADS": "1"}, cwd=root),
        "readme1": steerqrng("run", "-c", str(config), "-o", str(root / "readme1"),
                             "--seed", "3", one_core=True, cwd=root),
    }
    return root, status


@needs_affinity
def test_runs_and_reports_pass(runs):
    root, status = runs
    assert status == {"run": 0, "run1": 0, "readme": 0, "readme1": 0}
    for name in status:
        lines = read(root / name / pl.REPORT_TEXT).decode().splitlines()
        assert "pass              : yes" in lines, name


@needs_affinity
def test_one_core_writes_the_same_bits(runs):
    """On one core the extractor's mask ranges shrink to one: same bits."""
    root, _ = runs
    for name in (pl.EXTRACTED_FILE, pl.SEED_FILE, pl.EXTRACTOR_REPORT_FILE):
        assert read(root / "run" / name) == read(root / "run1" / name), name


@needs_affinity
def test_readme_config_same_artifacts_forked_and_on_one_core(runs):
    """On one core the bootstrap runs in one slice, in the calling process:
    every artifact but the timings is the same."""
    root, _ = runs
    names = sorted(set(os.listdir(root / "readme")) - {pl.TIMINGS_FILE})
    assert names == sorted(set(os.listdir(root / "readme1")) - {pl.TIMINGS_FILE})
    for name in names:
        assert read(root / "readme" / name) == read(root / "readme1" / name), name


@needs_affinity
def test_mu_within_1e6_of_beta_in_both_certificates(runs):
    root, _ = runs
    for name in ("run", "readme"):
        assert mu_beta_gap(str(root / name / pl.CERTIFICATION_FILE)) <= 1e-6, name


def test_sweep_h_min_rises_with_eta(tmp_path):
    """A header and 5 rows, h_min rising with eta, and mu within 1e-6 of
    beta on each row."""
    out = str(tmp_path / "sweep")
    assert steerqrng("sweep", "-o", out, "--eta", "0.5:0.9:0.1", cwd=tmp_path) == 0
    header, rows = sweep_rows(out)
    assert header[4:7] == ["h_min", "mu", "beta"]
    assert len(rows) == 5
    assert all(abs(float(row[5]) - float(row[6])) <= 1e-6 for row in rows)
    h_min = [float(row[4]) for row in rows]
    assert all(b > a for a, b in zip(h_min, h_min[1:]))


def test_sweep_grid_reaches_degenerate_members(tmp_path):
    """A grid that reaches zero members, rank-1 supports and 1x1 blocks: a
    header and 6 rows, mu within 1e-6 of beta on each (h_min does not rise
    with eta at V = 0, so that check does not apply)."""
    out = str(tmp_path / "grid")
    assert steerqrng("sweep", "-o", out, "--eta", "0,0.5,1", "--visibility", "0,1",
                     cwd=tmp_path) == 0
    header, rows = sweep_rows(out)
    assert header[5:7] == ["mu", "beta"]
    assert len(rows) == 6
    assert all(abs(float(row[5]) - float(row[6])) <= 1e-6 for row in rows)


def test_fewer_than_100_resamples_is_a_config_error(tmp_path):
    config = tmp_path / "resamples50.json"
    config.write_text('{"format": "steerqrng-config-v1", "certification": {"resamples": 50}}\n')
    out = str(tmp_path / "bad")
    assert steerqrng("run", "-c", str(config), "-o", out, cwd=tmp_path) == pl.EXIT_IO

