"""run_multistart's worker processes: the same best solution for any worker
count, no child left behind, and no multiprocessing import until a search
actually forks.  Every test here starts at most three workers."""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import process as futures_process
from pathlib import Path

import numpy as np
import pytest
from helpers import build_catalog, plan_for, random_matrix

import windplan
from windplan import siting
from windplan.cli import main
from windplan.resource import CriticalityMatrix
from windplan.siting import AnnealParams, greedy_init, run_multistart
from windplan.synth import gen_synthetic


@pytest.fixture()
def instance():
    rng = np.random.default_rng(25)
    catalog = build_catalog(rng.uniform(0, 1, (14, 8)), ["A"] * 6 + ["B"] * 8,
                            legacy_MW=[150.0] + [0.0] * 13)
    m = random_matrix(rng, 14, 60, density=0.35, c=3)
    m = CriticalityMatrix(m.n_windows, m.n_sites, m.packed_rows, 3, 1, tuple(catalog.index_of))
    return m, catalog, plan_for(catalog, {"A": 3, "B": 3})


@pytest.fixture()
def pools(monkeypatch):
    """Record the worker count of every pool that run_multistart opens."""
    opened = []

    class Recording(futures_process.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(futures_process, "ProcessPoolExecutor", Recording)
    return opened


@pytest.mark.parametrize("mode", ["best_visited", "final_incumbent"])
@pytest.mark.parametrize("radius", [1, 2])
@pytest.mark.parametrize("given_init", [False, True], ids=["greedy-init", "caller-init"])
def test_same_solution_at_one_two_and_three_workers(instance, pools, monkeypatch,
                                                    mode, radius, given_init):
    m, catalog, plan = instance
    monkeypatch.setattr(siting, "_usable_cpus", lambda: 3)
    params = AnnealParams(iterations=40, neighbors=6, radius=radius, return_mode=mode)
    init = None
    if given_init:  # a start the greedy would not pick: the first free sites
        init = siting._finish_solution(catalog, plan, ["s00", "s01", "s02", "s06", "s07", "s08"],
                                       0.0, "comp")
        assert init.selected != greedy_init(m, catalog, plan).selected
    runs = {threads: run_multistart(m, catalog, plan, params, n_runs=5, base_seed=3,
                                    threads=threads, init=init)
            for threads in (1, 2, 3)}
    assert pools == [2, 3]
    assert runs[2] == runs[1] and runs[3] == runs[1]
    assert runs[1].rng_seed in range(3, 8)


def test_no_children_left_after_success_or_failure(instance, pools, monkeypatch):
    m, catalog, plan = instance
    monkeypatch.setattr(siting, "_usable_cpus", lambda: 2)
    run_multistart(m, catalog, plan, AnnealParams(iterations=5, neighbors=3), n_runs=3,
                   threads=2)
    assert multiprocessing.active_children() == []
    too_wide = AnnealParams(iterations=5, neighbors=3, radius=6)  # 5 swappable slots
    with pytest.raises(ValueError, match="radius 6 exceeds the 5 swappable slots"):
        run_multistart(m, catalog, plan, too_wide, n_runs=3, threads=2)
    assert pools == [2, 2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus, threads, n_runs, workers", [
    (1, 3, 4, 1), (2, 3, 4, 2), (3, 2, 4, 2), (3, 3, 2, 2), (2, 2, 1, 1),
], ids=["one-cpu", "cpu-capped", "thread-capped", "run-capped", "single-run"])
def test_worker_count_is_the_least_of_threads_runs_and_cpus(instance, pools, monkeypatch,
                                                             cpus, threads, n_runs, workers):
    m, catalog, plan = instance
    monkeypatch.setattr(siting, "_usable_cpus", lambda: cpus)
    params = AnnealParams(iterations=4, neighbors=3)
    out = run_multistart(m, catalog, plan, params, n_runs=n_runs, threads=threads)
    assert pools == ([workers] if workers > 1 else [])
    assert out == run_multistart(m, catalog, plan, params, n_runs=n_runs)


def test_runs_in_process_where_fork_is_not_a_start_method(instance, pools, monkeypatch):
    m, catalog, plan = instance
    monkeypatch.setattr(siting, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    params = AnnealParams(iterations=4, neighbors=3)
    out = run_multistart(m, catalog, plan, params, n_runs=2, threads=2)
    assert pools == []
    assert out == run_multistart(m, catalog, plan, params, n_runs=2)


def test_usable_cpus_is_within_the_machine():
    assert 1 <= siting._usable_cpus() <= (os.cpu_count() or 1)


def test_cli_worker_failure_exits_like_one_thread(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(siting, "_usable_cpus", lambda: 2)
    data = tmp_path / "data"
    gen_synthetic(data, seed=7, n_sites=6, n_partitions=2, n_periods=96)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "paths": {"catalog": f"{data}/sites.csv", "wind_speeds": f"{data}/wind_speeds.csv",
                  "demand": f"{data}/demand.csv", "output_dir": "out"},
        "resample_factor": 3,
        "siting": {"targets_MW": {"P1": 2000.0, "P2": 2000.0}, "n_runs": 2,
                   "anneal": {"iterations": 5, "neighbors": 3, "radius": 9}},
    }), encoding="utf-8")
    errors = []
    for threads in ("1", "2"):
        assert main(["site", str(config), "--out", str(tmp_path / threads),
                     "--threads", threads]) == 2
        errors.append(json.loads(capsys.readouterr().err))
    assert errors[0] == errors[1]
    assert errors[0]["exit_code"] == 2 and "radius 9 exceeds" in errors[0]["message"]
    assert multiprocessing.active_children() == []


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    src = str(Path(windplan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, windplan.cli; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
