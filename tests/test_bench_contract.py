"""The names the traced benchmark patches must stay in the library.

``perfbench/spans.py`` wraps ``windplan`` functions at the module attributes
through which the pipeline calls them; a traced run stops as soon as one of
them is missing or no longer takes the arguments its wrapper reads.  These
tests read ``perfbench/`` and leave its files as they are.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import build_catalog, plan_for, random_matrix
from windplan import siting
from windplan.resource import CriticalityMatrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans


def test_every_patched_name_resolves_to_a_callable(spans):
    targets = spans.targets(spans.Tracer())
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_local_search_keeps_the_arguments_the_observer_reads():
    names = list(inspect.signature(siting.local_search).parameters)
    assert names[4] == "params"
    assert "on_iteration" in names


def test_traced_multistart_counts_every_search_iteration(spans):
    rng = np.random.default_rng(4)
    catalog = build_catalog(rng.uniform(0, 1, (8, 4)), ["A"] * 4 + ["B"] * 4)
    m = random_matrix(rng, 8, 40, c=2)
    m = CriticalityMatrix(m.n_windows, m.n_sites, m.packed_rows, 2, 1, tuple(catalog.index_of))
    plan = plan_for(catalog, {"A": 2, "B": 2})
    params = siting.AnnealParams(iterations=5, neighbors=3)
    tracer = spans.Tracer()
    tracer.install(spans.targets(tracer))
    try:
        traced = siting.run_multistart(m, catalog, plan, params, n_runs=2, base_seed=9)
    finally:
        tracer.uninstall()
    assert traced == siting.run_multistart(m, catalog, plan, params, n_runs=2, base_seed=9)
    counters = tracer.counters[0]
    assert counters["siting.iterations"] == 10
    assert counters["siting.neighbors_evaluated"] == 30
    assert counters["siting.search_runs"] == 2
