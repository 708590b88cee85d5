"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` and ``metrics.py`` agree, that every run
emits exactly its named metrics with their units, that each output check
fires on a deliberately corrupted output (a perturbed objective, a dropped
site, a truncated MPS file), and that the benchmark refuses to run in a
directory that holds only ``BENCHMARK.json`` and the benchmark itself.
Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import metrics  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def check_manifest() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    for entry in doc["workloads"]:
        assert entry["why"] == wl.WORKLOADS[entry["name"]](False).why, entry["name"]
    listed = {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}
    for m in metrics.END_TO_END + metrics.PER_LAYER:
        entry = listed.pop(m.name)
        assert entry["unit"] == m.unit and entry["better"] == m.better, m.name
        assert entry.get("bound") == m.bound, m.name
    assert not listed, f"BENCHMARK.json lists unknown metrics {sorted(listed)}"


def _no_constant(token: str):
    raise AssertionError(f"result line holds {token}, which is not JSON")


def check_emitted(name: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_no_constant)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER_NAMES if trace else metrics.END_TO_END_NAMES
    assert list(result["metrics"]) == list(expected), name
    for key, value in result["metrics"].items():
        assert value["unit"] == metrics.UNITS[key], key
        assert isinstance(value["value"], float), key
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result


def first_pass(name: str, work: Path, capture: wl.Capture):
    workload = wl.WORKLOADS[name](True)
    state = workload.setup(5, work / name)
    records = []
    for call in workload.calls(state, capture):
        _, record, ok = run.timed_call(call)
        assert ok, record
        records.append(record)
    errors, _ = workload.check(state, records)
    assert not errors, (name, errors)
    return workload, state, records


def check_corruption(work: Path) -> None:
    capture = wl.Capture()

    workload, state, records = first_pass("sizing", work, capture)
    sol = records[0]["solution"]
    bad = [dict(records[0], solution=dataclasses.replace(sol, objective=sol.objective * 1.001))]
    assert workload.check(state, bad + records[1:])[0], "perturbed objective not caught"

    workload, state, records = first_pass("siting-paper", work, capture)
    solution, catalog = records[0]["siting"], state["catalog"]
    dropped = next(s for s in sorted(solution.selected) if s not in catalog.legacy_ids)
    bad = dataclasses.replace(solution, selected=solution.selected - {dropped})
    assert workload.check(state, [dict(records[0], siting=bad)])[0], "dropped site not caught"

    workload, state, records = first_pass("export-19bus", work, capture)
    mps = records[0]["mps"]
    text = mps.read_bytes()
    mps.write_bytes(text[: len(text) // 2])
    assert workload.check(state, records)[0], "truncated MPS not caught"


def check_refuses_bare_directory(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sizing", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        check_manifest()
        for name in wl.WORKLOADS:
            for trace in (0, 1):
                check_emitted(name, trace)
        check_corruption(work)
        check_refuses_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
