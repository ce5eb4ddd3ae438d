"""Tests of the benchmark itself, one property each.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run._import_package()
run._resolve_backend()

from workloads import WORKLOADS, OracleMixed  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    CONTRACT = json.load(fh)
with open(run.REFS, encoding="utf-8") as fh:
    ALL_REFS = json.load(fh)


def refs_for(name: str) -> dict:
    return {"seed": ALL_REFS["seed"], **copy.deepcopy(ALL_REFS[name])}


def run_cli(*args, cwd=ROOT):
    script = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(name):
    done = run_cli("--workload", name, "--seed", "1", "--seconds", "0", "--trace", "0",
                   "--smoke")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_emits_every_per_layer_metric():
    done = run_cli("--workload", "oracle_mixed", "--seed", "2", "--seconds", "0",
                   "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("per_layer")


def _corrupt_presets(refs):
    refs["sha256"]["fig6"] = "0" * 64


def _corrupt_grid(refs):
    key = next(k for k, (v, flagged) in refs["closed"].items()
               if k.startswith("n3m2|sop|") and not flagged and v > 0)
    refs["closed"][key][0] *= 1.0 + 1e-9


def _corrupt_oracle(refs):
    refs["counts"][0][0][0] += 1


@pytest.mark.parametrize("name, corrupt", [
    ("presets_mc", _corrupt_presets),
    ("closed_form_grid", _corrupt_grid),
    ("oracle_mixed", _corrupt_oracle),
])
def test_corrupted_reference_gives_nonzero_error_rate(name, corrupt):
    wl = WORKLOADS[name](ALL_REFS["seed"], smoke=True)
    refs = refs_for(name)
    _, attempted, failed = run._end_to_end(wl, 0, refs, [1.0])
    assert failed == 0
    corrupt(refs)
    _, attempted, failed = run._end_to_end(wl, 0, refs, [1.0])
    assert 0 < failed <= attempted


def test_new_seed_changes_oracle_inputs_and_passes_checks():
    seed = 20261017
    assert OracleMixed.scenarios(seed, 5) != OracleMixed.scenarios(ALL_REFS["seed"], 5)
    wl = OracleMixed(seed, smoke=True)
    p = run.Pass(wl, False).run(wl.points)
    assert p.error is None
    assert p.failures(refs_for("oracle_mixed")) == {}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli("--workload", "presets_mc", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
