"""Self-test of the benchmark: a tiny run of every workload, traced and not.

usage: python3 -m pytest -q perfbench/tests    (from the repository root, 1-2 min)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
WORKLOADS = ("verify", "match", "match-batch")
REPEATING_COUNTS = ("oracle.insert.calls", "matcher.table_builds",
                    "matcher.table_models", "series.divexact.calls")

sys.path.insert(0, str(HERE))
import gen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            cache[workload, trace] = proc.stdout.splitlines()
        return cache[workload, trace]
    return get


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, workload, trace):
    lines = runs(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    printed = {line.split()[0]: line.split()[2] for line in lines[1:-1]}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    if not trace:
        assert printed["failed_ratio"] == "ratio"
        assert "samples beyond" in next(line for line in lines if line.startswith("op_s.tail"))
    provenance = json.loads(lines[0].split(" ", 1)[1])
    for key in ("nproc", "python", "commit", "loadavg_start", "loadavg_end", "seed",
                "pythonhashseed", "inputs_digest"):
        assert key in provenance


@pytest.mark.parametrize("workload", ("verify", "match"))
def test_counts_repeat_between_traced_runs(runs, workload):
    first = json.loads(runs(workload, 1)[-1])["metrics"]
    proc = bench(workload, 1)
    second = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    for name in REPEATING_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_layer_map_names_the_per_layer_metrics():
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    names = [name for layer in layers for name in layer["metrics"]]
    assert names == [m["name"] for m in SPEC["per_layer"]]
    for layer in layers:
        for rules in layer["metrics"].values():
            for rule in rules.split():
                assert rule[0] in "+-" and rule[1:] in WORKLOADS


def test_generator_is_seeded_and_independent_of_wgk():
    assert gen.digest(gen.queries(7)) == gen.digest(gen.queries(7))
    assert gen.digest(gen.queries(7)) != gen.digest(gen.queries(8))
    probe = "import sys, gen; gen.queries(1); print(any(m.startswith('wgk') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], cwd=HERE, capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("verify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
