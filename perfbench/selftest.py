"""Quick self-test of the benchmark itself (about ten seconds).

    python3 perfbench/selftest.py

Runs every workload cut to two operations, untraced and traced, through the
same command line the benchmark is run with, and checks: BENCHMARK.json
lists exactly the metrics run.py reports, with the same units; the result
line has exactly the keys correct, attempted, failed and metrics; no
operation fails; every per-layer metric is present. Finally it copies
BENCHMARK.json and perfbench/ into an empty directory and checks that the
benchmark refuses to run there.
"""

import json
import math
import shutil
import subprocess
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(run.DEFAULT_SEED), "--seconds", "0", "--max-ops", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_spec(spec) -> None:
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(run.END_TO_END), declared
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == list(run.PER_LAYER), declared
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def check_run(spec, workload, trace) -> dict:
    done = bench(run.ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 2, result
    table = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in table}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected, set(got) ^ set(expected)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), (name, metric)
        if not trace:
            assert metric["value"] > 0, (name, metric)
    return result


def check_bare_directory() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(BENCHMARK, bare / "BENCHMARK.json")
        done = bench(bare, next(iter(run.WORKLOADS)), 0)
        assert done.returncode != 0, done.stdout
        assert '"metrics"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> None:
    spec = json.loads(BENCHMARK.read_text())
    check_spec(spec)
    run.OUT_DIR.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = check_run(spec, workload, trace)
            print(f"ok {workload} trace={trace}: {result['attempted']} operations")
    check_bare_directory()
    print("ok bare directory: benchmark refuses to run")


if __name__ == "__main__":
    main()
