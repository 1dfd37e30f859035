#!/usr/bin/env python3
"""Quick self-check of the benchmark, at tiny params, in under a minute.

    python3 perfbench/selfcheck.py

- every workload runs, passes its checks, and prints every end-to-end
  metric of BENCHMARK.json with its unit (light_clean at tiny params);
- a traced run prints every per-layer metric with its unit;
- deliberately corrupted inputs fail the run: a flipped signature byte in
  one timed request, and a wrong recorded city outcome.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, *extra, trace=0):
    args = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "2", "--trace", str(trace), "--setups", "1"]
    proc = subprocess.run(args + list(extra), cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def expect_metrics(result, names, what):
    for m in names:
        got = result["metrics"].get(m["name"])
        expect(got is not None and got.get("unit") == m["unit"]
               and isinstance(got.get("value"), (int, float)),
               f"{what}: {m['name']} [{m['unit']}]")


cases = {
    "light_clean": ["--tiny"],
    "city_sim": [],
}
for workload in [w["name"] for w in SPEC["workloads"]]:
    code, result, out = run(workload, *cases[workload])
    expect(code == 0 and result is not None and result["correct"]
           and result["attempted"] >= 1, f"{workload} passes its checks")
    if result is not None:
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{workload}: result keys")
        expect_metrics(result, SPEC["end_to_end"], workload)
    else:
        print(out)

for workload, extra in cases.items():
    code, result, out = run(workload, *extra, trace=1)
    expect(code == 0 and result is not None and result["correct"],
           f"traced {workload} passes its checks")
    if result is not None:
        expect_metrics(result, SPEC["per_layer"], f"traced {workload}")
    expect("predicted" in out and "residual" in out, f"traced {workload} prints the ledger")

code, result, _ = run("light_clean", "--tiny", "--corrupt", "sig")
expect(code != 0 and result is not None and not result["correct"],
       "a flipped signature byte fails the run")
code, result, _ = run("city_sim", "--corrupt", "city")
expect(code != 0 and result is not None and not result["correct"],
       "a wrong city outcome fails the run")

print("self-check:", "FAILED" if failures else "passed")
sys.exit(1 if failures else 0)
