"""Smoke check of the harness: every workload at tiny sizes, both modes.

    python3 bench/test_smoke.py        (or: python -m pytest bench/test_smoke.py)

Asserts that each run exits 0 and that its last stdout line carries every
end-to-end (--trace 0) or per-layer (--trace 1) metric named in
BENCHMARK.json, with that metric's unit.  It never gates on timings.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_present_with_unit():
    spec = _spec()
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = _run(wl["name"], trace)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == want, (wl["name"], trace, set(want) ^ set(got))
            assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


if __name__ == "__main__":
    test_every_metric_present_with_unit()
    print("smoke ok")
