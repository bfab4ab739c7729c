"""entrokit benchmark: one workload, one seed, one closed loop.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from its
`src/` directory, never from an installed copy.  One caller issues the next
op only after the previous one returned; no threads are started and BLAS
is pinned to one thread.

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_us, op_p90_us,
setup_s (median wall time of a fresh `python -m entrokit.cli` with the
workload's one-shot command, stdout checked), ok_ratio (share of ops that
match their reference) and peak_rss_mb.

--trace 1 alternates untraced passes over the pool with passes traced by
`spans.py`, and prints the per-layer metrics of the traced passes, the CLI
stage timings (`cli_probe.py`) and the tracing overhead.

Every time is reported at the speed of a reference machine: it is
multiplied by KERNEL_REF_S / k, where k is the mean time of the fixed
kernel in `calib.py`, timed every 200 ms through the loop (and next to
each CLI process for the CLI timings).  The host this was written on
drifts by 10-30% in speed over minutes; the kernel sees the drift, the
program's code does not change it.  Raw values are kept in the record.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A full record (environment, input shares,
failure causes, and in traced runs the spans) goes to .bench_out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported: threaded BLAS makes timings noise

import argparse
import array
import contextlib
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_OPS = 100  # so that at least 10 samples lie beyond p90
KERNEL_EVERY_NS = 200_000_000  # how often the loop times the reference kernel
KERNEL_REF_S = 4.0e-3  # the kernel's mean time on the machine the bounds were set on
SETUP_RUNS = 7
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Failure causes that mean the op did not produce a result at all; the
# others ("miss", "misflag", "oracle_disagrees") are wrong results.
HARD_CAUSES = ("raised", "no_error", "nonfinite", "bad_result")


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_loop(items, seconds, tracer=None):
    """Cycle through the pool until `seconds` passed, at least one full pass
    and MIN_OPS ops are done.  With a tracer, passes alternate between
    untraced (mode 0) and traced (mode 1), so that both see the same machine
    state, and each mode needs its own full pass and MIN_OPS ops.

    Every KERNEL_EVERY_NS the reference kernel is timed between two ops; its
    time is left out of the wall time.

    Returns per-mode latencies (ns) and wall time (ns), the last result of
    each item, the number of times each item ran and the kernel times (s).
    """
    n = len(items)
    results = [None] * n
    runs = [0] * n
    modes = (0, 1) if tracer is not None else (0,)
    # 8 bytes an op, so memory barely depends on the op count
    latencies = {m: array.array("q") for m in modes}
    wall = {m: 0 for m in modes}
    passes = {m: 0 for m in modes}
    kernel = array.array("d")  # reference-kernel seconds, sampled through the loop
    clock = time.perf_counter_ns
    gc.collect()
    deadline = clock() + int(seconds * 1e9)
    next_kernel = clock()
    op_id = 0
    while True:
        mode = modes[sum(passes.values()) % len(modes)]
        lat = latencies[mode]
        with tracer.installed() if mode else contextlib.nullcontext():
            start = clock()
            paused = 0
            for k, item in enumerate(items):
                if clock() >= next_kernel:  # between ops, outside every timing
                    t0 = clock()
                    kernel.append(calib.kernel_seconds())
                    t1 = clock()
                    paused += t1 - t0
                    next_kernel = t1 + KERNEL_EVERY_NS
                t0 = clock()
                try:
                    out = tracer.op(op_id, item.run) if mode else item.run()
                except Exception as exc:  # an op that raises is recorded and judged, not fatal
                    out = exc
                t1 = clock()
                lat.append(t1 - t0)
                results[k] = out
                runs[k] += 1
                op_id += 1
                done = t1 >= deadline and all(
                    passes[m] + (m == mode and k == n - 1) >= 1 and len(latencies[m]) >= MIN_OPS
                    for m in modes)
                if done:
                    break
            wall[mode] += clock() - start - paused
        passes[mode] += 1
        if done:
            return latencies, wall, results, runs, kernel


def verdict(item, result):
    """Failure cause of one op's result, or None if it is right."""
    if isinstance(result, Exception):
        return None if item.expect and isinstance(result, item.expect) else "raised"
    if item.expect is not None:
        return "no_error"
    try:
        return item.check(result)
    except (TypeError, ValueError, AttributeError, IndexError):
        return "bad_result"


def judge(items, results, runs):
    """Per-op failure accounting weighted by how often each item ran."""
    causes, defects, unexplained = {}, {}, 0
    for item, result, count in zip(items, results, runs):
        cause = verdict(item, result)
        if cause is None:
            continue
        causes[cause] = causes.get(cause, 0) + count
        if item.defect is not None and item.defect[1] == cause:
            defects[item.defect[0]] = defects.get(item.defect[0], 0) + count
        else:
            unexplained += count
    return causes, defects, unexplained


def spawn_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, runs):
    """Fresh processes of `python <argv>`: for each, its wall time scaled to the
    reference kernel timed before and after it, the scale, and the process."""
    kernel = [calib.kernel_seconds()]
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=spawn_env(),
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        kernel.append(calib.kernel_seconds())
        scale = KERNEL_REF_S / statistics.mean(kernel[-2:])
        out.append((wall * scale, scale, proc))
    return out


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return ref


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    uname = platform.uname()
    return {
        "machine": uname.machine, "system": f"{uname.system} {uname.release}",
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
    }


def shares(items):
    """Input-property shares of the pool: each boolean prop, and the kind mix."""
    out = {}
    for key in sorted({k for it in items for k in it.props}):
        vals = [it.props.get(key) for it in items]
        if all(isinstance(v, bool) or v is None for v in vals):
            out[f"{key}_share"] = sum(bool(v) for v in vals) / len(items)
        else:
            mix = {}
            for v in vals:
                mix[str(v)] = mix.get(str(v), 0) + 1
            out[f"{key}_mix"] = {k: c / len(items) for k, c in sorted(mix.items())}
    return out


def per_layer(tracer, ops, scale, probe, overhead):
    us = {layer: ns * scale / 1e3 / ops for layer, ns in tracer.self_ns.items()}
    c = tracer.counts

    def per_op(key):
        return c.get(key, 0) / ops

    return {
        "special.calls_per_op": (per_op("special.calls"), "count"),
        "special.points_per_op": (per_op("special.points"), "count"),
        "special.us_per_op": (us.get("special", 0.0), "us"),
        "distributions.calls_per_op": (per_op("distributions.calls"), "count"),
        "distributions.points_per_op": (per_op("distributions.points"), "count"),
        "distributions.us_per_op": (us.get("distributions", 0.0), "us"),
        "closed_form.calls_per_op": (per_op("closed_form.calls"), "count"),
        "closed_form.us_per_op": (us.get("closed_form", 0.0), "us"),
        "oracle.quad_calls_per_op": (per_op("oracle.quad_runs"), "count"),
        "oracle.integrand_points_per_op": (per_op("oracle.integrand_points"), "count"),
        "oracle.quad_us_per_op": (us.get("oracle.quad", 0.0), "us"),
        "oracle.series_calls_per_op": (per_op("oracle.series.calls"), "count"),
        "oracle.series_terms_per_op": (per_op("oracle.series_terms"), "count"),
        "oracle.series_us_per_op": (us.get("oracle.series", 0.0), "us"),
        "oracle.errors_per_op": (per_op("oracle.errors"), "count"),
        "limits.calls_per_op": (per_op("limits.calls"), "count"),
        "limits.us_per_op": (us.get("limits", 0.0), "us"),
        "gaussian.cov_us_per_op": (us.get("gaussian.cov", 0.0), "us"),
        "gaussian.det_calls_per_op": (per_op("gaussian.det.calls"), "count"),
        "gaussian.det_us_per_op": (us.get("gaussian.det", 0.0), "us"),
        "gaussian.entropy_us_per_op": (us.get("gaussian.entropy", 0.0), "us"),
        "gaussian.singular_per_op": (per_op("gaussian.singular"), "count"),
        "harness.us_per_op": (us.get("harness", 0.0), "us"),
        "cli.import_numpy_s": (probe["import_numpy_s"], "s"),
        "cli.import_entrokit_s": (probe["import_entrokit_s"], "s"),
        "cli.main_us": (probe["main_us"], "us"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny pools and one CLI start: checks the harness, not timings")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "entrokit", "__init__.py")):
        print(f"bench: no entrokit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import entrokit
    import spans
    import workloads

    if os.path.dirname(os.path.abspath(entrokit.__file__)) != os.path.join(SRC, "entrokit"):
        print(f"bench: imported entrokit from {entrokit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scale, setup_runs = (0.05, 1) if args.smoke else (1.0, SETUP_RUNS)
    wl = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), scale)
    items = wl.items

    # warm-up: the first op of each kind, untimed
    seen = set()
    for item in items:
        if item.kind not in seen:
            seen.add(item.kind)
            try:
                item.run()
            except Exception:  # judged in the timed loop
                pass

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "pool_size": len(items), "environment": environment(),
              "inputs": shares(items)}
    tracer = spans.Tracer() if args.trace else None
    lats, walls, results, runs, kernel = timed_loop(items, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    causes, defects, unexplained = judge(items, results, runs)
    failed = sum(causes.values())
    attempted = sum(runs)  # both modes of a traced run
    # times are reported at the reference kernel's speed (see calib.py)
    # the mean, like the loop's wall time, weighs slow and fast phases by their length
    scale = KERNEL_REF_S / statistics.fmean(kernel)
    lat, wall = lats[args.trace], walls[args.trace] * scale
    ops = len(lat)
    if args.trace == 0:
        procs = spawn(["-m", "entrokit.cli", *wl.one_shot], setup_runs)
        outs = [p.stdout if p.returncode == 0 else None for _, _, p in procs]
        metrics = {
            "ops_per_s": (ops / (wall / 1e9), "1/s"),
            "op_p50_us": (_percentile(lat, 50) * scale / 1e3, "us"),
            "op_p90_us": (_percentile(lat, 90) * scale / 1e3, "us"),
            "setup_s": (statistics.median(t for t, _, _ in procs), "s"),
            "ok_ratio": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        samples = {"ops_per_s": ops, "op_p50_us": ops, "op_p90_us": ops,
                   "setup_s": setup_runs, "ok_ratio": ops, "peak_rss_mb": 1}
    else:
        procs = spawn([os.path.join(HERE, "cli_probe.py"), *wl.one_shot], setup_runs)
        stages = [(json.loads(p.stdout.strip().splitlines()[-1]), f) for _, f, p in procs]
        probe = {k: statistics.median(st[k] * f for st, f in stages)
                 for k in ("import_numpy_s", "import_entrokit_s", "main_us")}
        outs = [st["stdout"] if st["code"] == 0 else None for st, _ in stages]
        overhead = (len(lats[0]) / walls[0]) / (ops / walls[1])
        metrics = per_layer(tracer, ops, scale, probe, overhead)
        samples = {k: (setup_runs if k.startswith("cli.") else ops) for k in metrics}
        report["untraced_ops_per_s"] = len(lats[0]) / (walls[0] * scale / 1e9)
        report["traced_ops_per_s"] = ops / (wall / 1e9)

    one_shot_ok = all(out is not None and wl.check_one_shot(out) for out in outs)
    hard = sum(causes.get(c, 0) for c in HARD_CAUSES)
    correct = unexplained == 0 and one_shot_ok
    report.update({
        "kernel_s": statistics.fmean(kernel), "kernel_samples": len(kernel), "scale": scale,
        "raw": {"ops_per_s": ops / (walls[args.trace] / 1e9),
                "setup_s": [t / f for t, f, _ in procs] if args.trace == 0 else None},
        "correct": correct, "attempted": attempted, "failed_hard": hard,
        "fail_ratio": failed / attempted, "fail_causes": causes, "known_defects": defects,
        "unexplained_failures": unexplained, "one_shot_ok": one_shot_ok,
        "metrics": {k: {"value": v, "unit": u, "samples": samples[k]}
                    for k, (v, u) in metrics.items()},
    })

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        names = sorted({sp[0] for sp in tracer.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": [(index[sp[0]],) + tuple(sp[1:]) for sp in tracer.spans]},
                      fh, separators=(",", ":"))

    env = report["environment"]
    print(f"# {args.workload} seed={args.seed} pool={len(items)} ops={attempted} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"blas={env['blas']['name']} commit={env['commit'][:12]}")
    print(f"# inputs {json.dumps(report['inputs'])}")
    print(f"# fail_ratio {failed / attempted:.6g} ({failed}/{attempted} ops) causes={causes} "
          f"known_defects={defects} unexplained={unexplained} one_shot_ok={one_shot_ok}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:6s} n={samples[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": hard,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
