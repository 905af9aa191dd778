#!/usr/bin/env python3
"""Seeded benchmark for the ``hmi`` package in the current checkout.

Run from the checkout root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Workloads (see BENCHMARK.json and perfbench/NOTES.md for why each exists)
run their job lists in worker processes that import ``hmi`` from ``src``.
Load is one closed-loop client: each job starts when the previous one ends.
The ``hmi`` command line is measured in every traced run: interpreter start,
``import hmi.cli``, real ``python -m hmi.cli`` launches and in-process
``main`` calls over all 27 subcommands, with stdout checked against goldens.

With ``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
the per-layer ones.  Human-readable lines (each metric with its unit and
sample count, and the Python/numpy versions and CPU count) come first; the
last line of stdout is the JSON result.  A failed set-up exits non-zero
without a result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import clijobs
from tracer import COUNTS, LAYERS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact-algebra", "cumulants", "nerve-filtration")
SETUPS = 3          # set-ups per untraced run
CLI_SECONDS = 5     # of a traced run, for in-process ``hmi.cli.main`` calls
LAUNCH_EVERY = 9    # launch every 9th of the 108 CLI jobs as a subprocess
STARTUP_PROBES = 5
WORKER_TIMEOUT = 150


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def run_worker(root, env, cfg):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=root, env=env, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def launch(root, env, argv):
    """Run ``python -m hmi.cli argv``; (seconds, exit code, stdout, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hmi.cli", *argv], cwd=root,
                          env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT)
    return (time.perf_counter() - t0, proc.returncode, proc.stdout,
            proc.stderr)


def startup_ms(root, env, code):
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                       check=True, timeout=WORKER_TIMEOUT)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def in_process(root, env, workload, seed, seconds):
    """SETUPS worker processes, one after another, each setting up from
    scratch and running passes for its share of the time."""
    runs = [run_worker(root, env, {"workload": workload, "seed": seed,
                                   "seconds": seconds / SETUPS, "trace": 0})
            for _ in range(SETUPS)]
    return {"setup_s": [r["setup_s"] for r in runs],
            "passes": [p["lat"] for r in runs for p in r["passes"]],
            "peak": [r["peak_rss_mb"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failed_jobs": sorted({j for r in runs for j in r["failed_jobs"]}),
            "errors": [e for r in runs for e in r["errors"]][:5]}


def end_to_end(res):
    """Every pass runs the same job list.  A job's latency is its fastest
    pass, and set-up time the fastest of the run's set-ups: other tenants
    of the machine only ever add time, and on a shared host they move a
    median by more than the bounds allow.  wall_s is the job list's time at
    those latencies."""
    best = [min(runs) for runs in zip(*res["passes"])]
    best_ms = [x * 1e3 for x in best]
    n = len(best)
    return {
        "setup_s": (min(res["setup_s"]), "s", len(res["setup_s"])),
        "wall_s": (sum(best), "s", len(res["passes"])),
        "call_p50_ms": (statistics.median(best_ms), "ms", n),
        "call_p90_ms": (p90(best_ms), "ms", n),
        "peak_rss_mb": (max(res["peak"]), "MB", len(res["peak"])),
        "ok_ratio": (1 - res["failed"] / res["attempted"], "ratio",
                     res["attempted"]),
    }


def cli_launches(root, env, seed):
    """Real ``python -m hmi.cli`` launches of every LAUNCH_EVERY-th CLI job;
    (milliseconds each, failed launches)."""
    goldens = json.loads(clijobs.GOLDENS.read_text())
    workdir = root / ".perfbench" / f"cli-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    times, failed = [], 0
    for key, argv in clijobs.jobs(seed, workdir)[::LAUNCH_EVERY]:
        took, code, out, err = launch(root, env, argv)
        times.append(took * 1e3)
        failed += bool(code != 0 or err or out != goldens[key])
    return times, failed


def per_layer(root, env, workload, seed, seconds):
    """One traced worker for the workload: its untraced first half gives
    the baseline for the tracing overhead, its traced second half the layer
    numbers.  A second traced worker runs the CLI job list through
    ``hmi.cli.main`` for the cli layer.  Times are fastest passes, as in
    ``end_to_end``."""
    res = run_worker(root, env, {"workload": workload, "seed": seed,
                                 "seconds": seconds - CLI_SECONDS,
                                 "trace": 1})
    cli = run_worker(root, env, {"workload": "cli", "seed": seed,
                                 "seconds": CLI_SECONDS, "trace": 1})
    launches, launch_failed = cli_launches(root, env, seed)
    layers = res["layers"]
    passes = {t: [p["lat"] for p in res["passes"] if p["traced"] == t]
              for t in (False, True)}
    best = {t: [min(runs) for runs in zip(*passes[t])] for t in passes}
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = (float(min(p[f"{layer}.busy_s"]
                                                for p in layers)), "s",
                                      len(layers))
        metrics[f"{layer}.calls"] = (layers[0][f"{layer}.calls"], "count", 1)
    for name in COUNTS:
        metrics[name] = (layers[0][name], "count", 1)
    metrics["cli.interp_ms"] = (startup_ms(root, env, "pass"), "ms",
                                STARTUP_PROBES)
    metrics["cli.import_ms"] = (startup_ms(root, env, "import hmi.cli"), "ms",
                                STARTUP_PROBES)
    cli_best = [min(runs) for runs in zip(*[p["lat"] for p in cli["passes"]
                                            if not p["traced"]])]
    metrics["cli.main_ms"] = (statistics.median(cli_best) * 1e3, "ms",
                              len(cli_best))
    metrics["cli.launch_ms"] = (statistics.median(launches), "ms",
                                len(launches))
    metrics["cli.busy_s"] = (float(min(p["cli.busy_s"]
                                       for p in cli["layers"])), "s",
                             len(cli["layers"]))
    metrics["cli.calls"] = (cli["layers"][0]["cli.calls"], "count", 1)
    metrics["trace.overhead_s"] = (sum(best[True]) - sum(best[False]), "s",
                                   len(res["passes"]))
    repeat = all(p[k] == layers[0][k] for p in layers for k in COUNTS)
    res = res | {"attempted": res["attempted"] + cli["attempted"]
                 + len(launches),
                 "failed": res["failed"] + cli["failed"] + launch_failed,
                 "failed_jobs": res["failed_jobs"] + cli["failed_jobs"]}
    return metrics, res, repeat


def environment():
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"), "nproc": os.cpu_count()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hmi" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/hmi",
              file=sys.stderr)
        return 2
    env = clijobs.child_env(root)
    try:
        if args.trace:
            metrics, res, repeat = per_layer(root, env, args.workload,
                                             args.seed, args.seconds)
        else:
            res = in_process(root, env, args.workload, args.seed,
                             args.seconds)
            metrics = end_to_end(res)
    except (RuntimeError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = environment()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit, samples) in metrics.items():
        print(f"# {name:28s} {value:14.6g} {unit:6s} n={samples}")
    if args.trace:
        print(f"# counts repeat exactly across traced passes: {repeat}")
    if res["failed"]:
        print(f"# failed jobs: {res['failed_jobs']} {res.get('errors', '')}")
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u, _) in metrics.items()}}
    out = root / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(result | {"env": info, "samples": {
            k: n for k, (_, _, n) in metrics.items()}}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
