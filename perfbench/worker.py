"""One benchmark process: set up a workload from its seed, run its job list
in a closed loop (each job starts when the previous one returns) for a
given time, then check every output.

Usage (from the checkout root, with ``src`` on PYTHONPATH; ``run.py``
launches it): ``python3 perfbench/worker.py '<json config>'``.  The config
holds ``workload``, ``seed``, ``seconds`` and ``trace``; the result is one
JSON line on stdout.  With ``trace`` the first half of the time runs
untraced and the second half under the tracer.
"""
import time

START = time.perf_counter()

import io                                   # noqa: E402
import json                                 # noqa: E402
import random                               # noqa: E402
import resource                             # noqa: E402
import sys                                  # noqa: E402
from contextlib import redirect_stdout      # noqa: E402
from pathlib import Path                    # noqa: E402

import hmi.cli                              # noqa: E402

import clijobs                              # noqa: E402
import oracles                              # noqa: E402
import workloads                            # noqa: E402
from tracer import Tracer                   # noqa: E402


def cli_jobs(seed):
    """The CLI job list run in process through ``hmi.cli.main``."""
    goldens = json.loads(clijobs.GOLDENS.read_text())
    workdir = Path(".perfbench") / f"cli-inproc-{seed}"
    out = []
    for key, argv in clijobs.jobs(seed, workdir):
        def run(argv=argv):
            buf = io.StringIO()
            with redirect_stdout(buf):
                try:
                    code = hmi.cli.main(argv)
                except SystemExit as exc:   # argparse and network-duality
                    code = exc.code
            return code, buf.getvalue()
        out.append(workloads.Job(key, run, lambda res: res,
                                 workloads.same((0, goldens[key]))))
    return out


def run_pass(jobs, tally, tracer):
    tally.batches = tally.points = 0
    results, latencies = [], []
    began = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer:
            tracer.job = index
        t0 = time.perf_counter()
        try:
            out, error = job.run(), None
        except Exception as exc:            # a failed job is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        results.append((out, error))
    wall = time.perf_counter() - began
    return wall, latencies, results


def view_of(job, out, error):
    if error is not None:
        return ("error", error)
    try:
        return ("ok", job.view(out))
    except Exception as exc:
        return ("error", f"view {type(exc).__name__}: {exc}")


def warm_cli():
    with redirect_stdout(io.StringIO()):
        hmi.cli.main(["partitions", "--k", "1,1"])


def main():
    cfg = json.loads(sys.argv[1])
    name, seed = cfg["workload"], cfg["seed"]
    tally = workloads.DensityTally()
    if name == "cli":
        jobs, warm = cli_jobs(seed), warm_cli
    else:
        build, warm = workloads.BUILDERS[name]
        jobs = build(random.Random(f"{name}/{seed}"), tally)
    warm()
    setup_s = time.perf_counter() - START

    deadline = time.perf_counter() + cfg["seconds"]
    tracer = Tracer(tally, workloads.counting) if cfg["trace"] else None
    phases = [(False, deadline)]
    if tracer:
        phases = [(False, deadline - cfg["seconds"] / 2), (True, deadline)]
    passes, mismatches, first_views, layers, spans = [], [], None, [], None
    for traced, until in phases:
        if traced:
            tracer.install()
        while True:
            if traced:
                tracer.reset()
            wall, lat, results = run_pass(jobs, tally,
                                          tracer if traced else None)
            if traced:
                layers.append(tracer.pass_stats(oracles.faces_count))
                spans = spans or tracer.spans
            if first_views is None:
                first_views = [view_of(j, *r) for j, r in zip(jobs, results)]
                mismatches.append(set())
                # read once every job has run and holds its output, before
                # later passes (whose outputs sit beside the first pass's
                # views) and before the checks import networkx
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            else:
                mismatches.append({i for i, (j, r) in
                                   enumerate(zip(jobs, results))
                                   if view_of(j, *r) != first_views[i]})
            passes.append({"lat": lat, "traced": traced})
            results = None
            if time.perf_counter() + wall / 2 >= until:
                break
    if tracer:
        tracer.uninstall()
        Path(".perfbench").mkdir(exist_ok=True)
        Path(f".perfbench/spans-{name}-{seed}.json").write_text(
            json.dumps({"fields": ["job", "layer", "function", "start",
                                   "end", "parent"], "spans": spans}))

    # checks run after the timed passes, on the first pass's outputs; every
    # later pass had to reproduce those outputs exactly
    bad = set()
    for i, (job, (status, view)) in enumerate(zip(jobs, first_views)):
        try:
            ok = status == "ok" and bool(job.check(view))
        except Exception:               # a crashing check is a failed job
            ok = False
        if not ok:
            bad.add(i)
    failed = [m | bad for m in mismatches]
    print(json.dumps({
        "setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "passes": passes,
        "attempted": len(jobs) * len(passes),
        "failed": sum(len(f) for f in failed),
        "failed_jobs": sorted({jobs[i].name for f in failed for i in f})[:20],
        "errors": [v for s, v in first_views if s == "error"][:5],
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
