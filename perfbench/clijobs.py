"""Fixtures for the command-line jobs: small seeded inputs per subcommand
and output format, drawn from a fixed pool of instances whose expected
stdout is stored in ``cli_goldens.json``.

The seed chooses which two pool instances each (subcommand, format) pair
uses, so every seed runs all 27 subcommands in both formats on known
inputs.  This module does not import ``hmi``: ``run.py`` uses it to launch
``python -m hmi.cli``, and the worker to call ``hmi.cli.main`` in process.

Regenerate the goldens (only when the CLI output is meant to change) from
the repository root with ``python3 perfbench/clijobs.py --record``.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import oracles

POOL = 16
FORMATS = ("text", "json")
GOLDENS = Path(__file__).resolve().parent / "cli_goldens.json"


def _complex(rng, p, n, lo, hi):
    return {"p": p, "facets": [sorted(rng.sample(range(1, p + 1),
                                                 rng.randint(lo, hi)))
                               for _ in range(n)]}


def _chain(rng, p):
    lab = rng.sample(range(1, p + 1), p)
    return {"p": p, "facets": [sorted(lab[i:i + 3]) for i in range(p - 2)]}


def _nonfaces(cx):
    """Minimal non-faces by subset search (p is small here)."""
    facets = [frozenset(f) for f in cx["facets"]]
    out = []
    for size in range(1, cx["p"] + 1):
        for sub in combinations(range(1, cx["p"] + 1), size):
            s = frozenset(sub)
            if not oracles.is_face(facets, s) and \
                    not any(g <= s for g in out):
                out.append(s)
    return [sorted(g) for g in out]


def _network(rng):
    n = rng.randint(4, 5)
    pairs = [(v, rng.randint(1, v - 1)) for v in range(2, n + 1)]
    while len(pairs) < n + 2:
        pairs.append(tuple(rng.sample(range(1, n + 1), 2)))
    return {"nodes": list(range(1, n + 1)),
            "edges": [{"id": e + 1, "u": u, "v": v}
                      for e, (u, v) in enumerate(pairs)],
            "input": 1, "output": n}


def _frac(rng, lo, hi, den):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _poly(rng, p):
    terms = []
    for _ in range(rng.randint(2, 4)):
        exp = [rng.choice((0, 0, 1, 2)) for _ in range(p)]
        factors = [str(_frac(rng, 1, 5, 3))]
        factors += [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                    for i, e in enumerate(exp) if e]
        terms.append("*".join(factors))
    return " - ".join(terms)


def _precision(rng, p):
    lam = [[0.0] * p for _ in range(p)]
    for i in range(p):
        for j in range(i):
            if rng.random() < 0.6:
                lam[i][j] = lam[j][i] = rng.choice((-0.5, -0.25, 0.25, 0.5))
        lam[i][i] = 2.0
    return lam


def _density(rng, p):
    kind = rng.choice(("gaussian", "mec", "product"))
    if kind == "gaussian":
        return {"family": "gaussian", "mean": [0.0] * p,
                "precision": _precision(rng, p)}
    if kind == "product":
        return {"family": "product",
                "means": [rng.choice((0.0, 0.5)) for _ in range(p)],
                "variances": [rng.choice((1.0, 2.0)) for _ in range(p)]}
    return {"family": "mec", "p": p,
            "coeffs": {"".join(map(str, s)): str(_frac(rng, -3, 3, 4))
                       for s in oracles.sub_indices((1,) * p) if any(s)}}


def _multiindex(k):
    return ",".join(map(str, k))


def _xi(rng, p):
    return ",".join(str(rng.choice((-0.5, 0.0, 0.25, 0.5))) for _ in range(p))


def instance(cmd, i):
    """(files, args) for pool instance i of a subcommand; file names in
    args are relative to the directory the files are written to."""
    rng = random.Random(f"cli/{cmd}/{i}")
    if cmd in ("sr", "dual", "decompose"):
        return {"c.json": _complex(rng, 6, rng.randint(2, 4), 2, 4)}, \
            ["--complex", "c.json"]
    if cmd == "factorize":
        return {"c.json": _chain(rng, rng.randint(4, 7))}, \
            ["--complex", "c.json"]
    if cmd == "marginalize":
        cx = _chain(rng, rng.randint(4, 7))
        end = [v for v in cx["facets"][0] if not any(
            v in f for f in cx["facets"][1:])][0]
        if i % 2:
            return {"c.json": cx}, ["--complex", "c.json", "--strip",
                                    str(end)]
        return {"i.json": {"p": cx["p"], "generators": _nonfaces(cx)}}, \
            ["--ideal", "i.json", "--strip", str(end)]
    if cmd == "complex-of":
        gens = [sorted(rng.sample(range(1, 7), rng.randint(2, 3)))
                for _ in range(rng.randint(1, 4))]
        return {"i.json": {"p": 6, "generators": gens}}, ["--ideal", "i.json"]
    if cmd == "linear-resolution":
        pairs = [list(e) for e in combinations(range(1, 7), 2)
                 if rng.random() < 0.4] or [[1, 2]]
        return {"i.json": {"p": 6, "generators": pairs}}, ["--ideal", "i.json"]
    if cmd == "ferrer":
        r, c = rng.randint(2, 4), rng.randint(2, 4)
        lengths = sorted((rng.randint(1, c) for _ in range(r)), reverse=True)
        lengths[0] = c
        lab = rng.sample(range(1, r + c + 1), r + c)
        pairs = {(lab[a], lab[r + b]) for a in range(r)
                 for b in range(lengths[a])}
        if i % 3 == 0:
            pairs ^= {(lab[r - 1], lab[r + c - 1])}
        return {"i.json": {"p": r + c, "generators": sorted(
            sorted(e) for e in pairs)}}, ["--ideal", "i.json"]
    if cmd.startswith("network-"):
        return {"n.json": _network(rng)}, ["--network", "n.json"]
    if cmd == "nerve":
        pts = "\n".join(f"{rng.uniform(0, 2):.3f},{rng.uniform(0, 2):.3f}"
                        for _ in range(rng.randint(4, 6)))
        if i % 2:
            return {"p.csv": pts}, ["--points", "p.csv", "--radius", "0.6"]
        return {"p.csv": pts}, ["--points", "p.csv", "--filtration",
                                "0.3,0.6,0.9"]
    if cmd in ("partitions", "chain-rule"):
        return {}, ["--k", rng.choice(("2,1", "1,1,1", "2,2", "3,1",
                                       "1,2,1", "1,1,1,1"))]
    if cmd == "collapse":
        blocks = rng.choice(("1,0,1|0,0,1", "1,1|1,0|0,1", "2,1|1,0",
                             "1,1,0|0,1,1|1,0,0", "1|1|1"))
        return {}, ["--partition", blocks]
    if cmd == "cumulant-from-moments":
        p = rng.randint(2, 3)
        k = tuple(rng.randint(0, 2) for _ in range(p))
        k = k if sum(k) >= 2 else (1, 1) + k[2:]
        mean = [_frac(rng, -2, 2, 3) for _ in range(p)]
        cov = [[Fraction(0)] * p for _ in range(p)]
        for a in range(p):
            cov[a][a] = _frac(rng, 1, 4, 2)
            for b in range(a):
                cov[a][b] = cov[b][a] = _frac(rng, -1, 1, 3)
        table = oracles.gaussian_moment_table(mean, cov, k)
        return {"m.json": {_multiindex(nu): str(v)
                           for nu, v in table.items()}}, \
            ["--k", _multiindex(k), "--moments", "m.json"]
    if cmd in ("parse-poly", "check-model", "artinian"):
        args = ["--poly", _poly(rng, 3), "--p", "3"]
        if cmd == "check-model":
            return {"c.json": _complex(rng, 3, 2, 1, 3)}, \
                args + ["--complex", "c.json"]
        if cmd == "artinian":
            args += ["--n", _multiindex(rng.randint(1, 3) for _ in range(3))]
        return {}, args
    if cmd == "gaussian-ideal":
        return {"g.json": {"mean": [0] * 4,
                           "precision": _precision(rng, 4)}}, \
            ["--gaussian", "g.json"]
    if cmd == "mec":
        spec = _density(rng, 3)
        while spec["family"] != "mec":
            spec = _density(rng, 3)
        return {"s.json": spec}, ["--spec", "s.json"]
    if cmd in ("local-moment", "diff-moment", "diff-cumulant"):
        p = 2
        args = ["--density", "d.json", f"--xi={_xi(rng, p)}",
                "--k", _multiindex(rng.randint(0, 2) for _ in range(p))]
        if cmd == "local-moment":
            args += ["--eps", "0.2", "--nodes", "8"]
        if cmd == "diff-cumulant":
            args[-1] = "1,1"
            args += ["--method", ("partition", "logderiv")[i % 2]]
        return {"d.json": _density(rng, p)}, args
    if cmd == "limit-probe":
        return {"d.json": {"family": "gaussian", "mean": [0.0, 0.0],
                           "precision": _precision(rng, 2)}}, \
            ["--density", "d.json", f"--xi={_xi(rng, 2)}", "--k", "1,1",
             "--eps-seq", "0.4,0.2,0.1", "--nodes", "8"]
    if cmd == "ci-generators":
        p = rng.randint(3, 5)
        lab = rng.sample(range(1, p + 1), p)
        cut = sorted(rng.sample(range(1, p), 2))
        return {}, ["--p", str(p), "--i", _multiindex(sorted(lab[:1])),
                    "--j", _multiindex(sorted(lab[1:cut[1]])),
                    "--given", _multiindex(sorted(lab[cut[1]:]))]
    raise ValueError(cmd)


COMMANDS = ("sr", "complex-of", "dual", "decompose", "factorize",
            "marginalize", "linear-resolution", "ferrer", "network-cuts",
            "network-paths", "network-ideals", "network-duality", "nerve",
            "partitions", "collapse", "cumulant-from-moments", "chain-rule",
            "parse-poly", "check-model", "artinian", "gaussian-ideal", "mec",
            "local-moment", "diff-moment", "diff-cumulant", "limit-probe",
            "ci-generators")


def write_instance(cmd, i, workdir):
    """Write the instance's files under workdir; return the CLI argv."""
    files, args = instance(cmd, i)
    names = {}
    for name, content in files.items():
        path = Path(workdir) / f"{cmd}-{i}-{name}"
        path.write_text(content if isinstance(content, str)
                        else json.dumps(content))
        names[name] = str(path)
    return [cmd] + [names.get(a, a) for a in args]


def jobs(seed, workdir):
    """[(golden key, argv)]: every subcommand in both formats on two pool
    instances each, 108 jobs."""
    rng = random.Random(f"cli-jobs/{seed}")
    Path(workdir).mkdir(parents=True, exist_ok=True)
    out = []
    for cmd in COMMANDS:
        for fmt in FORMATS:
            for i in rng.sample(range(POOL), 2):
                out.append((f"{cmd}|{fmt}|{i}", write_instance(cmd, i, workdir)
                            + ["--format", fmt]))
    return out


def child_env(root):
    env = dict(os.environ)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def record(root):
    """Run every pool instance through the CLI and store its stdout."""
    workdir = Path(root) / ".perfbench" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    goldens = {}
    for cmd in COMMANDS:
        for i in range(POOL):
            argv = write_instance(cmd, i, workdir)
            for fmt in FORMATS:
                res = subprocess.run(
                    [sys.executable, "-m", "hmi.cli", *argv, "--format", fmt],
                    capture_output=True, text=True, env=env, cwd=root)
                if res.returncode or res.stderr:
                    raise SystemExit(f"{cmd} {i} {fmt}: exit "
                                     f"{res.returncode}: {res.stderr}")
                goldens[f"{cmd}|{fmt}|{i}"] = res.stdout
    GOLDENS.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/clijobs.py --record")
    record(Path.cwd())
