"""Command line surface: every subcommand, both output formats, exit codes
and deterministic reruns."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hmi import network, partitions
from hmi.cli import main

from oracles import (density_log_poly, exact_derivative_ratio,
                     exact_differential_cumulant)


CHAIN = {"p": 5, "facets": [[1, 2, 3], [2, 3, 4], [3, 4, 5]]}
BRIDGE = {"nodes": [1, 2, 3, 4],
          "edges": [{"id": 1, "u": 1, "v": 2}, {"id": 2, "u": 2, "v": 4},
                    {"id": 3, "u": 2, "v": 3}, {"id": 4, "u": 1, "v": 3},
                    {"id": 5, "u": 3, "v": 4}],
          "input": 1, "output": 4}
GAUSS = {"family": "gaussian", "mean": [0.0, 0.0],
         "precision": [[4 / 3, -2 / 3], [-2 / 3, 4 / 3]]}
# exp(800 x1) overflows on every stencil and grid near (1, 1)
MEC_OVERFLOW = {"family": "mec", "p": 2, "coeffs": {"10": 800}}
MEC_705 = {"family": "mec", "p": 2, "coeffs": {"10": 705}}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj) if not isinstance(obj, str)
                        else obj)
        return str(path)
    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sr_and_complex_of(files, capsys):
    chain = files("chain.json", CHAIN)
    code, out, _ = run(capsys, ["sr", "--complex", chain])
    assert code == 0 and out.strip() == "x1*x4, x1*x5, x2*x5"
    code, out, _ = run(capsys, ["sr", "--complex", chain, "--format",
                                "json"])
    assert json.loads(out) == {"p": 5,
                               "generators": [[1, 4], [1, 5], [2, 5]]}
    ideal = files("ideal.json", {"p": 5,
                                 "generators": [[1, 4], [1, 5], [2, 5]]})
    code, out, _ = run(capsys, ["complex-of", "--ideal", ideal])
    assert code == 0 and out.strip() == "{1,2,3}, {2,3,4}, {3,4,5}"


def test_dual_decompose_factorize_marginalize(files, capsys):
    chain = files("chain.json", CHAIN)
    code, out, _ = run(capsys, ["dual", "--complex", chain])
    assert code == 0
    code, out, _ = run(capsys, ["decompose", "--complex", chain])
    assert out.strip() == "decomposable"
    cycle = files("cycle.json",
                  {"p": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    code, out, _ = run(capsys, ["decompose", "--complex", cycle])
    assert (code, out) == (0, "not decomposable (witness: [1, 2, 3, 4])\n")
    code, out, _ = run(capsys, ["factorize", "--complex", chain])
    assert out.strip() == "f{123} f{234} f{345} / f{23} f{34}"
    code, out, _ = run(capsys, ["marginalize", "--complex", chain,
                                "--strip", "1"])
    assert out.strip() == "{2,3,4}, {3,4,5}"
    ideal = files("ideal.json", {"p": 5,
                                 "generators": [[1, 4], [1, 5], [2, 5]]})
    code, out, _ = run(capsys, ["marginalize", "--ideal", ideal,
                                "--strip", "1"])
    assert out.strip() == "x2*x5"
    code, _, err = run(capsys, ["marginalize", "--strip", "1"])
    assert code == 1 and "error:" in err


def test_factorize_string_labels(files, capsys):
    # labels that are not integers print comma-separated; vertex c lies in
    # no face of the first complex, so it gets no factor there
    for facets, text in (([["a", "b"]], "f{a,b}"),
                         ([["a", "b"], ["c"]], "f{a,b} f{c}")):
        labelled = files("abc.json", {"p": 3, "facets": facets,
                                      "labels": ["a", "b", "c"]})
        code, out, err = run(capsys, ["factorize", "--complex", labelled])
        assert (code, out.strip(), err) == (0, text, "")


def test_linear_resolution_and_ferrer(files, capsys):
    ideal = files("i.json", {"p": 5, "generators": [[1, 4], [1, 5], [2, 5]]})
    code, out, _ = run(capsys, ["linear-resolution", "--ideal", ideal])
    assert out.strip() == "2-linear: true"
    nine = files("nine.json", {"p": 9, "generators": [
        [1, 6], [1, 7], [1, 8], [2, 6], [2, 7], [3, 6], [3, 7], [4, 6],
        [5, 6]]})
    code, out, _ = run(capsys, ["ferrer", "--ideal", nine])
    assert "lambda: 3,2,2,1,1" in out
    assert "{1,2,3,4,5,9}" in out and "{6,7,8,9}" in out


@pytest.mark.parametrize("fmt, ferrer, model", [
    ("text", "not Ferrer\n", "hierarchical\n"),
    ("json", '{"ferrer": false}\n', '{"hierarchical": true}\n')])
def test_not_ferrer_and_hierarchical_outputs(files, capsys, fmt, ferrer,
                                             model):
    # two disjoint edges are no Ferrers graph; every term of x1*x2 - x1
    # has its support in the face {1,2}
    two_edges = files("i.json", {"p": 4, "generators": [[1, 2], [3, 4]]})
    assert run(capsys, ["ferrer", "--ideal", two_edges, "--format",
                        fmt]) == (0, ferrer, "")
    edge = files("c.json", {"p": 2, "facets": [[1, 2]]})
    assert run(capsys, ["check-model", "--poly", "x1*x2 - x1", "--p", "2",
                        "--complex", edge, "--format", fmt]) == (0, model, "")


def test_network_commands(files, capsys):
    net = files("net.json", BRIDGE)
    code, out, _ = run(capsys, ["network-cuts", "--network", net])
    assert out.strip() == "{1,4}, {2,5}, {1,3,5}, {2,3,4}"
    code, out, _ = run(capsys, ["network-paths", "--network", net])
    assert out.strip() == "{1,2}, {4,5}, {1,3,5}, {2,3,4}"
    code, out, _ = run(capsys, ["network-ideals", "--network", net])
    assert "cut ideal: x1*x4, x2*x5, x1*x3*x5, x2*x3*x4" in out
    assert "path ideal: x1*x2, x4*x5, x1*x3*x5, x2*x3*x4" in out
    code, out, _ = run(capsys, ["network-duality", "--network", net])
    assert code == 0 and out.count("PASS") == 4


def test_network_duality_failure_exits_one(files, capsys, monkeypatch):
    monkeypatch.setattr(network, "verify_cut_path_duality",
                        lambda G: network.DualityReport(True, True, False,
                                                        True))
    with pytest.raises(SystemExit) as exc:
        main(["network-duality", "--network", files("net.json", BRIDGE)])
    assert exc.value.code == 1
    out = capsys.readouterr().out
    assert out.splitlines()[2] == "alexander dual of cuts is paths: FAIL"
    assert out.count("PASS") == 3


def test_nerve_command(files, capsys):
    pts = files("pts.csv", "0\n1\n3\n")
    code, out, _ = run(capsys, ["nerve", "--points", pts,
                                "--filtration", "0.4,0.6,1.1,1.6"])
    lines = out.strip().splitlines()
    assert lines[0] == "r=0.4: {1}, {2}, {3} decomposable=true"
    assert lines[3] == "r=1.6: {1,2,3} decomposable=true"
    code, out, _ = run(capsys, ["nerve", "--points", pts,
                                "--radius", "1.1"])
    assert out.strip() == "{1,2}, {2,3}"
    code, _, err = run(capsys, ["nerve", "--points", pts])
    assert code == 1 and "radius" in err


def test_partition_commands(files, capsys):
    code, out, _ = run(capsys, ["partitions", "--k", "2,2"])
    assert code == 0 and len(out.strip().splitlines()) == 9
    code, out, _ = run(capsys, ["collapse", "--partition",
                                "1,0,1|0,0,1"])
    assert out.strip() == "2"
    # binomials, not a factorial table up to the largest entry
    code, out, _ = run(capsys, ["collapse", "--partition", "1000000000|1"])
    assert code == 0 and out == "1000000001\n"
    code, out, _ = run(capsys, ["chain-rule", "--k", "1,0,2"])
    assert "c=2 outer=2 inner=1,0,1;0,0,1" in out
    moments = files("m.json", {"1,0,2": "7/3", "1,0,1": "5/2",
                               "1,0,0": "-1/4", "0,0,2": "11/5",
                               "0,0,1": "2/7"})
    code, out, _ = run(capsys, ["cumulant-from-moments", "--k", "1,0,2",
                                "--moments", moments])
    from fractions import Fraction
    want = (Fraction(7, 3) - Fraction(-1, 4) * Fraction(11, 5)
            - 2 * Fraction(5, 2) * Fraction(2, 7)
            + 2 * Fraction(-1, 4) * Fraction(2, 7) ** 2)
    assert out.strip() == str(want)


def test_polynomial_commands(files, capsys):
    code, out, _ = run(capsys, ["parse-poly", "--poly",
                                "x1*x2 - 1/2*x1^2", "--p", "2"])
    assert out.strip() == "-1/2*x1^2 + x1*x2"
    chain = files("chain2.json", {"p": 2, "facets": [[1], [2]]})
    code, out, _ = run(capsys, ["check-model", "--poly", "x1*x2",
                                "--p", "2", "--complex", chain])
    assert code == 0 and out.startswith("not hierarchical")
    code, out, _ = run(capsys, ["artinian", "--poly", "x1^2*x2",
                                "--p", "2", "--n", "3,2"])
    assert out.strip() == "true"
    gauss = files("g.json", {"mean": [0, 0, 0, 0], "precision": [
        [2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]})
    code, out, _ = run(capsys, ["gaussian-ideal", "--gaussian", gauss])
    assert out.strip() == "x1*x3, x1*x4, x2*x4"
    mec = files("mec.json", {"p": 2, "coeffs": {"11": "-1/2", "10": "1"}})
    code, out, _ = run(capsys, ["mec", "--spec", mec])
    assert "g = -1/2*x1*x2 + x1" in out


def test_numeric_commands(files, capsys):
    dens = files("d.json", GAUSS)
    code, out, _ = run(capsys, ["diff-moment", "--density", dens,
                                "--xi", "0,0", "--k", "1,1"])
    assert code == 0 and abs(float(out) - 2 / 3) < 1e-6
    code, out, _ = run(capsys, ["diff-cumulant", "--density", dens,
                                "--xi", "0,0", "--k", "1,1",
                                "--method", "logderiv"])
    assert abs(float(out) - 2 / 3) < 1e-6
    code, out, _ = run(capsys, ["local-moment", "--density", dens,
                                "--xi", "0,0", "--eps", "0.1",
                                "--k", "1,1"])
    ratio = float(out) / (0.1 ** 4 / 9)
    assert abs(ratio - 2 / 3) < 0.05
    code, out, _ = run(capsys, ["limit-probe", "--density", dens,
                                "--xi", "0,0", "--k", "1,1",
                                "--eps-seq", "0.4,0.2,0.1"])
    assert code == 0 and out.strip().endswith("CONVERGED")
    code, out, _ = run(capsys, ["limit-probe", "--density", dens,
                                "--xi", "0.6,-0.4", "--k", "2,0",
                                "--eps-seq", "0.4,0.2,0.1"])
    assert out.strip().endswith("NOT-CONVERGED")


def _clijobs():
    """perfbench/clijobs.py (the benchmark's CLI pool instances) with its
    own ``oracles`` module, which shares its name with the tests' one."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    tests_oracles = sys.modules.pop("oracles", None)
    sys.path.insert(0, perfbench)
    try:
        return importlib.import_module("clijobs")
    finally:
        sys.path.remove(perfbench)
        sys.modules.pop("oracles", None)
        if tests_oracles is not None:
            sys.modules["oracles"] = tests_oracles


CLIJOBS = _clijobs()


@pytest.mark.parametrize("cmd", CLIJOBS.COMMANDS)
def test_numeric_commands_reproduce_every_golden(cmd, capsys, tmp_path):
    # every subcommand on every pool instance in both formats, byte for
    # byte; the benchmark's own check runs only two instances per seed.
    # The name predates the non-numeric subcommands, and ids keep it.
    goldens = json.loads(CLIJOBS.GOLDENS.read_text())
    for i in range(CLIJOBS.POOL):
        argv = CLIJOBS.write_instance(cmd, i, tmp_path)
        for fmt in CLIJOBS.FORMATS:
            got = run(capsys, argv + ["--format", fmt])
            assert got == (0, goldens[f"{cmd}|{fmt}|{i}"], ""), (fmt, i)


@pytest.mark.parametrize("cmd", ["diff-moment", "diff-cumulant",
                                 "limit-probe"])
def test_numeric_commands_match_the_exact_oracle(cmd, capsys, tmp_path):
    # every pool instance's value, or the limit probe's target kappa^xi_k,
    # against the exact one from the density JSON in Fractions
    for i in range(CLIJOBS.POOL):
        files, args = CLIJOBS.instance(cmd, i)
        xi = next(a for a in args if a.startswith("--xi="))[len("--xi="):]
        xi = [float(x) for x in xi.split(",")]
        k = [int(v) for v in args[args.index("--k") + 1].split(",")]
        poly = density_log_poly(files["d.json"])
        exact = float(exact_derivative_ratio(poly, [v % 2 for v in k], xi)
                      if cmd == "diff-moment"
                      else exact_differential_cumulant(poly, k, xi))
        argv = CLIJOBS.write_instance(cmd, i, tmp_path)
        code, out, _ = run(capsys, argv + ["--format", "json"])
        got = json.loads(out)["target" if cmd == "limit-probe" else "value"]
        assert code == 0
        assert abs(got - exact) <= 1e-8 * max(1.0, abs(exact)), (i, got)


def test_ci_generators_command(capsys):
    code, out, _ = run(capsys, ["ci-generators", "--p", "3", "--i", "1",
                                "--j", "2", "--given", "3"])
    assert code == 0 and out.strip() == "1,1,0"


def test_domain_errors_exit_one(files, capsys, tmp_path):
    code, _, err = run(capsys, ["sr", "--complex",
                                str(tmp_path / "missing.json")])
    assert code == 1 and err.startswith("error:")
    bad = files("bad.json", "{not json")
    code, _, err = run(capsys, ["sr", "--complex", bad])
    assert code == 1 and "bad JSON" in err
    void = files("void.json", {"p": 2, "facets": []})
    code, _, err = run(capsys, ["sr", "--complex", void])
    assert code == 1 and "unit ideal" in err


@pytest.mark.parametrize("argv, text", [
    (["nerve", "--points", "missing.csv", "--radius", "0.5"], None),
    (["nerve", "--points", "pts.csv", "--radius", "0.5"], "0,0\n1,x\n"),
    (["nerve", "--points", "pts.csv", "--filtration", "0.4,x"], "0\n1\n"),
    (["nerve", "--points", "p.csv", "--radius", "0.7", "--filtration", "0.5"],
     "0,0\n1,0\n"),
    (["nerve", "--points", "p.csv"], "0,0\n1,0\n"),
    (["parse-poly", "--p", "2", "--poly-file", "missing.txt"], None),
    (["marginalize", "--complex", "c.json", "--strip", "a"],
     json.dumps(CHAIN)),
    (["ci-generators", "--p", "3", "--i", "a", "--j", "2"], None),
    (["ci-generators", "--p", "3", "--i", "1", "--j", "2", "--given", "x"],
     None),
    (["ci-generators", "--p", "100000000", "--i", "1", "--j", "2"], None),
    (["diff-moment", "--density", "g.json", "--xi", "0,0", "--k", "1,1"],
     json.dumps({"family": "gaussian", "mean": [0.0, 0.0]})),
    (["diff-moment", "--density", "g.json", "--xi", "0,0", "--k", "1,1"],
     json.dumps({"family": "product", "means": [0.0, 0.0]})),
    (["cumulant-from-moments", "--k", "1", "--moments", "m.json"],
     json.dumps([["1", 1]])),
    (["collapse", "--partition", "1,0|1"], None),
    (["sr", "--complex", "c.json"],
     json.dumps({"p": 3, "facets": [[1, 2]], "labels": [1, 1, 2]})),
    (["complex-of", "--ideal", "i.json"],
     json.dumps({"p": 2, "generators": [[3]], "labels": [3, 3]})),
    (["sr", "--complex", "c.json"], json.dumps({"p": 2, "facets": [1, 2]})),
    (["complex-of", "--ideal", "i.json"],
     json.dumps({"p": 2, "generators": [1, 2]})),
    (["gaussian-ideal", "--gaussian", "g.json"],
     json.dumps({"mean": [0, "a"], "precision": [[1, 0], [0, 1]]})),
    (["gaussian-ideal", "--gaussian", "g.json"],
     json.dumps({"mean": [0, 0], "precision": [[1, "x"], ["x", 1]]})),
    (["sr", "--complex", "c.json"],
     json.dumps({"p": 2.7, "facets": [[1, 2]]})),
    (["sr", "--complex", "c.json"],
     json.dumps({"p": "3", "facets": [[1, 2]]})),
    (["sr", "--complex", "c.json"], json.dumps({"p": True, "facets": [[1]]})),
    (["complex-of", "--ideal", "i.json"],
     json.dumps({"p": 2.7, "generators": [[1, 2]]})),
    (["complex-of", "--ideal", "i.json"],
     json.dumps({"p": "3", "generators": [[1, 2]]})),
    (["complex-of", "--ideal", "i.json"],
     json.dumps({"p": True, "generators": [[1]]})),
    (["network-cuts", "--network", "n.json"],
     json.dumps(dict(BRIDGE, edges=[dict(e, id=e["id"] + 0.9)
                                    for e in BRIDGE["edges"]]))),
    (["network-cuts", "--network", "n.json"],
     json.dumps(dict(BRIDGE, input=True))),
    (["mec", "--spec", "s.json"],
     json.dumps({"p": 2.7, "coeffs": {"11": "1/2", "10": "-1"}})),
    (["diff-moment", "--density", "d.json", "--xi", "0", "--k", "1"],
     json.dumps({"family": "mec", "p": True, "coeffs": {"1": "1/2"}})),
    (["mec", "--spec", "s.json"],
     json.dumps({"p": 2, "coeffs": {"11": "abc"}})),
    (["mec", "--spec", "s.json"],
     json.dumps({"p": 2, "coeffs": {"11": "1/0"}})),
    (["mec", "--spec", "s.json"], json.dumps({"p": 2, "coeffs": [11]})),
    (["diff-moment", "--density", "d.json", "--xi", "0", "--k", "1"],
     json.dumps({"family": "mec", "p": 1, "coeffs": {"1": "1e400"}})),
    (["cumulant-from-moments", "--k", "1", "--moments", "m.json"],
     json.dumps({"1": "abc"})),
    (["cumulant-from-moments", "--k", "1", "--moments", "m.json"],
     json.dumps({"1": "1/0"})),
    (["cumulant-from-moments", "--k", "2", "--moments", "m.json"],
     json.dumps({"1": True, "2": 1})),
    (["cumulant-from-moments", "--k", "2", "--moments", "m.json"],
     json.dumps({"1": float("nan"), "2": 1})),
    (["diff-moment", "--density", "d.json", "--xi", "0", "--k", "1"],
     json.dumps({"family": "product", "means": [0], "variances": [True]})),
    (["diff-moment", "--density", "d.json", "--xi", "0", "--k", "1"],
     json.dumps({"family": "product", "means": ["0"], "variances": [1]})),
    (["marginalize", "--complex", "c.json", "--ideal", "i.json", "--strip",
      "1"], (json.dumps(CHAIN),
             json.dumps({"p": 5, "generators": [[1, 4], [1, 5], [2, 5]]}))),
    (["parse-poly", "--p", "2", "--poly", "x1", "--poly-file", "g.txt"],
     "x2"),
    (["check-model", "--p", "2", "--poly", "x1", "--poly-file", "g.txt",
      "--complex", "c.json"],
     ("x2", json.dumps({"p": 2, "facets": [[1, 2]]}))),
    (["artinian", "--p", "2", "--poly", "x1", "--poly-file", "g.txt", "--n",
      "2,2"], "x2"),
    (["complex-of", "--ideal", "i.json"],
     json.dumps({"p": 0, "generators": []})),
    (["complex-of", "--ideal", "i.json"],
     json.dumps({"p": 70, "generators": []})),
    (["parse-poly", "--p", "1", "--poly-file", "g.txt"], "x1 + 1/0"),
    (["nerve", "--points", "pts.csv", "--radius", "inf"],
     "1e308,0\n-1e308,0\n0,1\n"),
    (["diff-moment", "--density", "d.json", "--xi", "0", "--k", "1"],
     json.dumps([{"family": "gaussian", "mean": [0.0],
                  "precision": [[1.0]]}])),
    (["diff-moment", "--density", "d.json", "--xi", "0", "--k", "1"],
     json.dumps({"family": "cauchy", "mean": [0.0], "precision": [[1.0]]})),
    (["diff-cumulant", "--density", "d.json", "--xi", "0,0", "--k", "0,0",
      "--method", "logderiv"],
     json.dumps({"family": "product", "means": [0, 0], "variances": [1, 1]})),
    (["diff-cumulant", "--density", "d.json", "--xi", "0,0", "--k", "2,0",
      "--method", "logderiv"],
     json.dumps({"family": "product", "means": [0, 0], "variances": [1, 1]})),
    (["limit-probe", "--density", "d.json", "--xi=0.1,0.2", "--k", "1,1",
      "--eps-seq", "1e-100,1e-150,1e-200"],
     json.dumps({"family": "gaussian", "mean": [0, 0],
                 "precision": [[1, 0.3], [0.3, 1]]})),
    (["local-moment", "--density", "d.json", "--xi=0,0", "--eps", "0.1",
      "--k", "1,1", "--method", "mc", "--nodes", "0"], json.dumps(GAUSS)),
    (["limit-probe", "--density", "d.json", "--xi=0.1,0.2", "--k", "1,1",
      "--eps-seq", "0.4,0.2,0.1", "--nodes", "0"], json.dumps(GAUSS)),
    (["nerve", "--points", "pts.csv", "--radius", "0"], ""),
    (["diff-moment", "--density", "d.json", "--xi=1,1", "--k", "1,0"],
     json.dumps(MEC_OVERFLOW)),
    (["diff-moment", "--density", "d.json", "--xi=1,1", "--k", "1,1"],
     json.dumps(MEC_OVERFLOW)),
    (["diff-cumulant", "--density", "d.json", "--xi=1,1", "--k", "1,0"],
     json.dumps(MEC_OVERFLOW)),
    (["local-moment", "--density", "d.json", "--xi=1,1", "--eps", "0.1",
      "--k", "1,1"], json.dumps(MEC_OVERFLOW)),
    (["diff-moment", "--density", "d.json", "--xi=0", "--k", "2"],
     json.dumps({"family": "product", "means": [0], "variances": [1e-320]})),
    (["diff-moment", "--density", "d.json", "--xi=1,1", "--k", "1,0"],
     json.dumps(MEC_705)),
    (["diff-cumulant", "--density", "d.json", "--xi=1,1", "--k", "1,0"],
     json.dumps(MEC_705)),
    (["local-moment", "--density", "d.json", "--xi=1.0066,1", "--eps",
      "1e-5", "--k", "1,0"], json.dumps(MEC_705)),
    (["limit-probe", "--density", "d.json", "--xi=1,1", "--k", "1,0",
      "--eps-seq", "0.004,0.002,0.001"], json.dumps(MEC_705)),
], ids=["missing-points", "csv-cell", "filtration-list",
        "radius-and-filtration", "neither-radius-nor-filtration",
        "missing-poly", "strip-list", "ci-list", "given-list", "ci-huge-p",
        "gaussian-keys", "product-keys", "moments-list", "collapse-lengths",
        "complex-duplicate-labels", "ideal-duplicate-labels",
        "facet-not-list", "generator-not-list", "gaussian-mean-string",
        "gaussian-precision-string", "complex-p-float", "complex-p-string",
        "complex-p-bool", "ideal-p-float", "ideal-p-string", "ideal-p-bool",
        "network-id-float", "network-input-bool", "mec-p-float",
        "mec-density-p-bool", "mec-coeff-string", "mec-coeff-zero-division",
        "mec-coeffs-list", "mec-density-overflow", "moment-string",
        "moment-zero-division", "moment-bool", "moment-nan",
        "product-variance-bool", "product-mean-string",
        "complex-and-ideal", "parse-poly-both", "check-model-poly-both",
        "artinian-poly-both", "ideal-p-zero", "ideal-p-70",
        "poly-zero-denominator", "nerve-coordinate-overflow",
        "density-not-object", "density-unknown-family",
        "logderiv-empty-multiset", "logderiv-not-square-free",
        "limit-probe-scale-underflow", "mc-nodes-zero",
        "limit-probe-nodes-zero", "nerve-empty-csv", "mec-overflow-moment",
        "mec-overflow-mixed-moment", "mec-overflow-cumulant",
        "mec-overflow-local", "product-variance-subnormal",
        "mec-nan-moment", "mec-nan-cumulant", "mec-mass-overflow-local",
        "mec-nan-limit-probe"])
def test_bad_input_exits_one_with_one_error_line(argv, text, capsys,
                                                 tmp_path):
    # missing files, non-numeric CSV cells, bad number lists, a CI
    # statement on 10^8 variables naming two (refused from its parts), a
    # nerve asked for both or neither of a radius and a filtration, density
    # files without their parameters, a moment table that is not an object,
    # partition blocks of unequal length, duplicate labels, faces that are
    # not lists, non-numeric Gaussian entries, a vertex count, node or edge
    # id that is not a JSON integer, rationals that are not rationals (or
    # are booleans, nan or out of float range where a float is needed),
    # density parameters that are booleans or strings, two inputs where one
    # belongs, a vertex count outside 1..64, a zero denominator, point
    # coordinates whose squared distances overflow, a density file that is
    # not an object or names no known family, a log-derivative at a k that
    # is not square-free, a limit probe whose r(eps, k) underflows, a node
    # count of 0 (read under Monte Carlo too, where no grid is built), a
    # points CSV with no points, an MEC density whose samples overflow to
    # an infinity, a variance whose reciprocal overflows, an MEC density
    # whose samples are finite but whose differences (a nan estimate, also
    # as a limit probe's target) or window mass overflow (numpy's warnings
    # are errors here, so a warning before the error line fails too);
    # text goes to the first file named, or a tuple of texts to the files
    # in the order named
    files = [a for a in argv if a.endswith((".csv", ".txt", ".json"))]
    for name, body in zip(files, text if isinstance(text, tuple)
                          else (text,)):
        if body is not None:
            (tmp_path / name).write_text(body)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["sr"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


COMMANDS = ("sr", "complex-of", "dual", "decompose", "factorize",
            "marginalize", "linear-resolution", "ferrer", "network-cuts",
            "network-paths", "network-ideals", "network-duality", "nerve",
            "partitions", "collapse", "cumulant-from-moments", "chain-rule",
            "parse-poly", "check-model", "artinian", "gaussian-ideal", "mec",
            "local-moment", "diff-moment", "diff-cumulant", "limit-probe",
            "ci-generators")
USAGE = ("usage: hmi [-h]\n           {" + ",".join(COMMANDS) + "}\n"
         "           ...\n")
HELP = (USAGE + "\nHierarchical models, differential cumulants and "
        "square-free monomial ideals\n\npositional arguments:\n  {"
        + ",".join(COMMANDS) + "}\n\noptions:\n"
        "  -h, --help            show this help message and exit\n")


@pytest.mark.parametrize("argv, code, out, err", [
    (["--help"], 0, HELP, ""),
    ([], 2, "", USAGE + "hmi: error: the following arguments are required: "
     "command\n"),
    (["nosuch"], 2, "", USAGE + "hmi: error: argument command: invalid "
     "choice: 'nosuch' (choose from "
     + ", ".join(f"'{c}'" for c in COMMANDS) + ")\n")],
    ids=["help", "no-command", "unknown-command"])
def test_argparse_texts(argv, code, out, err, capsys, monkeypatch):
    # what argparse prints at 80 columns, byte for byte, as recorded on
    # Python 3.11; it wraps to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


def test_out_of_memory_is_a_refusal():
    # a polynomial on 10^10 variables needs a dense exponent list per term,
    # which a 1 GiB address space cannot hold: exit 1 and one error line,
    # as for a domain error.  Only ever run in a child under that limit
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    res = subprocess.run([sys.executable, "-m", "hmi.cli", "parse-poly",
                          "--p", "10000000000", "--poly", "x1"],
                         capture_output=True, text=True, env=env,
                         preexec_fn=limit, timeout=120)
    assert (res.returncode, res.stdout) == (1, "")
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error:")


def test_out_of_memory_in_a_handler_is_one_error_line(capsys, monkeypatch):
    # the same refusal in process: a library call that runs out of memory
    def exhausted(partition):
        raise MemoryError

    monkeypatch.setattr(partitions, "collapse_number", exhausted)
    assert run(capsys, ["collapse", "--partition", "1|1"]) == \
        (1, "", "error: out of memory\n")


def test_repeated_calls_print_the_same_bytes(files, capsys):
    # main reuses one parser per process: help, a missing or unknown
    # subcommand and a usage error, each between two valid calls, print the
    # same bytes and exit codes on every pass
    chain = files("chain.json", CHAIN)
    valid = ["factorize", "--complex", chain]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    calls = [valid, ["--help"], valid, [], valid, ["no-such-command"], valid,
             ["sr", "--complex", chain, "--format", "xml"], valid]
    first = [outcome(argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 0, 2, 0, 2, 0, 2, 0]
    assert len({first[i] for i in range(0, len(calls), 2)}) == 1
    for _ in range(2):
        assert [outcome(argv) for argv in calls] == first


def test_entry_point_and_determinism(files, tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(CHAIN))
    cmd = [sys.executable, "-m", "hmi.cli", "factorize", "--complex",
           str(chain), "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["separators"] == [[2, 3], [3, 4]]
