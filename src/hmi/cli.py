"""Single ``hmi`` executable exposing every operation over the documented
file formats.  Text output is deterministic and golden-file friendly; JSON
output is stable-key-ordered.  Exit codes: 0 success, 1 domain error or
out of memory, 2 usage error."""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import diffcum, hierarchy, ideal, logdensity, nerve, network
from . import partitions as parts
from . import simplicial
from .errors import DomainError
from .graphs import _label_set_key


def _read_text(path):
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None


def _load_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"bad JSON in {path}: {exc}") from None


def _emit(args, text, obj):
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True, default=str))
    else:
        print(text)


def _fmt_set(s):
    return "{" + ",".join(str(v) for v in sorted(s)) + "}"


def _fmt_facets(S):
    facets = sorted(S.facet_sets(), key=_label_set_key)
    return ", ".join(_fmt_set(f) for f in facets)


def _fmt_ideal(I):
    return ideal.format_generators(I) if I.generators else "<0>"


def _load_density(path):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise DomainError(f"density JSON in {path} must be an object")
    family = obj.get("family")
    if family == "gaussian":
        spec = logdensity.gaussian_spec_from_json(obj)
        return diffcum.gaussian_density(spec.mean, spec.precision)
    if family == "mec":
        spec = logdensity.mec_spec_from_json(obj)
        return diffcum.mec_density(spec.coeffs, spec.p)
    if family == "product":
        try:
            return diffcum.product_gaussian_density(obj["means"],
                                                    obj["variances"])
        except KeyError:
            raise DomainError("product JSON needs 'means' and "
                              "'variances'") from None
    raise DomainError(f"unknown density family {family!r}")


def _floats(text):
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise DomainError(f"not a comma-separated list of numbers: "
                          f"{text!r}") from None


def _ints(text):
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise DomainError(f"not a comma-separated list of integers: "
                          f"{text!r}") from None


# --------------------------------------------------------------------------
# handlers

def cmd_sr(args):
    S = simplicial.complex_from_json(_load_json(args.complex))
    I = ideal.stanley_reisner(S)
    _emit(args, _fmt_ideal(I), ideal.ideal_to_json(I))


def cmd_complex_of(args):
    I = ideal.ideal_from_json(_load_json(args.ideal))
    S = ideal.complex_of(I)
    _emit(args, _fmt_facets(S), simplicial.complex_to_json(S))


def cmd_dual(args):
    S = simplicial.complex_from_json(_load_json(args.complex))
    D = simplicial.alexander_dual(S)
    _emit(args, _fmt_facets(D), simplicial.complex_to_json(D))


def cmd_decompose(args):
    S = simplicial.complex_from_json(_load_json(args.complex))
    witness = hierarchy.decomposability_witness(S)
    if witness is None:
        _emit(args, "decomposable", {"decomposable": True})
    else:
        _emit(args, f"not decomposable (witness: {sorted(witness)})",
              {"decomposable": False, "witness": sorted(witness)})


def cmd_factorize(args):
    S = simplicial.complex_from_json(_load_json(args.complex))
    fact = hierarchy.factorize(S)
    _emit(args, hierarchy.format_factorization(fact), {
        "cliques": [sorted(c) for c in fact.cliques],
        "separators": [sorted(s) for s in fact.separators]})


def cmd_marginalize(args):
    strip = _ints(args.strip)
    if bool(args.complex) == bool(args.ideal):
        raise DomainError("need --complex or --ideal, not both")
    if args.complex:
        S = simplicial.complex_from_json(_load_json(args.complex))
        out = hierarchy.marginalize(S, strip)
        _emit(args, _fmt_facets(out), simplicial.complex_to_json(out))
    else:
        I = ideal.ideal_from_json(_load_json(args.ideal))
        out = hierarchy.ideal_marginalize(I, strip)
        _emit(args, _fmt_ideal(out), ideal.ideal_to_json(out))


def cmd_linear_resolution(args):
    I = ideal.ideal_from_json(_load_json(args.ideal))
    flag = ideal.has_2linear_resolution(I)
    _emit(args, f"2-linear: {'true' if flag else 'false'}",
          {"two_linear": flag})


def cmd_ferrer(args):
    I = ideal.ideal_from_json(_load_json(args.ideal))
    shape = ideal.recognize_ferrer(I)
    if shape is None:
        _emit(args, "not Ferrer", {"ferrer": False})
        return
    cliques, seps = ideal.ferrer_cliques(shape)
    text = ("rows: {}; columns: {}; lambda: {}\ncliques: {}\nseparators: {}"
            .format(",".join(map(str, shape.rows)),
                    ",".join(map(str, shape.cols)),
                    ",".join(map(str, shape.lengths)),
                    ", ".join(_fmt_set(c) for c in cliques),
                    ", ".join(_fmt_set(s) for s in seps) or "none"))
    _emit(args, text, {
        "ferrer": True, "rows": list(shape.rows), "cols": list(shape.cols),
        "lambda": list(shape.lengths),
        "cliques": [sorted(c) for c in cliques],
        "separators": [sorted(s) for s in seps]})


def cmd_network_cuts(args):
    G = network.network_from_json(_load_json(args.network))
    cuts = network.minimal_cuts(G)
    _emit(args, ", ".join(_fmt_set(c) for c in cuts),
          {"cuts": [sorted(c) for c in cuts]})


def cmd_network_paths(args):
    G = network.network_from_json(_load_json(args.network))
    paths = network.minimal_paths(G)
    _emit(args, ", ".join(_fmt_set(c) for c in paths),
          {"paths": [sorted(c) for c in paths]})


def cmd_network_ideals(args):
    G = network.network_from_json(_load_json(args.network))
    ci, pi = network.cut_ideal(G), network.path_ideal(G)
    _emit(args, f"cut ideal: {_fmt_ideal(ci)}\npath ideal: {_fmt_ideal(pi)}",
          {"cut_ideal": ideal.ideal_to_json(ci),
           "path_ideal": ideal.ideal_to_json(pi)})


def cmd_network_duality(args):
    G = network.network_from_json(_load_json(args.network))
    rep = network.verify_cut_path_duality(G)
    checks = {
        "cut facets are path complements":
            rep.cut_facets_are_path_complements,
        "path facets are cut complements":
            rep.path_facets_are_cut_complements,
        "alexander dual of cuts is paths": rep.dual_of_cuts_is_paths,
        "dual involution": rep.involution_holds,
    }
    text = "\n".join(f"{name}: {'PASS' if ok else 'FAIL'}"
                     for name, ok in checks.items())
    _emit(args, text, {k.replace(" ", "_"): v for k, v in checks.items()})
    if not rep.all_pass:
        sys.exit(1)


def cmd_nerve(args):
    cloud = nerve.points_from_csv(_read_text(args.points))
    if (args.radius is None) == (args.filtration is None):
        raise DomainError("need --radius or --filtration, not both")
    if args.filtration is not None:
        steps = nerve.filtration(cloud, _floats(args.filtration),
                                 max_dim=args.max_dim)
        lines = [f"r={step.radius:g}: {_fmt_facets(step.complex)} "
                 f"decomposable={'true' if step.decomposable else 'false'}"
                 for step in steps]
        _emit(args, "\n".join(lines), [
            {"radius": step.radius,
             "facets": [sorted(f) for f in step.complex.facet_sets()],
             "decomposable": step.decomposable} for step in steps])
    else:
        S = nerve.nerve_complex(cloud, args.radius, max_dim=args.max_dim)
        _emit(args, _fmt_facets(S), simplicial.complex_to_json(S))


def _parse_partition(text):
    return tuple(parts.parse_multiindex(b) for b in text.split("|"))


def cmd_partitions(args):
    k = parts.parse_multiindex(args.k)
    pis = parts.enumerate_partitions(k)
    lines = [" | ".join(parts.format_multiindex(b) for b in pi)
             for pi in pis]
    _emit(args, "\n".join(lines),
          [[list(b) for b in pi] for pi in pis])


def cmd_collapse(args):
    text = str(parts.collapse_number(_parse_partition(args.partition)))
    _emit(args, text, {"collapse": text})


def cmd_cumulant_from_moments(args):
    k = parts.parse_multiindex(args.k)
    table = parts.moment_table_from_json(_load_json(args.moments))
    value = parts.cumulant_from_moments(k, table)
    text = str(value) if isinstance(value, Fraction) else repr(float(value))
    _emit(args, text, {"cumulant": text})


def cmd_chain_rule(args):
    k = parts.parse_multiindex(args.k)
    terms = parts.chain_rule_terms(k)
    lines = ["c={} outer={} inner={}".format(
        c, outer, ";".join(parts.format_multiindex(nu) for nu in inner))
        for c, outer, inner in terms]
    _emit(args, "\n".join(lines), [
        {"coefficient": str(c), "outer": outer,
         "inner": [list(nu) for nu in inner]} for c, outer, inner in terms])


def _poly_from_args(args):
    if (args.poly is None) == (args.poly_file is None):
        raise DomainError("need --poly or --poly-file, not both")
    text = args.poly if args.poly_file is None else _read_text(args.poly_file)
    return logdensity.parse_poly(text, args.p)


def cmd_parse_poly(args):
    g = _poly_from_args(args)
    _emit(args, str(g), {"p": g.p, "canonical": str(g)})


def cmd_check_model(args):
    g = _poly_from_args(args)
    S = simplicial.complex_from_json(_load_json(args.complex))
    violation = logdensity.hierarchy_violation(g, S)
    if violation is None:
        _emit(args, "hierarchical", {"hierarchical": True})
    else:
        exp, support = violation
        _emit(args, f"not hierarchical (term exponent "
              f"{parts.format_multiindex(exp)}, non-face "
              f"{_fmt_set(support)})",
              {"hierarchical": False, "term": list(exp),
               "nonface": sorted(support)})


def cmd_artinian(args):
    g = _poly_from_args(args)
    n = parts.parse_multiindex(args.n)
    ok = logdensity.artinian_degree_check(g, n)
    _emit(args, "true" if ok else "false", {"artinian": ok})


def cmd_gaussian_ideal(args):
    spec = logdensity.gaussian_spec_from_json(_load_json(args.gaussian))
    I = logdensity.gaussian_ideal(spec, tolerance=args.tolerance)
    _emit(args, _fmt_ideal(I), ideal.ideal_to_json(I))


def cmd_mec(args):
    spec = logdensity.mec_spec_from_json(_load_json(args.spec))
    g = logdensity.mec_polynomial(spec)
    S = logdensity.mec_support_complex(spec)
    _emit(args, f"g = {g}\nsupport complex: {_fmt_facets(S)}",
          {"polynomial": str(g),
           "support_facets": [sorted(f) for f in S.facet_sets()]})


def _report_out(args, report):
    _emit(args, repr(report.value),
          {"value": report.value, "method": report.method,
           "metadata": report.metadata})


def cmd_local_moment(args):
    f = _load_density(args.density)
    window = diffcum.CubeWindow(tuple(_floats(args.xi)), args.eps)
    rep = diffcum.local_moment(f, window, parts.parse_multiindex(args.k),
                               nodes=args.nodes, method=args.method)
    _report_out(args, rep)


def cmd_diff_moment(args):
    f = _load_density(args.density)
    rep = diffcum.differential_moment(f, _floats(args.xi),
                                      parts.parse_multiindex(args.k))
    _report_out(args, rep)


def cmd_diff_cumulant(args):
    f = _load_density(args.density)
    rep = diffcum.differential_cumulant(f, _floats(args.xi),
                                        parts.parse_multiindex(args.k),
                                        method=args.method)
    _report_out(args, rep)


def cmd_limit_probe(args):
    f = _load_density(args.density)
    rep = diffcum.limit_matches_differential(
        f, _floats(args.xi), parts.parse_multiindex(args.k),
        _floats(args.eps_seq), nodes=args.nodes)
    verdict = "CONVERGED" if rep.converged else "NOT-CONVERGED"
    lines = [f"target kappa^xi_{{{args.k}}} = {rep.target!r}"]
    lines += [f"eps={e:g}: scaled={s!r} err={err!r}"
              for e, s, err in zip(rep.eps_values, rep.scaled_values,
                                   rep.errors)]
    lines.append(verdict)
    _emit(args, "\n".join(lines), {
        "k": list(rep.k), "xi": list(rep.xi), "target": rep.target,
        "eps": list(rep.eps_values), "scaled": list(rep.scaled_values),
        "errors": list(rep.errors), "converged": rep.converged})


def cmd_ci_generators(args):
    def ints(text):
        return frozenset(_ints(text)) if text else frozenset()
    stmt = hierarchy.CIStatement(args.p, ints(args.i), ints(args.j),
                                 ints(args.given))
    gens = hierarchy.ci_to_generators(stmt)
    _emit(args, "\n".join(parts.format_multiindex(k) for k in gens),
          [list(k) for k in gens])


# --------------------------------------------------------------------------

# one parser per process: parse_args keeps no state between calls, so
# every main call shares it
@cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="hmi",
        description="Hierarchical models, differential cumulants and "
                    "square-free monomial ideals")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **flags):
        sp = sub.add_parser(name)
        sp.add_argument("--format", choices=("text", "json"),
                        default="text")
        for flag, kwargs in flags.items():
            sp.add_argument("--" + flag.replace("_", "-"), **kwargs)
        sp.set_defaults(handler=handler)
        return sp

    add("sr", cmd_sr, complex={"required": True})
    add("complex-of", cmd_complex_of, ideal={"required": True})
    add("dual", cmd_dual, complex={"required": True})
    add("decompose", cmd_decompose, complex={"required": True})
    add("factorize", cmd_factorize, complex={"required": True})
    add("marginalize", cmd_marginalize, complex={}, ideal={},
        strip={"required": True})
    add("linear-resolution", cmd_linear_resolution, ideal={"required": True})
    add("ferrer", cmd_ferrer, ideal={"required": True})
    add("network-cuts", cmd_network_cuts, network={"required": True})
    add("network-paths", cmd_network_paths, network={"required": True})
    add("network-ideals", cmd_network_ideals, network={"required": True})
    add("network-duality", cmd_network_duality, network={"required": True})
    add("nerve", cmd_nerve, points={"required": True},
        radius={"type": float}, filtration={},
        max_dim={"type": int, "default": None})
    add("partitions", cmd_partitions, k={"required": True})
    add("collapse", cmd_collapse, partition={"required": True})
    add("cumulant-from-moments", cmd_cumulant_from_moments,
        k={"required": True}, moments={"required": True})
    add("chain-rule", cmd_chain_rule, k={"required": True})
    add("parse-poly", cmd_parse_poly, poly={}, poly_file={},
        p={"type": int, "required": True})
    add("check-model", cmd_check_model, poly={}, poly_file={},
        p={"type": int, "required": True}, complex={"required": True})
    add("artinian", cmd_artinian, poly={}, poly_file={},
        p={"type": int, "required": True}, n={"required": True})
    add("gaussian-ideal", cmd_gaussian_ideal, gaussian={"required": True},
        tolerance={"type": float, "default": 0.0})
    add("mec", cmd_mec, spec={"required": True})
    add("local-moment", cmd_local_moment, density={"required": True},
        xi={"required": True}, eps={"type": float, "required": True},
        k={"required": True},
        nodes={"type": int, "default": diffcum.DEFAULT_NODES},
        method={"choices": ("quadrature", "mc"), "default": "quadrature"})
    add("diff-moment", cmd_diff_moment, density={"required": True},
        xi={"required": True}, k={"required": True})
    add("diff-cumulant", cmd_diff_cumulant, density={"required": True},
        xi={"required": True}, k={"required": True},
        method={"choices": ("partition", "logderiv"),
                "default": "partition"})
    add("limit-probe", cmd_limit_probe, density={"required": True},
        xi={"required": True}, k={"required": True},
        eps_seq={"required": True},
        nodes={"type": int, "default": diffcum.DEFAULT_NODES})
    add("ci-generators", cmd_ci_generators, p={"type": int,
        "required": True}, i={"required": True}, j={"required": True},
        given={"default": ""})
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
