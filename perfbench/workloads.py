"""Seeded job lists for the three in-process workloads.

A job is one closed-loop unit of work: ``run`` makes the library calls and
is the only part that is timed; ``view`` turns the result into plain data
(so that later passes can be compared with the first) and ``check`` judges
that data against ``oracles``, never against the library itself.  Jobs that
consume an earlier job's result in the same pass share a ``state`` dict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import numpy as np

from hmi import (diffcum, hierarchy, ideal, logdensity, nerve, network,
                 partitions, simplicial)

import oracles


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    view: Callable[[object], object]
    check: Callable[[object], bool]


def cx(S):
    return frozenset(S.facet_sets())


def gens(I):
    return frozenset(I.generator_sets())


def same(expected):
    return lambda got: got == expected


# ---------------------------------------------------------------------------
# exact-algebra: complexes, ideals, decomposability, networks, polynomials

def random_complex(rng, p, n_facets, size):
    return [rng.sample(range(1, p + 1), size) for _ in range(n_facets)]


def triangle_chain(rng, p):
    lab = rng.sample(range(1, p + 1), p)
    return [[lab[i], lab[i + 1], lab[i + 2]] for i in range(p - 2)]


def two_tree(rng, p):
    """Random 2-tree: each new vertex closes a triangle on an old edge, so
    the complex of its triangles is decomposable."""
    lab = rng.sample(range(1, p + 1), p)
    tris = [[lab[0], lab[1], lab[2]]]
    edges = [(lab[0], lab[1]), (lab[1], lab[2]), (lab[0], lab[2])]
    for v in lab[3:]:
        a, b = rng.choice(edges)
        tris.append([a, b, v])
        edges += [(a, v), (b, v)]
    return tris


def not_decomposable(rng, p, hollow):
    """A chordless 6-cycle plus decoration, or a hollow triangle."""
    lab = rng.sample(range(1, p + 1), p)
    if not hollow:
        n = 6
        facets = [[lab[i], lab[(i + 1) % n]] for i in range(n)]
        facets += [[lab[n - 1], v] for v in lab[n:]]
    else:
        facets = [[lab[0], lab[1]], [lab[1], lab[2]], [lab[0], lab[2]]]
        facets += [[lab[2], lab[i], lab[i + 1]] for i in range(3, p - 1)]
    return facets


def sr_round_trip(jobs, state, tag, S, facets):
    """complex -> ideal -> complex, the second job reading the first's
    ideal from ``state``."""
    def sr():
        state[tag] = ideal.stanley_reisner(S)
        return state[tag]
    jobs.append(Job(f"stanley_reisner/{tag}", sr, gens,
                    lambda g: oracles.are_minimal_nonfaces(facets, g)))
    jobs.append(Job(f"complex_of/{tag}",
                    lambda: ideal.complex_of(state[tag]), cx, same(facets)))


def dual_jobs(jobs, tag, S, facets):
    full = frozenset(S.labels)

    def check(dual):
        nonfaces = {full - f for f in dual}
        return oracles.are_minimal_nonfaces(facets, nonfaces)
    jobs.append(Job(f"alexander_dual/{tag}",
                    lambda: simplicial.alexander_dual(S), cx, check))
    jobs.append(Job(f"dual_involution/{tag}",
                    lambda: simplicial.alexander_dual(
                        simplicial.alexander_dual(S)),
                    cx, same(facets)))


def factorization_ok(facets):
    def check(view):
        cliques, seps = view
        if set(cliques) != facets or len(seps) != len(cliques) - 1:
            return False
        covered = set(cliques[0])
        for j in range(1, len(cliques)):
            if seps[j - 1] != cliques[j] & covered or \
                    not any(seps[j - 1] <= c for c in cliques[:j]):
                return False
            covered |= cliques[j]
        return True
    return check


def decomposability_jobs(jobs, tag, p, faces, factor):
    S = simplicial.make_complex(p, faces)
    facets = cx(S)
    jobs.append(Job(f"is_decomposable/{tag}",
                    lambda: hierarchy.is_decomposable(S), bool,
                    lambda got: got == oracles.decomposable(p, facets)))
    if factor:
        jobs.append(Job(f"factorize/{tag}", lambda: hierarchy.factorize(S),
                        lambda f: (tuple(f.cliques), tuple(f.separators)),
                        factorization_ok(facets)))
    return S, facets


def marginalize_job(jobs, tag, S, facets):
    counts = {}
    for f in facets:
        for v in f:
            counts[v] = counts.get(v, 0) + 1
    v = min(u for u, c in counts.items() if c == 1)
    want = frozenset(oracles.antichain_max(f - {v} for f in facets))
    jobs.append(Job(f"marginalize/{tag}",
                    lambda: hierarchy.marginalize(S, {v}), cx, same(want)))


def linear_resolution_job(jobs, rng, tag):
    p = 9
    pairs = [e for e in combinations(range(1, p + 1), 2)
             if rng.random() < 0.55]
    I = ideal.make_ideal(p, pairs)
    non_gens = set(combinations(range(1, p + 1), 2)) - set(pairs)
    jobs.append(Job(f"has_2linear_resolution/{tag}",
                    lambda: ideal.has_2linear_resolution(I), bool,
                    lambda got: got == oracles.chordal(range(1, p + 1),
                                                       non_gens)))


def ferrer_job(jobs, rng, tag, perturb):
    r, c = 4, 5
    lengths = sorted((rng.randint(1, c) for _ in range(r)), reverse=True)
    lengths[0] = c
    p = r + c + 1
    lab = rng.sample(range(1, p + 1), p)
    rows, cols = lab[:r], lab[r:r + c]
    pairs = {frozenset((rows[i], cols[j]))
             for i in range(r) for j in range(lengths[i])}
    if perturb:                         # the oracle decides the verdict
        pairs ^= {frozenset((rng.choice(rows), rng.choice(cols)))}
    I = ideal.make_ideal(p, [sorted(s) for s in pairs])

    def view(shape):
        if shape is None:
            return None
        return frozenset(frozenset((shape.rows[i], shape.cols[j]))
                         for i in range(len(shape.rows))
                         for j in range(shape.lengths[i]))
    jobs.append(Job(f"recognize_ferrer/{tag}",
                    lambda: ideal.recognize_ferrer(I), view,
                    lambda got: got == (pairs if oracles.ferrer_like(pairs)
                                        else None)))


def grid_network(rng, rows, cols):
    node = {(i, j): i * cols + j + 1 for i in range(rows) for j in range(cols)}
    pairs = [((i, j), (i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    pairs += [((i, j), (i + 1, j)) for i in range(rows - 1)
              for j in range(cols)]
    ids = rng.sample(range(1, len(pairs) + 1), len(pairs))
    edges = [(e, node[a], node[b]) for e, (a, b) in zip(ids, pairs)]
    corners = [node[0, 0], node[rows - 1, cols - 1]]
    rng.shuffle(corners)
    return list(node.values()), edges, corners[0], corners[1]


def random_network(rng, n_nodes, n_edges):
    nodes = list(range(1, n_nodes + 1))
    pairs = [(v, rng.randint(1, v - 1)) for v in nodes[1:]]   # spanning tree
    while len(pairs) < n_edges:
        u, v = rng.sample(nodes, 2)
        pairs.append((u, v))
    ids = rng.sample(range(1, n_edges + 1), n_edges)
    edges = [(e, u, v) for e, (u, v) in zip(ids, pairs)]
    src, dst = rng.sample(nodes, 2)
    return nodes, edges, src, dst


def network_jobs(jobs, tag, spec, small):
    nodes, edges, src, dst = spec
    G = network.make_network(nodes, edges, src, dst)
    jobs.append(Job(f"verify_cut_path_duality/{tag}",
                    lambda: network.verify_cut_path_duality(G),
                    lambda rep: rep.all_pass, same(True)))
    if small:
        def want(i):
            return oracles.network_paths_and_cuts(nodes, edges, src, dst)[i]
        jobs.append(Job(f"minimal_paths/{tag}",
                        lambda: network.minimal_paths(G), frozenset,
                        lambda got: got == want(0)))
        jobs.append(Job(f"minimal_cuts/{tag}",
                        lambda: network.minimal_cuts(G), frozenset,
                        lambda got: got == want(1)))


def poly_job(jobs, rng, tag):
    p = 5
    terms = {}
    parts = []
    for _ in range(6):
        exp = tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(p))
        coeff = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        sign = rng.choice((1, -1))
        factors = [str(coeff)] + [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                                  for i, e in enumerate(exp) if e]
        parts.append(("- " if sign < 0 else "+ ") + "*".join(factors))
        terms[exp] = terms.get(exp, 0) + sign * coeff
    text = " ".join(parts).lstrip("+ ")
    terms = {e: c for e, c in terms.items() if c}
    S = simplicial.make_complex(p, random_complex(rng, p, 3, 3))
    facets = cx(S)
    n = tuple(rng.randint(1, 4) for _ in range(p))
    hier = all(oracles.is_face(facets, frozenset(
        i + 1 for i, e in enumerate(exp) if e)) for exp in terms)
    artin = all(exp[i] <= n[i] - 1 for exp in terms for i in range(p))

    def run():
        g = logdensity.parse_poly(text, p)
        return (g, logdensity.is_hierarchical(g, S),
                logdensity.artinian_degree_check(g, n))
    jobs.append(Job(f"parse_poly/{tag}", run,
                    lambda out: (dict(out[0].terms), out[1], out[2]),
                    same((terms, hier, artin))))


def exact_algebra(rng, tally):
    """Instance shapes are fixed and only their structure is drawn from the
    seed, so that the cost of a pass and its latency percentiles stay
    steady from seed to seed; the job counts put the median inside the
    2-tree cluster and the 90th percentile inside the p=24 chains."""
    jobs, state = [], {}
    # The roadmap's Stanley-Reisner row (p=30, 40 random 5-facets) in the
    # complex -> ideal direction.  Transversal work varies several-fold
    # between random complexes of one shape, so both directions run on
    # several smaller complexes instead of one large one.
    S30 = simplicial.make_complex(30, random_complex(rng, 30, 40, 5))
    jobs.append(Job("stanley_reisner/p30", lambda: ideal.stanley_reisner(S30),
                    gens, lambda g: oracles.are_minimal_nonfaces(cx(S30), g)))
    shapes = [(f"mid{i}", 22, 30, 4, False) for i in range(6)]
    shapes += [(f"sparse{i}", 26, 4, 15, True) for i in range(4)]
    shapes += [(f"dense{i}", 14, 26, 3, True) for i in range(4)]
    shapes += [(f"small{i}", 9, 5, 3, True) for i in range(8)]
    for tag, p, n_facets, size, dual in shapes:
        S = simplicial.make_complex(p, random_complex(rng, p, n_facets, size))
        facets = cx(S)
        sr_round_trip(jobs, state, tag, S, facets)
        if dual:
            dual_jobs(jobs, tag, S, facets)
    # decomposable triangle chains: the roadmap's p=60 row in vertex order
    # (either direction), and a randomly labelled p=40 chain; labels change
    # the transversal work, so both orders are kept
    order = list(range(1, 61))[::rng.choice((1, -1))]
    decomposability_jobs(jobs, "chain60", 60,
                         [order[i:i + 3] for i in range(58)], False)
    S, facets = decomposability_jobs(jobs, "chain40", 40,
                                     triangle_chain(rng, 40), True)
    marginalize_job(jobs, "chain40", S, facets)
    for i in range(15):
        decomposability_jobs(jobs, f"chain24.{i}", 24, triangle_chain(rng, 24),
                             True)
    for i in range(24):
        S, facets = decomposability_jobs(jobs, f"2tree{i}", 12,
                                         two_tree(rng, 12), True)
        marginalize_job(jobs, f"2tree{i}", S, facets)
    for i in range(16):
        decomposability_jobs(jobs, f"cycle{i}", 12,
                             not_decomposable(rng, 12, i % 2), False)
    for i in range(12):
        linear_resolution_job(jobs, rng, str(i))
        ferrer_job(jobs, rng, str(i), i % 3 == 0)
    network_jobs(jobs, "grid3x4", grid_network(rng, 3, 4), False)
    for i in range(6):
        network_jobs(jobs, f"net{i}", random_network(rng, 5, 8), True)
    for i in range(16):
        poly_job(jobs, rng, str(i))
    return jobs


def warm_exact_algebra():
    S = simplicial.make_complex(5, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    ideal.complex_of(ideal.stanley_reisner(S))
    simplicial.alexander_dual(S)
    hierarchy.factorize(S)
    hierarchy.marginalize(S, {1})
    I = ideal.make_ideal(4, [[1, 3], [1, 4], [2, 3]])
    ideal.has_2linear_resolution(I)
    ideal.recognize_ferrer(I)
    network.verify_cut_path_duality(network.make_network(
        [1, 2, 3], [(1, 1, 2), (2, 2, 3), (3, 1, 3)], 1, 3))
    g = logdensity.parse_poly("x1*x2 - 1/2*x1^2", 2)
    logdensity.is_hierarchical(g, simplicial.make_complex(2, [[1, 2]]))
    logdensity.artinian_degree_check(g, (3, 3))


# ---------------------------------------------------------------------------
# cumulants: exact partition sums and the numeric estimators

class DensityTally:
    """Density work seen from outside the library: batches and points."""

    def __init__(self):
        self.batches = 0
        self.points = 0


def counting(oracle, tally):
    """The same density behind a ``fn`` that counts what it evaluates."""
    inner = oracle.fn

    def fn(pts):
        tally.batches += 1
        tally.points += len(pts)
        return inner(pts)
    return diffcum.DensityOracle(oracle.p, fn)


def rational_gaussian(rng, p):
    mean = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(p)]
    cov = [[Fraction(0)] * p for _ in range(p)]
    for i in range(p):
        cov[i][i] = Fraction(rng.randint(2, 9), rng.randint(1, 3))
        for j in range(i):
            cov[i][j] = cov[j][i] = Fraction(rng.randint(-3, 3),
                                             rng.randint(2, 5))
    return mean, cov


def random_precision(rng, p):
    """Diagonally dominant, hence positive definite, with some zeros."""
    lam = np.zeros((p, p))
    for i in range(p):
        for j in range(i):
            if rng.random() < 0.7:
                lam[i, j] = lam[j, i] = rng.uniform(-0.45, 0.45)
    for i in range(p):
        lam[i, i] = 1.0 + rng.uniform(0.2, 0.8) + np.abs(lam[i]).sum()
    return lam


def random_mec(rng, p):
    coeffs = {}
    for s in oracles.sub_indices((1,) * p):
        if any(s) and rng.random() < 0.6:
            coeffs[s] = round(rng.uniform(-0.8, 0.8), 3)
    coeffs[(1,) * p] = 0.5
    return coeffs


def log_derivative(kind, params, alpha, x):
    """Closed-form D^alpha log f for the two families (the oracle)."""
    axes = [i for i, a in enumerate(alpha) if a]
    if kind == "gaussian":
        mu, lam = params
        if len(axes) == 1:
            return float(-(lam @ (np.asarray(x) - mu))[axes[0]])
        return float(-lam[axes[0], axes[1]]) if len(axes) == 2 else 0.0
    total = 0.0
    for s, a in params.items():
        if all(s[i] for i in axes):
            total += a * math.prod(x[i] for i in range(len(s))
                                   if s[i] and i not in axes)
    return total


def quadrature_agrees(value, density_fn, center, eps, p, nodes=16):
    """The local joint cumulant of all p coordinates over the cube, by a
    separate tensor Gauss-Legendre rule and set partitions, agrees with
    value up to rounding in the partition sum."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    grids = np.meshgrid(*[eps * t] * p, indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.prod(np.stack(np.meshgrid(*[w] * p, indexing="ij")), axis=0)
    vals = density_fn(np.asarray(center) + offs) * wts.ravel()
    mass = vals.sum()

    def moment(block):
        return float((np.prod(offs[:, list(block)], axis=1) * vals).sum()
                     / mass)
    want, scale = oracles.cumulant_by_set_partitions(moment, p)
    return abs(value - want) <= 1e-9 * scale


def cumulants(rng, tally):
    jobs = []
    shapes = [(1,) * n for n in range(4, 10)] + [(2, 2, 2, 2), (3, 3, 2)]
    for k in shapes:
        mean, cov = rational_gaussian(rng, len(k))
        table = oracles.gaussian_moment_table(mean, cov, k)
        tag = ",".join(map(str, k))
        jobs.append(Job(f"cumulant_from_moments/{tag}",
                        lambda k=k, t=table:
                            partitions.cumulant_from_moments(k, t),
                        lambda v: v, same(0)))
        jobs.append(Job(f"chain_rule_terms/{tag}",
                        lambda k=k: partitions.chain_rule_terms(k),
                        lambda terms: {tuple(inner): (c, outer)
                                       for c, outer, inner in terms},
                        lambda got, k=k: got == {
                            pi: (c, len(pi)) for pi, c in
                            oracles.multiset_partition_counts(k).items()}))
    for n in range(3, 9):
        jobs.append(Job(f"enumerate_partitions/{n}",
                        lambda n=n: partitions.enumerate_partitions((1,) * n),
                        len, same(oracles.bell(n))))
    for i in range(10):                 # second cumulants are covariances
        mean, cov = rational_gaussian(rng, 3)
        a, b = rng.sample(range(3), 2)
        k = tuple(int(j in (a, b)) for j in range(3))
        table = oracles.gaussian_moment_table(mean, cov, k)
        jobs.append(Job(f"cumulant_from_moments/cov{i}",
                        lambda k=k, t=table:
                            partitions.cumulant_from_moments(k, t),
                        lambda v: v, same(cov[a][b])))
    def gaussian(p):
        mu = np.array([rng.uniform(-1, 1) for _ in range(p)])
        lam = random_precision(rng, p)
        return "gaussian", (mu, lam), diffcum.gaussian_density(mu, lam)

    def mec(p):
        coeffs = random_mec(rng, p)
        return "mec", coeffs, diffcum.mec_density(coeffs, p)
    # fixed shapes keep the per-job costs steady: third-order differential
    # cumulants by the partition sum (the median falls among them), fewer
    # by the log-derivative, p=3 local cumulants (the 90th percentile) and
    # two costly p=4 local cumulants
    gauss3 = [gaussian(3) for _ in range(4)]
    dense = gauss3 + [mec(3), mec(3), gaussian(4), mec(4)]
    for d, (kind, params, raw) in enumerate(dense):
        p, f = raw.p, counting(raw, tally)
        for i in range(21):
            xi = tuple(round(rng.uniform(-0.8, 0.8), 3) for _ in range(p))
            axes = rng.sample(range(p), 3)
            k = tuple(int(j in axes) for j in range(p))
            want = log_derivative(kind, params, k, xi)
            for method in ("partition", "logderiv")[:1 + (i % 6 == 0)]:
                jobs.append(Job(
                    f"differential_cumulant/{method}/{kind}{d}.{i}",
                    lambda f=f, xi=xi, k=k, m=method:
                        diffcum.differential_cumulant(f, xi, k, method=m),
                    lambda rep: rep.value,
                    lambda v, w=want: abs(v - w) <= 1e-3 * max(1.0, abs(w))))
    for d, (kind, params, raw) in enumerate(dense):
        if raw.p == 3 and kind == "mec":
            continue
        p, f = raw.p, counting(raw, tally)
        for i in range(5 if p == 3 else 1):
            center = tuple(round(rng.uniform(-0.5, 0.5), 3) for _ in range(p))
            eps = rng.choice((0.2, 0.3, 0.4))
            jobs.append(Job(f"local_cumulant/p{p}/{kind}{d}.{i}",
                            lambda f=f, c=center, e=eps:
                                diffcum.local_cumulant(
                                    f, diffcum.CubeWindow(c, e), (1,) * f.p,
                                    nodes=16),
                            lambda rep: rep.value,
                            lambda v, fn=raw.fn, c=center, e=eps, p=p:
                                quadrature_agrees(v, fn, c, e, p)))
    for i in range(4):
        lam = random_precision(rng, 2)
        f = counting(diffcum.gaussian_density(np.zeros(2), lam), tally)
        xi = (round(rng.uniform(-0.3, 0.3), 3), round(rng.uniform(-0.3, 0.3), 3))
        want = -lam[0, 1]
        jobs.append(Job(f"limit_matches_differential/{i}",
                        lambda f=f, xi=xi: diffcum.limit_matches_differential(
                            f, xi, (1, 1), (0.4, 0.2, 0.1)),
                        lambda rep: (rep.converged, rep.target),
                        lambda v, w=want: v[0] and abs(v[1] - w) <= 1e-5))
    return jobs


def warm_cumulants():
    partitions.cumulant_from_moments((1, 1), {(1, 0): 1, (0, 1): 2,
                                              (1, 1): 3})
    partitions.chain_rule_terms((2, 1))
    f = diffcum.gaussian_density((0.0, 0.0), ((1.0, 0.2), (0.2, 1.0)))
    diffcum.differential_cumulant(f, (0.1, 0.1), (1, 1))
    diffcum.differential_cumulant(f, (0.1, 0.1), (1, 1), method="logderiv")
    diffcum.local_cumulant(f, diffcum.CubeWindow((0.0, 0.0), 0.2), (1, 1),
                           nodes=4)
    diffcum.mec_density({(1, 1): 0.5}, 2)


# ---------------------------------------------------------------------------
# nerve-filtration: one nerve and a filtration over the same cloud

def jittered_grid(rng, shape, spacing, jitter):
    """Grid points moved by up to jitter*spacing per axis, in seeded order.
    Spacings below are chosen so that no lattice distance lies near a
    radius in use: then the seed moves points without changing how much
    work a nerve is, and the costs stay steady from seed to seed."""
    pts = []
    for idx in np.ndindex(*shape):
        pts.append(tuple(spacing * i + rng.uniform(-jitter, jitter) * spacing
                         for i in idx))
    rng.shuffle(pts)
    return pts


def nerve_jobs(jobs, tag, pts, radii):
    cloud = nerve.PointCloud(tuple(pts))
    r_max = radii[-1]

    def single_check(facets):
        return (oracles.edge_set(facets)
                == oracles.distance_edges(pts, r_max, nerve.FACE_TOLERANCE)
                and set().union(*facets) == set(range(1, len(pts) + 1)))
    jobs.append(Job(f"nerve_complex/{tag}",
                    lambda: nerve.nerve_complex(cloud, r_max), cx,
                    single_check))

    def steps_view(steps):
        return tuple((s.radius, cx(s.complex), s.decomposable) for s in steps)

    def steps_check(view):
        facets = [f for _, f, _ in view]
        return (oracles.nested(facets)
                and [r for r, _, _ in view] == list(radii)
                and all(oracles.edge_set(f) == oracles.distance_edges(
                    pts, r, nerve.FACE_TOLERANCE) for r, f, _ in view)
                and all(dec == oracles.decomposable(len(pts), f)
                        for _, f, dec in view))
    jobs.append(Job(f"filtration/{tag}",
                    lambda: nerve.filtration(cloud, radii), steps_view,
                    steps_check))


PLANAR_RADII = (0.35, 0.55, 0.75, 0.95, 1.1)


def nerve_filtration(rng, tally):
    """Planar 20-point clouds at r=1.1 and 3-D clouds carry most of the
    time; the job counts put the median inside the 6-point clouds and the
    90th percentile inside the 10-point ones."""
    jobs = []
    for i in range(2):
        nerve_jobs(jobs, f"planar20.{i}",
                   jittered_grid(rng, (5, 4), 0.9, 0.02), PLANAR_RADII)
    nerve_jobs(jobs, "space12", jittered_grid(rng, (3, 2, 2), 1.07, 0.02),
               (0.45, 0.65, 0.85, 1.0))
    for i in range(10):
        nerve_jobs(jobs, f"planar10.{i}",
                   jittered_grid(rng, (5, 2), 0.9, 0.02), PLANAR_RADII[1::2])
    for i in range(40):
        nerve_jobs(jobs, f"planar6.{i}",
                   jittered_grid(rng, (3, 2), 0.9, 0.02), PLANAR_RADII[1::2])
    return jobs


def warm_nerve_filtration():
    cloud = nerve.PointCloud(((0.0, 0.0), (1.0, 0.0), (0.5, 0.8)))
    nerve.filtration(cloud, (0.4, 0.7))
    nerve.nerve_complex(cloud, 0.7)


BUILDERS = {
    "exact-algebra": (exact_algebra, warm_exact_algebra),
    "cumulants": (cumulants, warm_cumulants),
    "nerve-filtration": (nerve_filtration, warm_nerve_filtration),
}
