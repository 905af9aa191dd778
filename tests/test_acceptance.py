"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hmi import (make_complex, make_ideal, stanley_reisner, complex_of,
                 alexander_dual, minimal_nonfaces, is_face, flag_complex,
                 is_decomposable, factorize, marginalize, ideal_marginalize,
                 enumerate_partitions, collapse_number, cumulant_from_moments,
                 recognize_ferrer, ferrer_cliques, make_network,
                 minimal_paths, minimal_cuts, cut_ideal, path_ideal,
                 verify_cut_path_duality, unit_vector,
                 CubeWindow, differential_moment, local_moment, r_factor,
                 limit_matches_differential, gaussian_density, parse_poly,
                 is_hierarchical, gaussian_log_poly, GaussianSpec, MECSpec,
                 mec_polynomial, artinian_degree_check, SparsePolynomial,
                 PointCloud, nerve_complex, filtration)
from hmi.graphs import make_graph
from hmi.hierarchy import format_factorization
from hmi.ideal import SquareFreeIdeal, format_generators
from hmi.simplicial import SimplicialComplex

from oracles import (all_complexes, bell, gaussian_moment_table,
                     brute_chordal, brute_force_cliques,
                     brute_minimal_nonfaces)


def report(n, label):
    print(f"\nACCEPTANCE {n}: PASS - {label}")


def test_acceptance_1_golden_examples():
    t0 = time.time()
    # Stanley-Reisner goldens
    assert format_generators(stanley_reisner(
        make_complex(3, [[1, 3], [2, 3]]))) == "x1*x2"
    assert format_generators(stanley_reisner(
        make_complex(4, [[1, 2], [2, 3], [3, 4], [1, 4]]))) == \
        "x1*x3, x2*x4"
    assert format_generators(stanley_reisner(
        make_complex(3, [[1, 2], [2, 3], [1, 3]]))) == "x1*x2*x3"
    chain = make_complex(5, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    assert format_generators(stanley_reisner(chain)) == \
        "x1*x4, x1*x5, x2*x5"
    assert format_factorization(factorize(chain)) == \
        "f{123} f{234} f{345} / f{23} f{34}"
    assert format_generators(stanley_reisner(marginalize(chain, {1}))) \
        == "x2*x5"
    # two-terminal bridge network
    net = make_network([1, 2, 3, 4],
                       [(1, 1, 2), (2, 2, 4), (3, 2, 3), (4, 1, 3),
                        (5, 3, 4)], 1, 4)
    srt = lambda fam: sorted(sorted(s) for s in fam)
    assert srt(minimal_cuts(net)) == [[1, 3, 5], [1, 4], [2, 3, 4], [2, 5]]
    assert srt(minimal_paths(net)) == [[1, 2], [1, 3, 5], [2, 3, 4], [4, 5]]
    assert format_generators(cut_ideal(net)) == \
        "x1*x4, x2*x5, x1*x3*x5, x2*x3*x4"
    assert format_generators(path_ideal(net)) == \
        "x1*x2, x4*x5, x1*x3*x5, x2*x3*x4"
    # both clique lists (facets of the cut and path complexes)
    assert srt(complex_of(cut_ideal(net)).facet_sets()) == \
        [[1, 2, 3], [1, 5], [2, 4], [3, 4, 5]]
    assert srt(complex_of(path_ideal(net)).facet_sets()) == \
        [[1, 3, 4], [1, 5], [2, 3, 5], [2, 4]]
    dt = time.time() - t0
    assert dt < 1.0
    report(1, f"golden examples byte-exact ({dt:.2f}s)")


def test_acceptance_2_duality_properties():
    t0 = time.time()
    checked = 0
    for p in (2, 3, 4):
        for facets in all_complexes(p):
            faces = [sorted(f) for f in facets if f]
            if faces:
                S = make_complex(p, faces)
            elif facets:
                S = SimplicialComplex(p, (0,))
            else:
                S = SimplicialComplex(p, ())
            # SR <-> complex round trip (void complex has no SR ideal)
            if S.facets and S.facets != (0,):
                assert complex_of(stanley_reisner(S)) == S
            # dual involution
            assert alexander_dual(alexander_dual(S)) == S
            # minimal non-face correctness
            assert minimal_nonfaces(S) == \
                brute_minimal_nonfaces(p, S.facet_sets())
            checked += 1
    rng = random.Random(2024)
    for _ in range(150):
        p = rng.randint(5, 6)
        faces = [rng.sample(range(1, p + 1), rng.randint(1, p))
                 for _ in range(rng.randint(1, 5))]
        S = make_complex(p, faces)
        assert complex_of(stanley_reisner(S)) == S
        assert alexander_dual(alexander_dual(S)) == S
        nf = minimal_nonfaces(S)
        assert nf == brute_minimal_nonfaces(p, S.facet_sets())
        for K in nf:
            assert not is_face(S, K)
            assert all(is_face(S, K - {v}) for v in K)
        checked += 1
    dt = time.time() - t0
    assert dt < 10.0
    report(2, f"duality on {checked} complexes ({dt:.2f}s)")


def test_acceptance_3_decomposable_iff_2linear():
    t0 = time.time()
    pairs = list(combinations(range(1, 7), 2))
    disagreements = 0
    for bits in range(1 << 15):
        edges = [pairs[i] for i in range(15) if bits >> i & 1]
        S = flag_complex(make_graph(6, edges))
        left = is_decomposable(S)
        I = stanley_reisner(S)
        degree2 = all(g.bit_count() == 2 for g in I.generators)
        # chordality of the non-generator graph (the skeleton, which for a
        # flag complex is the input graph) by the independent oracle
        right = degree2 and brute_chordal(6, edges)
        if left != right:
            disagreements += 1
    dt = time.time() - t0
    assert disagreements == 0
    assert dt < 60.0
    report(3, f"all 32768 graphs on 6 vertices agree ({dt:.1f}s)")


def test_acceptance_4_ferrer_suite():
    t0 = time.time()
    nine = make_ideal(9, [[1, 6], [1, 7], [1, 8], [2, 6], [2, 7], [3, 6],
                          [3, 7], [4, 6], [5, 6]])
    shape = recognize_ferrer(nine)
    assert shape is not None and shape.lengths == (3, 2, 2, 1, 1)
    cliques, seps = ferrer_cliques(shape)
    assert sorted(cliques, key=lambda c: (len(c), sorted(c))) == \
        brute_force_cliques(nine)
    S = complex_of(nine)
    assert is_decomposable(S)
    # stripping order x1..x5 succeeds
    I = nine
    for v in (1, 2, 3, 4, 5):
        I = ideal_marginalize(I, {v})
    assert I.labels == (6, 7, 8, 9)
    assert I.generators == ()
    dt = time.time() - t0
    assert dt < 5.0
    report(4, f"Ferrer recognition and stripping ({dt:.2f}s)")


def test_acceptance_5_cumulant_combinatorics():
    t0 = time.time()
    for n in range(1, 9):
        assert len(enumerate_partitions((1,) * n)) == bell(n)
    for pi in enumerate_partitions((1,) * 6):
        assert collapse_number(pi) == 1
    # order-3 cumulants of a Gaussian with nonzero mean vanish exactly
    mean = (Fraction(2, 3), Fraction(-1, 5), Fraction(7, 4))
    cov = ((Fraction(3, 2), Fraction(1, 3), Fraction(-1, 4)),
           (Fraction(1, 3), Fraction(2), Fraction(1, 6)),
           (Fraction(-1, 4), Fraction(1, 6), Fraction(5, 4)))
    table = gaussian_moment_table(mean, cov, 3)
    third_order = [k for k in table if sum(k) == 3]
    assert len(third_order) == 10
    for k in third_order:
        assert cumulant_from_moments(k, table) == 0
    dt = time.time() - t0
    assert dt < 5.0
    report(5, f"Bell numbers, unit collapses, exact zero third-order "
              f"Gaussian cumulants ({dt:.2f}s)")


def _rho_half():
    return gaussian_density((0.0, 0.0),
                            np.linalg.inv(np.array([[1.0, 0.5],
                                                    [0.5, 1.0]])))


def test_acceptance_6_differential_moment_numerics():
    t0 = time.time()
    f = _rho_half()
    diff = differential_moment(f, (0.0, 0.0), (1, 1)).value
    assert abs(diff - 2.0 / 3.0) < 1e-6
    errors = []
    for eps in (0.4, 0.2, 0.1):
        m = local_moment(f, CubeWindow((0.0, 0.0), eps), (1, 1)).value
        scaled = m / r_factor(eps, (1, 1))
        errors.append(abs(scaled - 2.0 / 3.0))
        if eps == 0.1:
            assert abs(scaled - 2.0 / 3.0) <= 0.05 * (2.0 / 3.0)
    for a, b in zip(errors, errors[1:]):
        assert 2.5 <= a / b <= 6.0          # O(eps^2) decay
    dt = time.time() - t0
    assert dt < 5.0
    report(6, f"differential moment 2/3, local ratio within 5%, "
              f"O(eps^2) decay ({dt:.2f}s)")


def test_acceptance_7_binary_limit_theorem():
    t0 = time.time()
    f = _rho_half()
    conv = limit_matches_differential(f, (0.0, 0.0), (1, 1),
                                      [0.4, 0.2, 0.1])
    assert conv.converged
    div = limit_matches_differential(f, (0.6, -0.4), (2, 0),
                                     [0.4, 0.2, 0.1])
    assert not div.converged
    dt = time.time() - t0
    assert dt < 5.0
    report(7, f"CONVERGED for k=(1,1), NOT-CONVERGED for k=(2,0) "
              f"({dt:.2f}s)")


def test_acceptance_8_model_checking():
    t0 = time.time()
    full = make_complex(2, [[1, 2]])
    indep = make_complex(2, [[1], [2]])
    bec = parse_poly("-x1 - 2*x2 + 1/2*x1*x2", 2)     # a3 != 0
    assert is_hierarchical(bec, full)
    assert not is_hierarchical(bec, indep)
    bec0 = parse_poly("-x1 - 2*x2", 2)                # a3 = 0
    assert is_hierarchical(bec0, indep)
    # tridiagonal Gaussian on p=4: hierarchical exactly for the chain
    lam = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    g = gaussian_log_poly(GaussianSpec((0, 0, 0, 0), lam))
    chain = make_complex(4, [[1, 2], [2, 3], [3, 4]])
    assert is_hierarchical(g, chain)
    for drop in ([[2, 3], [3, 4]], [[1, 2], [3, 4]], [[1, 2], [2, 3]]):
        smaller = make_complex(4, drop + [[1], [2], [3], [4]])
        assert not is_hierarchical(g, smaller)
    # MEC equivalence: multilinear iff Artinian with n = (2,...,2)
    rng = random.Random(88)
    for _ in range(100):
        p = rng.randint(1, 4)
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            s = tuple(rng.randint(0, 1) for _ in range(p))
            coeffs[s] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        g = mec_polynomial(MECSpec(p, coeffs))
        assert artinian_degree_check(g, (2,) * p)
    for _ in range(100):
        p = rng.randint(1, 4)
        g = mec_polynomial(MECSpec(
            p, {tuple(rng.randint(0, 1) for _ in range(p)): Fraction(1)}))
        i = rng.randint(1, p)
        square = SparsePolynomial(
            p, {tuple(2 if j == i - 1 else 0 for j in range(p)):
                Fraction(rng.choice([-3, -1, 1, 2]))})
        assert not artinian_degree_check(g + square, (2,) * p)
    dt = time.time() - t0
    assert dt < 5.0
    report(8, f"BEC/Gaussian/MEC model checks exact ({dt:.2f}s)")


def test_acceptance_9_nerve():
    t0 = time.time()
    cloud = PointCloud(((0.0,), (1.0,), (3.0,)))
    steps = filtration(cloud, [0.4, 0.6, 1.1, 1.6])
    got = [sorted(sorted(f) for f in s.complex.facet_sets())
           for s in steps]
    assert got == [[[1], [2], [3]], [[1, 2], [3]], [[1, 2], [2, 3]],
                   [[1, 2, 3]]]
    rng = np.random.default_rng(909)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        pts = PointCloud(tuple(map(tuple, rng.normal(size=(n, 2)))))
        radii = np.sort(rng.uniform(0.05, 2.0, 3))
        radii = [float(r) for r in radii]
        if len(set(radii)) < 3:
            continue
        seq = filtration(pts, radii)
        for a, b in zip(seq, seq[1:]):
            for f in a.complex.facet_sets():
                assert any(f <= g for g in b.complex.facet_sets())
    # acute triangle: every edge enters strictly before the 2-face
    tri = PointCloud(((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)))
    between = (0.5 + 1 / math.sqrt(3)) / 2
    S = nerve_complex(tri, between)
    assert set(S.facet_sets()) == {frozenset({1, 2}), frozenset({1, 3}),
                                   frozenset({2, 3})}
    dt = time.time() - t0
    assert dt < 5.0
    report(9, f"collinear filtration, nesting on 50 clouds, "
              f"edge-before-face ({dt:.2f}s)")
