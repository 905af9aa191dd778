"""Decomposability, clique/separator factorization (including a numeric
check that the Gaussian density really factors), marginalization and
conditional-independence generators."""
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from hmi import (CIStatement, NotDecomposableError, make_complex, make_ideal,
                 is_decomposable, factorize, marginalize, ideal_marginalize,
                 ci_to_generators, stanley_reisner, has_2linear_resolution,
                 PointCloud, SimplicialComplex, filtration, flag_complex)
from hmi import graphs, hierarchy, ideal
from hmi.errors import DomainError
from hmi.hierarchy import decomposability_witness, format_factorization
from hmi.ideal import format_generators

from oracles import (all_complexes, brute_chordal, brute_maximal_cliques,
                     brute_minimal_nonfaces, fraction_inverse)


CHAIN = [[1, 2, 3], [2, 3, 4], [3, 4, 5]]


def test_chain_factorization_golden():
    S = make_complex(5, CHAIN)
    fact = factorize(S)
    assert format_factorization(fact) == "f{123} f{234} f{345} / f{23} f{34}"
    assert [set(c) for c in fact.cliques] == [{1, 2, 3}, {2, 3, 4},
                                              {3, 4, 5}]
    assert [set(s) for s in fact.separators] == [{2, 3}, {3, 4}]


def test_labelled_factorization_golden():
    # MCS starts at label 1 and breaks the 3/5/7 tie by the lowest label;
    # a lowest-position tie-break would start at label 9 instead
    labels = (9, 3, 7, 1, 5)
    S = make_complex(5, [[9, 3, 7], [3, 7, 1], [1, 5]], labels=labels)
    fact = factorize(S)
    assert format_factorization(fact) == "f{137} f{379} f{15} / f{37} f{1}"
    assert fact.cliques == (frozenset({1, 3, 7}), frozenset({9, 3, 7}),
                            frozenset({1, 5}))
    cycle = make_complex(5, [[9, 3, 7], [7, 1], [1, 5], [5, 9]],
                         labels=labels)
    assert decomposability_witness(cycle) == [7, 1, 5, 9]


def test_chordless_cycle_walks_each_vertex_pairs_upwards():
    # K_{2,3}: the first vertex, 1, has the pairwise non-adjacent
    # neighbours 3, 4, 5; its first pair (3, 4) is joined by 3-2-4, which
    # closes the witness.  A walk that takes the partners y of x = 3
    # downwards tries (3, 5) first and returns [3, 2, 5, 1]
    k23 = make_complex(5, [[1, 3], [1, 4], [1, 5], [2, 3], [2, 4], [2, 5]])
    assert decomposability_witness(k23) == [3, 2, 4, 1]


def test_one_mcs_pass_per_call(monkeypatch):
    calls = []
    real = graphs._mcs

    def counting(p, adj, labels):
        calls.append(p)
        return real(p, adj, labels)

    for module in (graphs, hierarchy, ideal):
        monkeypatch.setattr(module, "_mcs", counting)
    for facets in (CHAIN, [[1, 2], [2, 3], [1, 3]],
                   [[1, 2], [2, 3], [3, 4], [1, 4]]):
        S = make_complex(5, facets)
        for call in (is_decomposable, decomposability_witness,
                     factorize):
            calls.clear()
            try:
                call(S)
            except NotDecomposableError:
                pass
            assert len(calls) == 1
    # a generator of degree 3 answers before any search
    for gens, passes in (([[1, 3], [2, 4]], 1),
                         ([[1, 3], [1, 4], [2, 4]], 1), ([[1, 2, 3]], 0)):
        calls.clear()
        has_2linear_resolution(make_ideal(4, gens))
        assert len(calls) == passes
    # the unit square's steps: four points, a 4-cycle, then the full simplex
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    calls.clear()
    steps = filtration(cloud, [0.4, 0.6, 0.75, 1.0])
    assert len(calls) == len(steps) == 4


def test_four_cycle_not_decomposable():
    S = make_complex(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    assert not is_decomposable(S)
    witness = decomposability_witness(S)
    assert isinstance(witness, list) and len(witness) == 4
    with pytest.raises(NotDecomposableError, match="chordless cycle"):
        factorize(S)


def test_hollow_triangle_not_decomposable():
    S = make_complex(3, [[1, 2], [2, 3], [1, 3]])
    assert not is_decomposable(S)
    witness = decomposability_witness(S)
    assert witness == frozenset({1, 2, 3})    # non-flag minimal non-face
    with pytest.raises(NotDecomposableError, match="non-flag"):
        factorize(S)


def test_filled_triangle_decomposable():
    assert is_decomposable(make_complex(3, [[1, 2, 3]]))
    assert is_decomposable(make_complex(3, [[1], [2], [3]]))
    # only the empty face: one empty clique, no separators; the empty facet
    # is in no clique the search emits and goes first
    assert format_factorization(factorize(make_complex(3, [[]]))) == "f{}"
    # the void complex: no facets, so no cliques and an empty line
    void = factorize(make_complex(3, []))
    assert void.cliques == void.separators == ()
    assert format_factorization(void) == ""


def _seeded_graphs(rng, count):
    """Graphs on 6..10 vertices as edge lists: random ones of random
    density, random 2-trees (chordal) and random trees."""
    for trial in range(count):
        p = rng.randint(6, 10)
        if trial % 3 == 0:
            density = rng.random()
            edges = [e for e in combinations(range(1, p + 1), 2)
                     if rng.random() < density]
        elif trial % 3 == 1:
            edges = [(1, 2)]
            for v in range(3, p + 1):
                a, b = rng.choice(edges)
                edges += [(a, v), (b, v)]
        else:
            edges = [(rng.randint(1, v - 1), v) for v in range(2, p + 1)]
        yield p, edges


def test_is_decomposable_builds_no_witness(monkeypatch):
    # the one search decides: zero fill-in, and every maximal clique of
    # three or more vertices a facet; no chordless cycle is walked and no
    # transversal searched, and the answer is the witness's absence on
    # every complex on five vertices and on the flag and edge complexes of
    # seeded graphs
    complexes = [SimplicialComplex(5, tuple(sorted(
        (sum(1 << (v - 1) for v in f) for f in facets),
        key=lambda m: (m.bit_count(), m)))) for facets in all_complexes(5)]
    rng = random.Random(3413)
    for p, edges in _seeded_graphs(rng, 240):
        complexes += [flag_complex(graphs.make_graph(p, edges)),
                      make_complex(p, edges)]
    expected = [decomposability_witness(S) is None for S in complexes]
    assert len(complexes) == 7581 + 480
    assert True in expected[7581:] and False in expected[7581:]

    def refuse(*args):
        raise AssertionError("is_decomposable built a witness")
    monkeypatch.setattr(hierarchy, "minimal_transversals", refuse)
    monkeypatch.setattr(hierarchy, "find_chordless_cycle", refuse)
    assert [is_decomposable(S) for S in complexes] == expected


def test_vertices_in_no_face_get_no_factor():
    # the search emits a clique for every vertex, so {c} below is a clique
    # of the skeleton but no facet: first, last or between the facets, it
    # gets no factor and its empty separator none either
    for facets, text in (([["a", "b"]], "f{a,b}"),
                         ([["b", "c"]], "f{b,c}"),
                         ([["a", "b"], ["d"]], "f{a,b} f{d}"),
                         ([["a"], ["d", "e"]], "f{a} f{d,e}")):
        S = make_complex(5, facets, labels="abcde")
        fact = factorize(S)
        assert format_factorization(fact) == text
        assert len(fact.separators) == len(fact.cliques) - 1
        assert set(fact.cliques) == set(S.facet_sets())


def test_factorize_refuses_an_order_without_running_intersection(
        monkeypatch):
    # the path 1-2-3-4 is decomposable: its search emits {1,2}, {2,3},
    # {3,4}, and each separator, {2} then {3}, lies in the first clique
    # of its latest joined vertex.  In the order {1,2}, {3,4}, {2,3} the
    # separator {2,3} lies in no earlier clique; its latest joined vertex
    # 3 first joined {3,4}, and the one mask test of {2,3} refuses it
    S = make_complex(4, [[1, 2], [2, 3], [3, 4]])
    real = graphs._mcs

    def search(order):
        def mcs(p, adj, labels):
            found = real(p, adj, labels)
            assert found == [0b0011, 0b0110, 0b1100]
            return [found[j] for j in order]
        return mcs

    monkeypatch.setattr(hierarchy, "_mcs", search([0, 1, 2]))
    assert format_factorization(factorize(S)) == \
        "f{12} f{23} f{34} / f{2} f{3}"
    monkeypatch.setattr(hierarchy, "_mcs", search([0, 2, 1]))
    with pytest.raises(AssertionError, match="running intersection"):
        factorize(S)


def test_factorizations_rebuild_the_precision():
    # a Gaussian whose precision K has a chordal graph G factors as
    # f = prod f_C / prod f_S over the cliques and separators of
    # factorize(flag_complex(G)); on the precision that reads
    # K = sum_C [(Sigma_CC)^-1]^0 - sum_S [(Sigma_SS)^-1]^0 with
    # Sigma = K^-1 and [.]^0 a block padded with zeros (Lauritzen 1996,
    # 5.3).  Exact in Fractions on 100 seeded rational, diagonally
    # dominant K over chordal graphs on 3..8 vertices, so a dropped or
    # repeated block, or a wrong separator, fails
    rng = random.Random(1996)
    checked = 0
    while checked < 100:
        p = rng.randint(3, 8)
        edges = [e for e in combinations(range(1, p + 1), 2)
                 if rng.random() < 0.45]
        try:
            fact = factorize(flag_complex(graphs.make_graph(p, edges)))
        except NotDecomposableError:
            continue
        K = [[Fraction(0)] * p for _ in range(p)]
        for i, j in edges:
            K[i - 1][j - 1] = K[j - 1][i - 1] = Fraction(
                rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        for i in range(p):
            K[i][i] = sum(map(abs, K[i])) + Fraction(rng.randint(1, 9),
                                                      rng.randint(1, 9))
        sigma = fraction_inverse(K)
        rebuilt = [[Fraction(0)] * p for _ in range(p)]
        for blocks, sign in ((fact.cliques, 1), (fact.separators, -1)):
            for block in blocks:
                idx = sorted(v - 1 for v in block)
                inverse = fraction_inverse([[sigma[i][j] for j in idx]
                                            for i in idx])
                for a, i in enumerate(idx):
                    for b, j in enumerate(idx):
                        rebuilt[i][j] += sign * inverse[a][b]
        assert rebuilt == K
        checked += 1


def test_separator_multiset_is_order_invariant():
    rng = random.Random(31337)
    base = [[1, 2, 3], [2, 3, 4], [3, 4, 5], [5, 6]]
    S = make_complex(6, base)
    reference = sorted(sorted(s) for s in factorize(S).separators)
    for _ in range(20):
        shuffled = base[:]
        rng.shuffle(shuffled)
        T = make_complex(6, shuffled)
        assert sorted(sorted(s) for s in factorize(T).separators) \
            == reference


def _gaussian_marginal_logpdf(mean, cov, idx, x):
    idx = sorted(i - 1 for i in idx)
    sub_mean = mean[idx]
    sub_cov = cov[np.ix_(idx, idx)]
    d = x[idx] - sub_mean
    sign, logdet = np.linalg.slogdet(sub_cov)
    quad = d @ np.linalg.solve(sub_cov, d)
    return -0.5 * (len(idx) * math.log(2 * math.pi) + logdet + quad)


def test_gaussian_density_factorizes_over_cliques():
    # tridiagonal precision on p=4: chain complex, decomposable
    lam = np.array([[2.0, -0.6, 0, 0], [-0.6, 2.0, -0.5, 0],
                    [0, -0.5, 2.0, -0.4], [0, 0, -0.4, 2.0]])
    cov = np.linalg.inv(lam)
    mean = np.array([0.3, -0.1, 0.2, 0.0])
    S = make_complex(4, [[1, 2], [2, 3], [3, 4]])
    fact = factorize(S)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = mean + rng.normal(size=4)
        full = _gaussian_marginal_logpdf(mean, cov, [1, 2, 3, 4], x)
        parts = sum(_gaussian_marginal_logpdf(mean, cov, sorted(c), x)
                    for c in fact.cliques)
        parts -= sum(_gaussian_marginal_logpdf(mean, cov, sorted(s), x)
                     for s in fact.separators)
        assert abs(full - parts) < 1e-10


def test_marginalize_golden():
    S = make_complex(5, CHAIN)
    M = marginalize(S, {1})
    assert M.labels == (2, 3, 4, 5)
    assert set(M.facet_sets()) == {frozenset({2, 3, 4}),
                                   frozenset({3, 4, 5})}
    assert format_generators(stanley_reisner(M)) == "x2*x5"


def test_marginalize_ideal_route_agrees():
    I = make_ideal(5, [[1, 4], [1, 5], [2, 5]])
    J = ideal_marginalize(I, {1})
    assert J.labels == (2, 3, 4, 5)
    assert format_generators(J) == "x2*x5"
    # the two routes commute with Stanley-Reisner
    S = make_complex(5, CHAIN)
    assert stanley_reisner(marginalize(S, {1})) == J


def test_marginalize_preconditions():
    S = make_complex(5, CHAIN)
    # vertex 3 lies in all three maximal cliques
    with pytest.raises(DomainError, match="unique maximal clique"):
        marginalize(S, {3})
    with pytest.raises(DomainError, match="not a face"):
        marginalize(S, {1, 4})
    assert marginalize(S, []) == S
    # facet strip: {1,2} is only inside 123
    M = marginalize(S, {1, 2})
    assert M.labels == (3, 4, 5)


def test_marginalize_chain_to_the_end():
    S = make_complex(5, CHAIN)
    for v in [1, 2, 3, 4]:
        S = marginalize(S, {v})
    assert S.labels == (5,)
    assert S.facet_sets() == [frozenset({5})]


def test_ci_generators():
    stmt = CIStatement(3, frozenset({1}), frozenset({2}), frozenset({3}))
    assert ci_to_generators(stmt) == [(1, 1, 0)]
    stmt = CIStatement(4, frozenset({1, 2}), frozenset({3, 4}), frozenset())
    assert ci_to_generators(stmt) == [(1, 0, 0, 1), (1, 0, 1, 0),
                                      (0, 1, 0, 1), (0, 1, 1, 0)] or \
        set(ci_to_generators(stmt)) == {(1, 0, 1, 0), (1, 0, 0, 1),
                                        (0, 1, 1, 0), (0, 1, 0, 1)}
    with pytest.raises(DomainError):
        CIStatement(3, frozenset({1}), frozenset({2}), frozenset())
    with pytest.raises(DomainError):
        CIStatement(3, frozenset(), frozenset({2}), frozenset({1, 3}))
    # a float index used to pass here and fail in ci_to_generators
    for args in [(3, {1.0}, {2}, {3}), (3.0, {1}, {2}, {3}),
                 (3, {1}, {2}, {True}), (3, 1, {2}, {3})]:
        with pytest.raises(DomainError, match="integer"):
            CIStatement(*args)


def test_ci_statement_refused_without_building_the_index_range():
    # the parts alone decide: a statement on 10^6 variables naming two of
    # them is refused without a set of 10^6 indices
    with pytest.raises(DomainError, match="partition"):
        CIStatement(10**6, {1}, {2}, set())
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="partition"):
            CIStatement(10**6, {1}, {2}, set())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # every way to miss a partition, with the sizes summing to p
    for args in [(3, {1}, {2}, {4}), (3, {0}, {2}, {3}), (3, {1}, {1}, {3}),
                 (3, {1}, {2}, {2}), (3, {1, 2}, {2}, set())]:
        with pytest.raises(DomainError, match="partition"):
            CIStatement(*args)
    assert CIStatement(3, {3}, {1}, {2}).p == 3


def test_ci_generators_are_the_sr_generators():
    # X1 indep X2 given X3 <-> complex {13, 23} <-> ideal <x1x2>
    stmt = CIStatement(3, frozenset({1}), frozenset({2}), frozenset({3}))
    S = make_complex(3, [[1, 3], [2, 3]])
    I = stanley_reisner(S)
    supports = {tuple(sorted(g)) for g in I.generator_sets()}
    from_ci = {tuple(i + 1 for i, v in enumerate(k) if v)
               for k in ci_to_generators(stmt)}
    assert supports == from_ci


def test_factorization_cliques_cover_vertices():
    rng = random.Random(4)
    for _ in range(50):
        p = rng.randint(2, 7)
        # random interval graph: always chordal and flag
        ivals = [(a, a + rng.random()) for a in
                 [rng.random() * 3 for _ in range(p)]]
        edges = [(i + 1, j + 1) for i in range(p) for j in range(i + 1, p)
                 if ivals[i][0] <= ivals[j][1] and ivals[j][0] <= ivals[i][1]]
        from hmi.graphs import make_graph
        from hmi.simplicial import flag_complex
        S = flag_complex(make_graph(p, edges))
        fact = factorize(S)
        assert set().union(*fact.cliques) == set(range(1, p + 1))
        assert len(fact.separators) == len(fact.cliques) - 1


@st.composite
def small_complexes(draw):
    """Facets over positions 1..p, plus distinct labels 1..40 for them in
    any order."""
    p = draw(st.integers(min_value=1, max_value=7))
    facets = draw(st.lists(st.sets(st.integers(min_value=1, max_value=p),
                                   min_size=1, max_size=4),
                           min_size=1, max_size=9))
    labels = draw(st.lists(st.integers(min_value=1, max_value=40),
                           min_size=p, max_size=p, unique=True))
    return p, facets, labels


@given(small_complexes())
def test_witness_is_first_clique_shaped_minimal_nonface(case):
    p, facets, labels = case
    S = make_complex(p, [[labels[v - 1] for v in f] for f in facets],
                     labels=labels)
    # the oracles work on positions 1..p; witnesses are compared in labels
    position_facets = [frozenset(S.labels.index(v) + 1 for v in f)
                       for f in S.facet_sets()]
    edges = {frozenset(e) for f in position_facets
             for e in combinations(sorted(f), 2)}
    clique_nonfaces = sorted(
        (frozenset(labels[v - 1] for v in nf)
         for nf in brute_minimal_nonfaces(p, position_facets)
         if len(nf) >= 2
         and all(frozenset(e) in edges for e in combinations(nf, 2))),
        key=lambda f: (len(f), sorted(f)))
    witness = decomposability_witness(S)
    if not brute_chordal(p, edges):
        assert isinstance(witness, list) and len(witness) >= 4
        assert set(witness) <= set(labels)
    elif clique_nonfaces:
        assert witness == clique_nonfaces[0]
    else:
        assert witness is None


def _mcs_answer(p, edges, labels):
    """Chordality and the emitted cliques, as label sets in visit order, of
    one MCS pass over the graph with the given position edges (1..p) under
    labels."""
    graph = graphs.make_graph(p, [[labels[u - 1], labels[v - 1]]
                                  for u, v in edges], labels=labels)
    cliques = graphs._mcs(p, list(graph.adj), graph.labels)
    return cliques is not None, [graph.vertices_of(c) for c in cliques or ()]


def _assert_clique_tree(emitted):
    """Each emitted clique's separator, its part covered by the earlier
    cliques, lies inside the first clique of its latest joined vertex: the
    clique tree that factorize reads off the cliques."""
    first = {}
    for j, clique in enumerate(emitted):
        sep = [v for v in clique if v in first]
        if sep:
            assert set(sep) <= emitted[max(first[v] for v in sep)]
        for v in clique:
            first.setdefault(v, j)


def _by_size(sets):
    return sorted(sets, key=lambda c: (len(c), sorted(map(str, c))))


def test_one_pass_mcs_on_every_small_graph():
    # every graph with at most 5 vertices, under a shuffled integer
    # labelling and under string labels: zero fill-in is chordality, and
    # on a chordal graph each maximal clique is emitted exactly once, in an
    # order whose clique tree factorize can read off
    rng = random.Random(4031)
    for p in range(1, 6):
        pairs = list(combinations(range(1, p + 1), 2))
        shuffled = rng.sample(range(1, p + 1), p)
        names = [f"v{chr(ord('a') + i)}" for i in rng.sample(range(p), p)]
        for picked in range(1 << len(pairs)):
            edges = [e for j, e in enumerate(pairs) if picked >> j & 1]
            chordal = brute_chordal(p, edges)
            cliques = brute_maximal_cliques(p, edges)
            for labels in (shuffled, names):
                got, emitted = _mcs_answer(p, edges, labels)
                assert got == chordal
                if chordal:
                    assert _by_size(emitted) == _by_size(
                        frozenset(labels[v - 1] for v in c) for c in cliques)
                    _assert_clique_tree(emitted)


def test_one_pass_mcs_on_random_chordal_graphs():
    # seeded random 2-trees and interval graphs on 6..12 vertices, and each
    # with one added non-edge, against networkx as the oracle, with the
    # clique tree read off the chordal ones' cliques
    rng = random.Random(1984)
    for trial in range(300):
        p = rng.randint(6, 12)
        if trial % 2:
            edges = {(1, 2)}
            for v in range(3, p + 1):
                a, b = rng.choice(sorted(edges))
                edges |= {(a, v), (b, v)}
        else:
            spans = [sorted(rng.sample(range(3 * p), 2)) for _ in range(p)]
            edges = {(u + 1, v + 1) for u, v in combinations(range(p), 2)
                     if spans[u][0] <= spans[v][1]
                     and spans[v][0] <= spans[u][1]}
        labels = rng.sample(range(1, 100), p)
        for extra in (False, True):
            missing = [e for e in combinations(range(1, p + 1), 2)
                       if e not in edges]
            if extra and missing:
                edges = edges | {rng.choice(missing)}
            g = nx.Graph(list(edges))
            g.add_nodes_from(range(1, p + 1))
            got, emitted = _mcs_answer(p, sorted(edges), labels)
            assert got == nx.is_chordal(g)
            if got:
                assert _by_size(emitted) == _by_size(
                    frozenset(labels[v - 1] for v in c)
                    for c in nx.find_cliques(g))
                _assert_clique_tree(emitted)


def test_chordless_cycle_search_on_every_small_graph():
    # every graph with at most 5 vertices: None exactly when chordal (the
    # search's final return), otherwise an induced cycle of length >= 4
    for p in range(1, 6):
        pairs = list(combinations(range(1, p + 1), 2))
        for picked in range(1 << len(pairs)):
            edges = [e for j, e in enumerate(pairs) if picked >> j & 1]
            cycle = graphs.find_chordless_cycle(graphs.make_graph(p, edges))
            if brute_chordal(p, edges):
                assert cycle is None
                continue
            assert len(cycle) >= 4 and len(set(cycle)) == len(cycle)
            adjacent = {frozenset(e) for e in edges}
            for (i, u), (j, v) in combinations(enumerate(cycle), 2):
                assert ((frozenset((u, v)) in adjacent)
                        == (j - i in (1, len(cycle) - 1)))
