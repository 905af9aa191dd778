"""Simplicial complex core: facets, minimal non-faces, Alexander duality and
JSON round trips, exhaustively on p <= 4 and randomized on p <= 6."""
import random
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from hmi import (SimplicialComplex, make_complex, is_face, minimal_nonfaces,
                 alexander_dual, one_skeleton, flag_complex)
from hmi.errors import DomainError
from hmi.graphs import make_graph
from hmi.hierarchy import is_decomposable
from hmi.ideal import complex_of, make_ideal, stanley_reisner
from hmi.simplicial import (complex_to_json, complex_from_json,
                            minimal_nonface_masks, minimal_transversals,
                            _antichain, _mask_order)

from oracles import (all_complexes, brute_chordal, brute_maximal_cliques,
                     brute_minimal_nonfaces, brute_minimal_transversals)


def size_then_value(mask):
    """The mask order by its definition: by size, then by value."""
    return mask.bit_count(), mask


def random_facets(rng, p):
    count = rng.randint(1, 5)
    return [rng.sample(range(1, p + 1), rng.randint(1, p))
            for _ in range(count)]


def check_nonfaces(p, S):
    expected = brute_minimal_nonfaces(p, S.facet_sets())
    assert minimal_nonfaces(S) == expected
    for nf in minimal_nonfaces(S):
        assert not is_face(S, nf)
        for v in nf:
            assert is_face(S, nf - {v})


def check_involution(S):
    dual = alexander_dual(S)
    assert alexander_dual(dual) == S


@pytest.mark.parametrize("p", [2, 3])
def test_exhaustive_small(p):
    for facets in all_complexes(p):
        S = SimplicialComplex(
            p, tuple(sorted((sum(1 << (v - 1) for v in f) for f in facets),
                            key=lambda m: (bin(m).count("1"), m))))
        check_nonfaces(p, S)
        check_involution(S)


def test_exhaustive_p4():
    count = 0
    for facets in all_complexes(4):
        faces = [sorted(f) for f in facets if f]
        if faces:
            S = make_complex(4, faces)
        elif facets:
            S = SimplicialComplex(4, (0,))    # only the empty face
        else:
            S = SimplicialComplex(4, ())      # void complex
        check_nonfaces(4, S)
        check_involution(S)
        count += 1
    assert count == 168    # Dedekind number M(4): antichains on 4 points


def test_exhaustive_p5():
    # every complex on five vertices: both Stanley-Reisner directions, the
    # dual involution, the minimal non-faces, and decomposability as a
    # chordal 1-skeleton whose maximal cliques, on the vertices that lie in
    # a face, are the facets
    count = 0
    for facets in all_complexes(5):
        S = SimplicialComplex(5, tuple(sorted(
            (sum(1 << (v - 1) for v in f) for f in facets),
            key=size_then_value)))
        if facets:                      # the void complex has no SR ideal
            assert complex_of(stanley_reisner(S)) == S
        check_nonfaces(5, S)
        check_involution(S)
        edges = {pair for f in facets for pair in combinations(sorted(f), 2)}
        used = frozenset().union(*facets)
        cliques = {c for c in brute_maximal_cliques(5, edges) if c <= used}
        assert is_decomposable(S) == (brute_chordal(5, edges) and
                                      cliques == {f for f in facets if f})
        count += 1
    assert count == 7581   # Dedekind number M(5)


def test_randomized_p6():
    rng = random.Random(20240817)
    for _ in range(200):
        S = make_complex(6, random_facets(rng, 6))
        check_nonfaces(6, S)
        check_involution(S)


def test_void_and_full_edge_cases():
    void = SimplicialComplex(3, ())
    assert minimal_nonfaces(void) == [frozenset()]
    full = make_complex(3, [[1, 2, 3]])
    assert minimal_nonfaces(full) == []
    assert alexander_dual(void).facets == (7,)       # full simplex
    assert alexander_dual(full).facets == ()         # void complex
    check_involution(void)
    check_involution(full)


def test_empty_complex():
    # only the empty face: every singleton is a minimal non-face
    S = SimplicialComplex(2, (0,))
    assert minimal_nonfaces(S) == [frozenset({1}), frozenset({2})]
    check_involution(S)


def test_facets_are_an_antichain():
    S = make_complex(4, [[1, 2], [1], [2, 3], [3], [1, 2]])
    assert set(S.facet_sets()) == {frozenset({1, 2}), frozenset({2, 3})}


def test_is_face_downward_closure():
    S = make_complex(5, [[1, 2, 3], [3, 4]])
    assert is_face(S, [1, 3])
    assert is_face(S, [])
    assert not is_face(S, [1, 4])
    with pytest.raises(DomainError):
        is_face(S, [9])


def test_one_skeleton_and_flag():
    S = make_complex(4, [[1, 2, 3], [3, 4]])
    G = one_skeleton(S)
    assert set(G.edges) == {(1, 2), (1, 3), (2, 3), (3, 4)}
    assert flag_complex(G) == S
    # 3-cycle graph: flag complex keeps the hollow triangle filled
    tri = make_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert flag_complex(tri).facet_sets() == [frozenset({1, 2, 3})]


def test_flag_complex_facets_are_the_maximal_cliques():
    rng = random.Random(10)
    for p in range(1, 11):
        pairs = list(combinations(range(1, p + 1), 2))
        for density in (0.2, 0.5, 0.8):
            edges = [e for e in pairs if rng.random() < density]
            S = flag_complex(make_graph(p, edges))
            assert sorted(S.facet_sets(), key=lambda f: (len(f), sorted(f))) \
                == brute_maximal_cliques(p, edges)
            assert list(S.facets) == sorted(S.facets, key=size_then_value)


def test_flag_complex_is_the_complex_of_the_non_edge_ideal():
    # every graph on p <= 5 vertices (1,099 graphs), on reversed labels so
    # that no label equals its position plus one: the facets are the
    # maximal cliques, and the Stanley-Reisner ideal is generated exactly
    # by the non-edges
    for p in range(1, 6):
        labels = tuple(range(p, 0, -1))
        pairs = list(combinations(range(1, p + 1), 2))
        for bits in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
            S = flag_complex(make_graph(p, edges, labels=labels))
            assert S.labels == labels
            assert list(S.facets) == sorted(S.facets, key=size_then_value)
            assert sorted(S.facet_sets(), key=lambda f: (len(f), sorted(f))) \
                == brute_maximal_cliques(p, edges)
            I = stanley_reisner(S)
            assert I.labels == labels
            assert sorted(I.generator_sets(), key=lambda g: sorted(g)) == [
                frozenset(e) for e in pairs if e not in edges]


def test_minimal_nonface_masks_golden():
    S = make_complex(5, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    assert minimal_nonfaces(S) == [frozenset({1, 4}), frozenset({1, 5}),
                                   frozenset({2, 5})]
    assert minimal_nonface_masks(S) == (9, 17, 18)


def test_labels_and_marginal_rings():
    S = make_complex(3, [[2, 5], [5, 7]], labels=(2, 5, 7))
    assert is_face(S, [2, 5])
    assert not is_face(S, [2, 7])
    assert minimal_nonfaces(S) == [frozenset({2, 7})]
    dual = alexander_dual(S)
    assert dual.labels == (2, 5, 7)


def test_json_round_trip():
    S = make_complex(4, [[1, 2], [2, 3, 4]])
    assert complex_from_json(complex_to_json(S)) == S
    T = make_complex(2, [[4], [9]], labels=(4, 9))
    assert complex_from_json(complex_to_json(T)) == T
    with pytest.raises(DomainError):
        complex_from_json({"facets": [[1]]})


def test_labels_must_be_distinct_hashable_lists():
    # a duplicated label would leave one of its positions unreachable
    for labels in ([1, 1, 2], [[1], [2], [3]], [1, "a", 2]):
        with pytest.raises(DomainError):
            make_complex(3, [[1, 2]], labels=labels)
        with pytest.raises(DomainError):
            SimplicialComplex(3, (3,), labels)
        with pytest.raises(DomainError):
            make_graph(3, [(1, 2)], labels=labels)
    with pytest.raises(DomainError):
        make_complex(2, [1, 2])             # faces must be label lists
    with pytest.raises(DomainError):
        make_graph(3, [(1, 2, 3)])          # an edge has two ends


def test_make_complex_validation():
    with pytest.raises(DomainError):
        make_complex(0, [])
    with pytest.raises(DomainError):
        make_complex(2, [[3]])
    with pytest.raises(DomainError):
        make_complex(65, [])


@pytest.mark.parametrize("build", [make_complex, make_ideal, make_graph])
@pytest.mark.parametrize("p, message", [
    (0, "at least 1"), (-1, "at least 1"), (65, "at most 64"),
    (True, "integer"), (2.0, "integer"), ("2", "integer")])
def test_one_vertex_count_rule(build, p, message):
    with pytest.raises(DomainError, match=message):
        build(p, [])


@st.composite
def edge_families(draw):
    """Families of nonempty masks on p <= 10 positions, with duplicated and
    nested edges mixed in."""
    p = draw(st.integers(min_value=1, max_value=10))
    full = (1 << p) - 1
    edges = draw(st.lists(st.integers(min_value=1, max_value=full),
                          max_size=8))
    if edges:
        for e in draw(st.lists(st.sampled_from(edges), max_size=4)):
            edges.append(e | draw(st.integers(min_value=0, max_value=full)))
    return p, draw(st.permutations(edges))


@given(edge_families())
@example((4, []))
@example((5, [0b00110, 0b00110, 0b11111, 0b00010]))
def test_minimal_transversals_match_subset_search(case):
    p, edges = case
    assert list(minimal_transversals(edges, p)) == \
        brute_minimal_transversals(p, edges)


def test_minimal_transversals_larger_families():
    # beyond the hypothesis test's 8 edges: up to 40 edges on p <= 14,
    # with duplicated and nested edges mixed in
    rng = random.Random(8)
    for p in (9, 10, 11, 12, 13, 14):
        full = (1 << p) - 1
        for _ in range(2):
            edges = [sum(1 << v for v in rng.sample(range(p),
                                                    rng.randint(1, p // 2)))
                     for _ in range(rng.randint(10, 30))]
            edges += [rng.choice(edges) | rng.randint(0, full)
                      for _ in range(rng.randint(0, 10))]
            rng.shuffle(edges)
            assert list(minimal_transversals(edges, p)) == \
                brute_minimal_transversals(p, edges)
    assert minimal_transversals(edges + [0], 14) == ()


SEARCH = next(c for c in minimal_transversals.__code__.co_consts
              if getattr(c, "co_name", None) == "search")


def counted(edges, p):
    """minimal_transversals(edges, p) and the number of calls of its nested
    search, counted by a profile hook from outside the library."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is SEARCH

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = minimal_transversals(edges, p)
    finally:
        sys.setprofile(previous)
    return out, calls


def test_search_work_does_not_depend_on_edge_order():
    # edges are numbered by (size, mask), so shuffling a family changes
    # neither the transversals nor the nodes searched; the families are the
    # minimal non-faces of the benchmark's sparse complexes (p = 26, four
    # facets of 15), searched again by complex_of.  The call counts are
    # those of branching on the first edge with the fewest candidates,
    # whichever side counted them
    rng = random.Random(28)
    for calls in (271, 165):
        S = make_complex(26, [rng.sample(range(1, 27), 15) for _ in range(4)])
        edges = list(minimal_nonface_masks(S))
        want = counted(edges, 26)
        assert want[1] == calls
        for _ in range(4):
            rng.shuffle(edges)
            assert counted(edges, 26) == want
        assert counted(edges[::-1], 26) == want


@pytest.mark.parametrize("p, n_facets, size, calls", [
    (22, 30, 4, [(94, 162), (104, 194), (99, 177)]),
    (26, 4, 15, [(45, 101), (51, 104), (59, 168)]),
    (14, 26, 3, [(43, 75), (41, 63), (45, 74)]),
    (9, 5, 3, [(8, 13), (6, 9), (6, 8)]),
    (30, 40, 5, [(211, 486), (219, 478), (204, 453)])])
def test_search_calls_on_benchmark_shapes(p, n_facets, size, calls):
    # the benchmark's complex shapes, both Stanley-Reisner directions: the
    # minimal non-faces, then the transversals of those, which complement
    # the facets again.  The calls are those of the search that rescanned
    # the edges for every branch edge of three or more candidates; reading
    # that edge off the counting scan leaves them as they were
    rng = random.Random(p * 100 + n_facets)
    full = (1 << p) - 1
    for want in calls:
        S = make_complex(p, [rng.sample(range(1, p + 1), size)
                             for _ in range(n_facets)])
        nonfaces, there = counted([full & ~f for f in S.facets], p)
        facets, back = counted(nonfaces, p)
        assert (there, back) == want
        assert facets == tuple(sorted((full & ~f for f in S.facets),
                                      key=size_then_value))


def test_forced_vertices_are_added_in_one_search_call():
    # every singleton's vertex is forced, and together they cover the
    # supersets, so the root node finds the one transversal without branching
    edges = [1 << v for v in range(10)] + [0b11, 0b1110000, 0b1111111111,
                                           0b1000000001]
    assert counted(edges, 10) == (((1 << 10) - 1,), 1)


def test_edge_without_candidates_is_pruned_without_branching():
    # an empty edge has no candidate, so it is refused before the search,
    # among few edges (which a root node would scan) or more edges than
    # vertices (which it would fold)
    assert counted([0b0110, 0, 0b1001], 4) == ((), 0)
    assert counted([0, 1, 2, 4, 8, 3, 5, 6, 9, 12], 4) == ((), 0)


def test_minimal_transversals_of_many_word_families():
    # generator-like families of 98-118 edges, 77-97 of them distinct, on
    # p = 11..13, so the edge masks span several machine words
    # and nodes count candidates from both sides: mostly pairs and triples,
    # with singletons, duplicates and nested edges mixed in, each family
    # searched in two orders
    rng = random.Random(2014)
    for p in (11, 12, 13):
        for _ in range(2):
            sizes = [rng.choice((1, 2, 2, 2, 3, 3, 3, 3))
                     for _ in range(rng.randint(80, 110))]
            edges = [sum(1 << v for v in rng.sample(range(p), k))
                     for k in sizes]
            edges += [rng.choice(edges) for _ in range(5)]
            edges += [rng.choice(edges) | 1 << rng.randrange(p)
                      for _ in range(5)]
            want = brute_minimal_transversals(p, edges)
            assert list(minimal_transversals(edges, p)) == want
            assert list(minimal_transversals(edges[::-1], p)) == want


@pytest.mark.parametrize("p, n_facets, size", [(22, 30, 4), (26, 4, 15)])
def test_round_trips_on_benchmark_shapes(p, n_facets, size):
    rng = random.Random(p)
    for _ in range(3):
        S = make_complex(p, [rng.sample(range(1, p + 1), size)
                             for _ in range(n_facets)])
        assert complex_of(stanley_reisner(S)) == S
        assert alexander_dual(alexander_dual(S)) == S


def test_complemented_transversals_stay_sorted_antichains():
    # complex_of and alexander_dual sort the complements of minimal
    # transversals instead of re-minimising them
    rng = random.Random(9)
    for _ in range(40):
        p = rng.randint(3, 14)
        S = make_complex(p, [rng.sample(range(1, p + 1), rng.randint(1, p - 1))
                             for _ in range(rng.randint(1, 12))])
        for facets in (complex_of(stanley_reisner(S)).facets,
                       alexander_dual(S).facets):
            assert list(facets) == sorted(facets, key=size_then_value)
            assert facets == _antichain(facets)
        assert complex_of(stanley_reisner(S)) == S


masks_64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(st.lists(masks_64, max_size=40).flatmap(
    lambda masks: st.permutations(masks + masks[:len(masks) // 3])))
@example([0, 0, 1 << 63, (1 << 64) - 1, 3, 5, 0])
def test_mask_order_is_size_then_value(masks):
    # repeated masks and 0 included; the order the library sorts every
    # mask family into, with builtin keys only
    assert _mask_order(masks) == sorted(masks, key=size_then_value)


def test_antichain_keeps_maximal_or_minimal_masks():
    # one routine serves facets (maximal) and generators, paths and cuts
    # (minimal); both against the definition, duplicates included
    rng = random.Random(5)
    for _ in range(200):
        masks = [rng.getrandbits(7) & rng.getrandbits(7)
                 for _ in range(rng.randint(0, 15))]
        for minimal in (False, True):
            want = sorted({m for m in masks if not any(
                k != m and (k & m == (k if minimal else m))
                for k in masks)}, key=size_then_value)
            assert list(_antichain(masks, minimal=minimal)) == want
