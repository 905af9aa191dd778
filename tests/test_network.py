"""Two-terminal networks: minimal paths and cuts, the cut/path ideals and
their Alexander duality, on bridges, series and parallel compositions."""
import random
from dataclasses import astuple

import pytest

from hmi import (make_network, minimal_paths, minimal_cuts, cut_ideal,
                 path_ideal, verify_cut_path_duality)
from hmi import ideal, network, simplicial
from hmi.errors import DomainError
from hmi.ideal import format_generators
from hmi.network import network_from_json

from oracles import brute_paths_and_cuts


def bridge():
    # edges: 1 in-a, 2 a-out, 3 a-b, 4 in-b, 5 b-out
    return make_network([1, 2, 3, 4],
                        [(1, 1, 2), (2, 2, 4), (3, 2, 3), (4, 1, 3),
                         (5, 3, 4)], 1, 4)


def grid(rows, cols):
    """The rows x cols grid between opposite corners, edges numbered along
    the rows first, then down the columns."""
    node = {(i, j): i * cols + j + 1 for i in range(rows) for j in range(cols)}
    pairs = [((i, j), (i, j + 1)) for i in range(rows)
             for j in range(cols - 1)]
    pairs += [((i, j), (i + 1, j)) for i in range(rows - 1)
              for j in range(cols)]
    return make_network(node.values(), [(e + 1, node[a], node[b])
                                        for e, (a, b) in enumerate(pairs)],
                        1, rows * cols)


def sets(family):
    return sorted(sorted(s) for s in family)


def test_bridge_paths_and_cuts_golden():
    G = bridge()
    assert sets(minimal_paths(G)) == [[1, 2], [1, 3, 5], [2, 3, 4], [4, 5]]
    assert sets(minimal_cuts(G)) == [[1, 3, 5], [1, 4], [2, 3, 4], [2, 5]]
    assert format_generators(cut_ideal(G)) == \
        "x1*x4, x2*x5, x1*x3*x5, x2*x3*x4"
    assert format_generators(path_ideal(G)) == \
        "x1*x2, x4*x5, x1*x3*x5, x2*x3*x4"


def test_bridge_complex_facets_golden():
    from hmi.ideal import complex_of
    G = bridge()
    cut_facets = sets(complex_of(cut_ideal(G)).facet_sets())
    path_facets = sets(complex_of(path_ideal(G)).facet_sets())
    assert cut_facets == [[1, 2, 3], [1, 5], [2, 4], [3, 4, 5]]
    assert path_facets == [[1, 3, 4], [1, 5], [2, 3, 5], [2, 4]]


def test_bridge_duality():
    report = verify_cut_path_duality(bridge())
    assert report.all_pass


def counted_searches(monkeypatch):
    """The list that every minimal-transversal search appends to, by a
    wrapper put in each module that calls the search."""
    calls = []
    real = simplicial.minimal_transversals

    def counting(edge_masks, p):
        out = real(edge_masks, p)
        calls.append(len(out))
        return out
    for module in (simplicial, ideal, network):
        monkeypatch.setattr(module, "minimal_transversals", counting)
    return calls


def test_duality_check_searches_each_family_once(monkeypatch):
    # the cuts' and the paths' transversals, one search each: the duals'
    # families are the paths and the cuts again, searched earlier in the
    # same call; nothing is kept from one call to the next
    calls = counted_searches(monkeypatch)
    G = grid(3, 4)
    assert (len(minimal_cuts(G)), len(minimal_paths(G))) == (81, 38)
    for G in (bridge(), G, G):
        calls.clear()
        assert verify_cut_path_duality(G).all_pass
        # the cuts' transversals are the paths, and the other way round
        assert calls == [len(minimal_paths(G)), len(minimal_cuts(G))]


def test_duality_check_sees_a_dropped_path(monkeypatch):
    # with one minimal cut or path missing, the family of the cut complex's
    # dual is no longer one searched before, so it is searched afresh and
    # the report fails instead of reading a remembered answer; a path
    # through every edge is not minimal and leaves the path ideal as it
    # is, so only the comparison with the enumerated paths sees it
    calls = counted_searches(monkeypatch)
    cuts, paths = network.minimal_cuts, network.minimal_paths
    faults = [
        (cuts, lambda G: paths(G)[1:], (False, False, False, True), 3),
        (lambda G: cuts(G)[1:], paths, (False, False, False, True), 3),
        (cuts, lambda G: paths(G) + [frozenset(range(1, G.p + 1))],
         (False, True, True, True), 2)]
    for cut_fault, path_fault, fields, searches in faults:
        monkeypatch.setattr(network, "minimal_cuts", cut_fault)
        monkeypatch.setattr(network, "minimal_paths", path_fault)
        for G in (bridge(), grid(3, 4)):
            calls.clear()
            assert astuple(verify_cut_path_duality(G)) == fields
            assert len(calls) == searches


def test_series_network():
    G = make_network([1, 2, 3], [(1, 1, 2), (2, 2, 3)], 1, 3)
    assert sets(minimal_paths(G)) == [[1, 2]]
    assert sets(minimal_cuts(G)) == [[1], [2]]
    assert verify_cut_path_duality(G).all_pass


def test_parallel_network():
    G = make_network([1, 2], [(1, 1, 2), (2, 1, 2), (3, 1, 2)], 1, 2)
    assert sets(minimal_paths(G)) == [[1], [2], [3]]
    assert sets(minimal_cuts(G)) == [[1, 2, 3]]
    assert verify_cut_path_duality(G).all_pass


def test_duality_on_random_networks():
    rng = random.Random(12)
    built = 0
    while built < 20:
        n = rng.randint(3, 5)
        nodes = list(range(1, n + 1))
        pairs = [(u, v) for u in nodes for v in nodes if u < v]
        chosen = [e for e in pairs if rng.random() < 0.6]
        edges = [(i + 1, u, v) for i, (u, v) in enumerate(chosen)]
        try:
            G = make_network(nodes, edges, 1, n)
        except DomainError:
            continue
        assert verify_cut_path_duality(G).all_pass
        built += 1


def test_paths_and_cuts_match_subset_search():
    # loops and parallel edges included; the oracle sorts the same way
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 6)
        pairs = [(v, rng.randint(1, v - 1)) for v in range(2, n + 1)]
        pairs += [tuple(rng.choices(range(1, n + 1), k=2))
                  for _ in range(rng.randint(0, 9 - len(pairs)))]
        edges = [(i + 1, u, v) for i, (u, v) in enumerate(pairs)]
        source, target = rng.sample(range(1, n + 1), 2)
        G = make_network(range(1, n + 1), edges, source, target)
        assert (minimal_paths(G), minimal_cuts(G)) == \
            brute_paths_and_cuts(edges, source, target)


def test_network_validation():
    with pytest.raises(DomainError, match="must differ"):
        make_network([1, 2], [(1, 1, 2)], 1, 1)
    with pytest.raises(DomainError, match="dense"):
        make_network([1, 2], [(2, 1, 2)], 1, 2)
    with pytest.raises(DomainError, match="connected"):
        make_network([1, 2, 3], [(1, 1, 2)], 1, 2)
    with pytest.raises(DomainError, match="not a node"):
        make_network([1, 2], [(1, 1, 9)], 1, 2)
    for edge in [(1, 2), (1, 1, 2, 3)]:
        with pytest.raises(DomainError, match="triple"):
            make_network([1, 2], [edge], 1, 2)
    # ids and terminals are integers, not values equal to one
    for match, args in [
            ("dense", ([1, 2], [(1.0, 1, 2)], 1, 2)),
            ("dense", ([1, 2], [(True, 1, 2)], 1, 2)),
            ("terminals must be nodes", ([1, 2], [(1, 1, 2)], 1.0, 2)),
            ("node ids must be integers", ([1.0, 2], [(1, 1, 2)], 1, 2))]:
        with pytest.raises(DomainError, match=match):
            make_network(*args)
    # cut and path families are edge-id masks over at most 20 edges
    with pytest.raises(DomainError, match="at most 20 edges supported"):
        make_network([1, 2], [(i, 1, 2) for i in range(1, 22)], 1, 2)


def test_json_parsing():
    G = network_from_json({
        "nodes": [1, 2], "edges": [{"id": 1, "u": 1, "v": 2}],
        "input": 1, "output": 2})
    assert G.p == 1
    with pytest.raises(DomainError):
        network_from_json({"nodes": [1, 2]})
    # the network's own complaint, not the generic JSON-shape message
    with pytest.raises(DomainError, match="terminals must be nodes"):
        network_from_json({
            "nodes": [1, 2], "edges": [{"id": 1, "u": 1, "v": 2}],
            "input": 1, "output": 5})
