"""Two-terminal networks: minimal cut and minimal path enumeration, the
cut/path ideals and their Alexander duality."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DomainError, _ints, _json_int
from .graphs import _adjacency, _bits, _levels
from .ideal import SquareFreeIdeal, complex_of, make_ideal
from .simplicial import _antichain, alexander_dual

MAX_EDGES = 20


@dataclass(frozen=True)
class Network:
    """Connected undirected multigraph with edge ids 1..p and two
    distinguished terminals."""
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]   # (id, u, v)
    input: int
    output: int

    def __post_init__(self):
        if any(len(e) != 3 for e in self.edges):
            raise DomainError("each edge must be an (id, u, v) triple")
        nodes = set(_ints(self.nodes, "node ids must be integers"))
        if self.input == self.output:
            raise DomainError("input and output must differ")
        if not nodes.issuperset(_ints((self.input, self.output),
                                      "terminals must be nodes")):
            raise DomainError("terminals must be nodes")
        ids = sorted(_ints((e[0] for e in self.edges),
                           "edge ids must be dense 1..p"))
        if ids != list(range(1, len(ids) + 1)):
            raise DomainError("edge ids must be dense 1..p")
        if len(ids) > MAX_EDGES:
            raise DomainError(f"at most {MAX_EDGES} edges supported")
        ends = (x for e in self.edges for x in e[1:])
        if not nodes.issuperset(_ints(ends, "edge endpoint is not a node")):
            raise DomainError("edge endpoint is not a node")
        if not self._connected():
            raise DomainError("network must be connected")

    @property
    def p(self):
        return len(self.edges)

    def _connected(self):
        position = {n: i for i, n in enumerate(dict.fromkeys(self.nodes))}
        adj = _adjacency(len(position), [1 << position[u] | 1 << position[v]
                                         for _, u, v in self.edges])
        return bool(position) and \
            sum(_levels(adj, 1)) == (1 << len(position)) - 1


def make_network(nodes: Iterable[int], edges, input: int,
                 output: int) -> Network:
    return Network(tuple(nodes), tuple(tuple(e) for e in edges),
                   input, output)


def _edge_sets(masks) -> list[frozenset[int]]:
    """Edge-id masks as edge-id sets, in (size, lexicographic) order; bit i
    of a mask is edge i + 1."""
    sets = [frozenset(i + 1 for i in _bits(m)) for m in masks]
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def minimal_paths(G: Network) -> list[frozenset[int]]:
    """Edge sets of simple input-output paths, in canonical (size,
    lexicographic) order; a ``Network`` is connected, so there is one.  The
    only such path inside a path's edges is that path, so they are already
    inclusion-minimal."""
    incident: dict[int, list[tuple[int, int]]] = {n: [] for n in G.nodes}
    for eid, u, v in G.edges:
        incident[u].append((eid, v))
        incident[v].append((eid, u))
    found = []

    def walk(node, used_nodes, used_edges):
        if node == G.output:
            found.append(used_edges)
            return
        for eid, other in incident[node]:
            if other in used_nodes:
                continue
            walk(other, used_nodes | {other}, used_edges | 1 << eid - 1)

    walk(G.input, {G.input}, 0)
    return _edge_sets(found)


def minimal_cuts(G: Network) -> list[frozenset[int]]:
    """Inclusion-minimal edge sets whose removal disconnects the terminals:
    crossing sets of input/output vertex bipartitions, minimalized.  A
    side's crossing set is the XOR of its nodes' incidence masks: an edge
    with both ends inside cancels, and so does a loop."""
    incidence = dict.fromkeys(G.nodes, 0)
    for eid, u, v in G.edges:
        incidence[u] ^= 1 << eid - 1
        incidence[v] ^= 1 << eid - 1
    cuts = [incidence[G.input]]
    for n in incidence:
        if n not in (G.input, G.output):
            cuts += [c ^ incidence[n] for c in cuts]
    return _edge_sets(_antichain(cuts, minimal=True))


def _edge_ideal(G: Network, sets) -> SquareFreeIdeal:
    return make_ideal(G.p, [sorted(s) for s in sets])


def cut_ideal(G: Network) -> SquareFreeIdeal:
    return _edge_ideal(G, minimal_cuts(G))


def path_ideal(G: Network) -> SquareFreeIdeal:
    return _edge_ideal(G, minimal_paths(G))


@dataclass(frozen=True)
class DualityReport:
    cut_facets_are_path_complements: bool
    path_facets_are_cut_complements: bool
    dual_of_cuts_is_paths: bool
    involution_holds: bool

    @property
    def all_pass(self):
        return (self.cut_facets_are_path_complements
                and self.path_facets_are_cut_complements
                and self.dual_of_cuts_is_paths and self.involution_holds)


def verify_cut_path_duality(G: Network) -> DualityReport:
    """Checks the cut/path Alexander duality on a concrete network."""
    all_edges = frozenset(range(1, G.p + 1))
    cuts, paths = minimal_cuts(G), minimal_paths(G)
    cut_complex = complex_of(_edge_ideal(G, cuts))
    path_complex = complex_of(_edge_ideal(G, paths))
    cut_facets = set(cut_complex.facet_sets())
    path_facets = set(path_complex.facet_sets())
    path_complements = {all_edges - s for s in paths}
    cut_complements = {all_edges - s for s in cuts}
    dual = alexander_dual(cut_complex)
    return DualityReport(
        cut_facets_are_path_complements=cut_facets == path_complements,
        path_facets_are_cut_complements=path_facets == cut_complements,
        dual_of_cuts_is_paths=set(dual.facet_sets()) == path_facets,
        involution_holds=(alexander_dual(dual) == cut_complex),
    )


def network_from_json(obj: Mapping) -> Network:
    try:
        nodes = [_json_int(n) for n in obj["nodes"]]
        edges = [(_json_int(e["id"]), _json_int(e["u"]), _json_int(e["v"]))
                 for e in obj["edges"]]
        terminals = _json_int(obj["input"]), _json_int(obj["output"])
    except (KeyError, TypeError, ValueError):
        raise DomainError(
            "network JSON needs 'nodes', 'edges' [{id,u,v}], 'input', "
            "'output'") from None
    return make_network(nodes, edges, *terminals)
