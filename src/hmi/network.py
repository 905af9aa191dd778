"""Two-terminal networks: minimal cut and minimal path enumeration, the
cut/path ideals and their Alexander duality."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DomainError, _ints, _json_int
from .graphs import _adjacency, _bits, _label_set_key, _levels
from .ideal import SquareFreeIdeal, make_ideal
from .simplicial import _antichain, minimal_transversals

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
    return sorted(sets, key=_label_set_key)


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
    """Checks the cut/path blocker duality (Edmonds and Fulkerson 1970) on
    a concrete network, as four identities between families of edge masks.

    Let b be the minimal transversals, C and P the cut and path ideals'
    generators, and cuts and paths the masks of ``minimal_cuts`` and
    ``minimal_paths`` as they come.  The cut complex (``ideal.complex_of``
    of the cut ideal) has the complements of b(C) as facets, and its
    Alexander dual the complements of b(b(C)); so, with the complements
    cancelled on both sides, the four fields check:

    - ``cut_facets_are_path_complements``: b(C) = paths;
    - ``path_facets_are_cut_complements``: b(P) = cuts;
    - ``dual_of_cuts_is_paths``: b(b(C)) = b(P);
    - ``involution_holds``: b(b(b(C))) = b(C).

    The first two state the duality from both sides.  They compare with the
    families as enumerated, not with the generators, whose antichain would
    drop a non-minimal path.  The last two run the transversal search on
    its own output.  When the duality holds, the families searched there
    are the paths and the cuts again, so one search per distinct family,
    kept for this call only, does all four checks with two searches.  A
    family not searched before in the call is searched afresh, so a fault
    in the families or the search still shows in the report."""
    searched: dict[frozenset, frozenset] = {}

    def b(masks) -> frozenset:
        family = frozenset(masks)
        if family not in searched:
            searched[family] = frozenset(minimal_transversals(family, G.p))
        return searched[family]

    cuts, paths = minimal_cuts(G), minimal_paths(G)
    cut, path = _edge_ideal(G, cuts), _edge_ideal(G, paths)
    b_cuts, b_paths = b(cut.generators), b(path.generators)
    dual = b(b_cuts)
    return DualityReport(
        cut_facets_are_path_complements=b_cuts == set(map(path.mask_of,
                                                          paths)),
        path_facets_are_cut_complements=b_paths == set(map(cut.mask_of,
                                                           cuts)),
        dual_of_cuts_is_paths=dual == b_paths,
        involution_holds=b(dual) == b_cuts,
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
