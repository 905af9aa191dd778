"""The boundary readers of ``hmi.errors`` at every call site: a boolean, a
float, a string and, where the site iterates, a non-iterable are each
refused with ``DomainError`` and the site's own message, word for word."""
import math
from fractions import Fraction

import pytest

from hmi import (CIStatement, CubeWindow, FerrerShape, PointCloud,
                 SparsePolynomial, make_complex, make_ideal, nerve_complex,
                 total_degree_cumulant_check)
from hmi.diffcum import local_cumulant, product_gaussian_density, r_factor
from hmi.errors import DomainError
from hmi.graphs import make_graph
from hmi.logdensity import GaussianSpec, gaussian_ideal
from hmi.nerve import enclosing_radius, filtration, smallest_enclosing_ball
from hmi.network import Network
from hmi.partitions import unit_vector

X1 = SparsePolynomial.variable(2, 1)
CLOUD = PointCloud(((0.0,), (1.0,)))
NORMAL = product_gaussian_density([0.0], [1.0])
WINDOW = CubeWindow((0.0,), 0.1)
SPEC = GaussianSpec((0, 0), ((1, 0), (0, 1)))
EDGE = ((1, 1, 2),)

VERTEX_COUNT = "vertex count must be an integer"
VARIABLE_COUNT = "variable count must be an integer"
SHAPE = ("a Ferrer shape needs one length per row, weakly decreasing, each "
         "in 1..len(cols)")
CI = "a CI statement needs an integer p and sets of integer indices"
INDICES = "point indices must be integers"
MAX_DIM = "max_dim must be an integer"
DEGREE = "degree must be a positive integer"
NODES = "nodes must be a positive integer"
NODE_IDS = "node ids must be integers"
TERMINALS = "terminals must be nodes"
EDGE_IDS = "edge ids must be dense 1..p"
ENDPOINT = "edge endpoint is not a node"
POINTS = "points must be finite real numbers"
ARRAY = "points must form a non-empty p x d array"
RADIUS = "radius must be a non-negative number"
RADII = "radii must be a list of numbers"
TOLERANCE = "tolerance must be non-negative"
CENTRE = "the window centre: expected finite real numbers"
HALF_WIDTH = "the window half-width: expected positive finite real numbers"
EPS = "eps: expected positive finite real numbers"

CASES = {
    "complex-p-bool": (lambda: make_complex(True, []), VERTEX_COUNT),
    "ideal-p-float": (lambda: make_ideal(2.0, []), VERTEX_COUNT),
    "graph-p-string": (lambda: make_graph("2", []), VERTEX_COUNT),
    "poly-p-bool": (lambda: SparsePolynomial(True), VARIABLE_COUNT),
    "poly-p-float": (lambda: SparsePolynomial(2.0), VARIABLE_COUNT),
    "poly-p-string": (lambda: SparsePolynomial("2"), VARIABLE_COUNT),
    "power-bool": (lambda: X1 ** True, "power True is not an integer"),
    "power-float": (lambda: X1 ** 2.0, "power 2.0 is not an integer"),
    "power-string": (lambda: X1 ** "2", "power '2' is not an integer"),
    "ferrer-length-bool": (lambda: FerrerShape((1,), (2,), (True,)), SHAPE),
    "ferrer-length-float": (lambda: FerrerShape((1,), (2,), (1.0,)), SHAPE),
    "ferrer-length-string": (lambda: FerrerShape((1,), (2,), ("1",)), SHAPE),
    "ferrer-lengths-scalar": (lambda: FerrerShape((1,), (2,), 1), SHAPE),
    "ferrer-rows-none": (lambda: FerrerShape(None, (1,), (1,)), SHAPE),
    "ferrer-cols-none": (lambda: FerrerShape((1,), None, (1,)), SHAPE),
    "ci-p-bool": (lambda: CIStatement(True, {1}, {2}, set()), CI),
    "ci-p-float": (lambda: CIStatement(2.0, {1}, {2}, set()), CI),
    "ci-p-string": (lambda: CIStatement("2", {1}, {2}, set()), CI),
    "ci-index-bool": (lambda: CIStatement(2, {True}, {2}, set()), CI),
    "ci-index-float": (lambda: CIStatement(2, {1}, {2.0}, set()), CI),
    "ci-index-string": (lambda: CIStatement(2, {1}, {2}, {"3"}), CI),
    "ci-set-scalar": (lambda: CIStatement(2, 1, {2}, set()), CI),
    "indices-bool": (lambda: enclosing_radius(CLOUD, [True]), INDICES),
    "indices-float": (lambda: enclosing_radius(CLOUD, [1.0]), INDICES),
    "indices-string": (lambda: enclosing_radius(CLOUD, ["1"]), INDICES),
    "indices-scalar": (lambda: enclosing_radius(CLOUD, 1), INDICES),
    "max-dim-bool": (lambda: nerve_complex(CLOUD, 1.0, True), MAX_DIM),
    "max-dim-float": (lambda: nerve_complex(CLOUD, 1.0, 1.0), MAX_DIM),
    "max-dim-string": (lambda: filtration(CLOUD, [1.0], "1"), MAX_DIM),
    "unit-index-bool": (lambda: unit_vector(3, True),
                        "unit vector index True out of range 1..3"),
    "unit-index-float": (lambda: unit_vector(3, 1.0),
                         "unit vector index 1.0 out of range 1..3"),
    "unit-index-string": (lambda: unit_vector(3, "1"),
                          "unit vector index '1' out of range 1..3"),
    "unit-p-float": (lambda: unit_vector(3.0, 1),
                     "unit vector index 1 out of range 1..3.0"),
    "variable-index-bool": (lambda: SparsePolynomial.variable(2, True),
                            "variable index True out of range 1..2"),
    "degree-in-float": (lambda: X1.degree_in(1.0),
                        "variable index 1.0 out of range 1..2"),
    "degree-in-string": (lambda: X1.degree_in("1"),
                         "variable index '1' out of range 1..2"),
    "degree-bool": (lambda: total_degree_cumulant_check(X1, True), DEGREE),
    "degree-float": (lambda: total_degree_cumulant_check(X1, 2.0), DEGREE),
    "degree-string": (lambda: total_degree_cumulant_check(X1, "2"), DEGREE),
    "nodes-float": (lambda: local_cumulant(NORMAL, WINDOW, (2,), nodes=8.0),
                    NODES),
    "node-ids-bool": (lambda: Network((True, 2), EDGE, 1, 2), NODE_IDS),
    "node-ids-float": (lambda: Network((1, 2.0), EDGE, 1, 2), NODE_IDS),
    "node-ids-string": (lambda: Network((1, "2"), EDGE, 1, 2), NODE_IDS),
    "node-ids-scalar": (lambda: Network(1, EDGE, 1, 2), NODE_IDS),
    "terminal-bool": (lambda: Network((1, 2), EDGE, True, 2), TERMINALS),
    "terminal-float": (lambda: Network((1, 2), EDGE, 1, 2.0), TERMINALS),
    "edge-id-float": (lambda: Network((1, 2), ((1.0, 1, 2),), 1, 2),
                      EDGE_IDS),
    "endpoint-string": (lambda: Network((1, 2), ((1, 1, "2"),), 1, 2),
                        ENDPOINT),
    "point-bool": (lambda: PointCloud(((True,),)), POINTS),
    "point-string": (lambda: PointCloud((("0",),)), POINTS),
    "point-huge-int": (lambda: PointCloud(((10 ** 400,),)), POINTS),
    "point-nan": (lambda: smallest_enclosing_ball([[math.nan]]), POINTS),
    "points-scalar": (lambda: PointCloud(1.0), ARRAY),
    "radius-bool": (lambda: nerve_complex(CLOUD, True), RADIUS),
    "radius-string": (lambda: nerve_complex(CLOUD, "1"), RADIUS),
    "radius-nan": (lambda: filtration(CLOUD, [math.nan]), RADIUS),
    "radius-negative": (lambda: nerve_complex(CLOUD, -0.5), RADIUS),
    "radii-scalar": (lambda: filtration(CLOUD, 1.0), RADII),
    "tolerance-bool": (lambda: gaussian_ideal(SPEC, True), TOLERANCE),
    "tolerance-string": (lambda: gaussian_ideal(SPEC, "0"), TOLERANCE),
    "tolerance-nan": (lambda: gaussian_ideal(SPEC, math.nan), TOLERANCE),
    "tolerance-negative": (lambda: gaussian_ideal(SPEC, -1), TOLERANCE),
    "centre-bool": (lambda: CubeWindow((True,), 0.1), CENTRE),
    "centre-string": (lambda: CubeWindow(("0",), 0.1), CENTRE),
    "centre-scalar": (lambda: CubeWindow(0.0, 0.1), CENTRE),
    "half-width-bool": (lambda: CubeWindow((0.0,), True), HALF_WIDTH),
    "eps-zero": (lambda: r_factor(0.0, (1,)), EPS),
    "eps-string": (lambda: r_factor("0.1", (1,)), EPS),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES)
def test_readers_refuse_with_the_sites_message(call, message):
    with pytest.raises(DomainError) as refused:
        call()
    assert str(refused.value) == message


def test_tolerance_is_compared_as_given():
    # a Fraction tolerance stays exact: 1/3 as a float is below 1/3
    spec = GaussianSpec((0, 0), ((1, Fraction(1, 3)), (Fraction(1, 3), 1)))
    assert gaussian_ideal(spec, Fraction(1, 3)).generators == (0b11,)
    assert gaussian_ideal(spec, 1 / 3).generators == ()
    assert gaussian_ideal(spec, math.inf).generators == (0b11,)
