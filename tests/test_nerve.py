"""Smallest enclosing balls and nerve complexes: geometric goldens, the
collinear filtration, nesting and edge-before-face ordering, the brute Čech
comparison on random and lattice clouds, facets against the maximal born
simplices, two- and three-point balls against the Gram elimination, Welzl's
algorithm on 3,000 points, and the ball-solve count in the plane and in
space."""
import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmi import (PointCloud, smallest_enclosing_ball, nerve_complex,
                 filtration, nerve)
from hmi.errors import DomainError
from hmi.nerve import FACE_TOLERANCE, enclosing_radius, points_from_csv
from oracles import brute_meb_radius


def test_seb_goldens():
    # two points: radius is half the distance
    _, r = smallest_enclosing_ball([[0.0, 0.0], [2.0, 0.0]])
    assert r == pytest.approx(1.0)
    # equilateral triangle with side 1: circumradius 1/sqrt(3)
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    c, r = smallest_enclosing_ball(pts)
    assert r == pytest.approx(1 / math.sqrt(3))
    # obtuse triangle: ball determined by the long side only
    pts = [[0.0, 0.0], [4.0, 0.0], [2.0, 0.1]]
    c, r = smallest_enclosing_ball(pts)
    assert r == pytest.approx(2.0)
    assert c == pytest.approx([2.0, 0.0])
    # single point
    _, r = smallest_enclosing_ball([[3.0, 4.0]])
    assert r == 0.0
    # duplicated points stay finite
    _, r = smallest_enclosing_ball([[1.0, 1.0]] * 4)
    assert r == pytest.approx(0.0, abs=1e-12)


def test_seb_contains_all_points_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        pts = rng.normal(size=(rng.integers(1, 12), rng.integers(1, 4)))
        c, r = smallest_enclosing_ball(pts)
        dists = np.linalg.norm(pts - c, axis=1)
        assert np.all(dists <= r * (1 + 1e-9) + 1e-12)
        # minimality: some point is (nearly) on the boundary
        assert dists.max() == pytest.approx(r, abs=1e-9)


def test_seb_of_3000_points_recurses_only_along_the_boundary():
    # an equilateral triangle inscribed in the unit circle and seeded points
    # inside its incircle: one frame per point would pass Python's
    # recursion limit
    rng = np.random.default_rng(29)
    h = math.sqrt(3) / 2
    rho = 0.45 * np.sqrt(rng.uniform(size=2997))
    theta = rng.uniform(0.0, 2 * math.pi, size=2997)
    pts = [(1.0, 0.0), (-0.5, h), (-0.5, -h)] + \
        list(zip((rho * np.cos(theta)).tolist(),
                 (rho * np.sin(theta)).tolist()))
    rng.shuffle(pts)
    c, r = smallest_enclosing_ball(pts)
    assert np.abs(c).max() <= 1e-12 and abs(r - 1) <= 1e-12
    assert abs(enclosing_radius(PointCloud(pts), range(1, 3001)) - 1) \
        <= 1e-12


def test_seb_matches_brute_on_degenerate_clouds():
    # points on a lower-dimensional lattice inside R^d: duplicates and
    # affinely dependent boundary sets are the rule, not the exception
    rng = np.random.default_rng(5)
    for _ in range(100):
        n, d = int(rng.integers(2, 9)), int(rng.integers(2, 4))
        k = int(rng.integers(1, d))
        coeff = rng.integers(-3, 4, size=(n, k)) * 0.1
        pts = rng.normal(size=d) + coeff @ rng.normal(size=(k, d))
        _, r = smallest_enclosing_ball(pts)
        assert r == pytest.approx(brute_meb_radius(pts), rel=1e-9, abs=1e-12)


def test_collinear_filtration_golden():
    cloud = PointCloud(((0.0,), (1.0,), (3.0,)))
    steps = filtration(cloud, [0.4, 0.6, 1.1, 1.6])
    facets = [sorted(sorted(f) for f in s.complex.facet_sets())
              for s in steps]
    assert facets == [
        [[1], [2], [3]],
        [[1, 2], [3]],
        [[1, 2], [2, 3]],
        [[1, 2, 3]],
    ]
    assert all(s.decomposable for s in steps)


def test_enclosing_radius_matches_seb():
    cloud = PointCloud(((0.0, 0.0), (2.0, 0.0), (1.0, 1.0)))
    assert enclosing_radius(cloud, [1, 2]) == pytest.approx(1.0)
    assert enclosing_radius(cloud, [1, 2, 3]) == \
        pytest.approx(smallest_enclosing_ball(cloud.array())[1])


def test_nesting_on_random_clouds():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        cloud = PointCloud(tuple(map(tuple, rng.normal(size=(n, 2)))))
        radii = sorted(set(float(r) for r in rng.uniform(0.05, 2.0, 4)))
        if len(radii) < 2:
            continue
        steps = filtration(cloud, radii)
        for a, b in zip(steps, steps[1:]):
            for f in a.complex.facet_sets():
                assert any(f <= g for g in b.complex.facet_sets())


def test_acute_triangle_edges_before_face():
    # acute triangle: the circumradius strictly exceeds every half-side, so
    # there is a radius with all edges present but the 2-face missing
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    cloud = PointCloud(tuple(map(tuple, pts)))
    edge_r = 0.5
    face_r = 1 / math.sqrt(3)
    between = (edge_r + face_r) / 2
    S = nerve_complex(cloud, between)
    assert set(S.facet_sets()) == {frozenset({1, 2}), frozenset({1, 3}),
                                   frozenset({2, 3})}
    full = nerve_complex(cloud, face_r + 0.01)
    assert set(full.facet_sets()) == {frozenset({1, 2, 3})}


def _faces(S):
    return {frozenset(sub) for f in S.facet_sets()
            for size in range(1, len(f) + 1)
            for sub in combinations(sorted(f), size)}


def _brute_meb(pts):
    p = len(pts)
    return {frozenset(sub): brute_meb_radius(pts[[i - 1 for i in sub]])
            for size in range(1, p + 1)
            for sub in combinations(range(1, p + 1), size)}


def test_nerve_matches_brute_cech():
    # the nerve at r is every index set whose smallest enclosing ball has
    # radius at most r; clouds include lattice points, so duplicates and
    # collinear triples occur
    rng = np.random.default_rng(41)
    checked = 0
    for trial in range(60):
        p, d = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        pts = rng.normal(size=(p, d))
        if trial % 2:
            pts = np.round(pts * 2) / 2
            pts[-1] = pts[0]
        radii = sorted(float(r) for r in rng.uniform(0.05, 2.0, 3))
        meb = _brute_meb(pts)
        if any(abs(v - r) < 1e-7 for v in meb.values() for r in radii):
            continue
        cloud = PointCloud(tuple(map(tuple, pts)))
        steps = filtration(cloud, radii)
        for r, step in zip(radii, steps):
            want = {s for s, v in meb.items() if v <= r + FACE_TOLERANCE}
            S = nerve_complex(cloud, r)
            assert _faces(S) == want
            assert step.complex == S
        checked += 1
    assert checked >= 50


@st.composite
def lattice_clouds(draw):
    # integer points in a 3^d box: cocircular squares, collinear triples
    # and duplicates, where every vertex of a simplex may lie on its ball
    d = draw(st.integers(1, 3))
    coords = st.lists(st.integers(0, 2), min_size=d, max_size=d)
    return np.array(draw(st.lists(coords, min_size=1, max_size=7)),
                    dtype=float)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lattice_clouds(),
       st.lists(st.floats(0.05, 2.5), min_size=1, max_size=3, unique=True))
def test_nerve_matches_brute_cech_on_lattices(pts, radii):
    meb = _brute_meb(pts)
    radii = sorted(r for r in radii
                   if all(abs(v - r) >= 1e-7 for v in meb.values()))
    cloud = PointCloud(tuple(map(tuple, pts)))
    for r, step in zip(radii, filtration(cloud, radii)):
        assert _faces(step.complex) == \
            {s for s, v in meb.items() if v <= r + FACE_TOLERANCE}


def _solves(monkeypatch, pts, radii):
    """How often the filtration over pts solves each boundary point set;
    Welzl's recursion must never run."""
    def no_welzl(*args):
        raise AssertionError("Welzl's recursion ran")
    solved = Counter()
    circumball = nerve._circumball

    def counted(boundary, d):
        solved[frozenset(boundary)] += 1
        return circumball(boundary, d)
    monkeypatch.setattr(nerve, "_welzl", no_welzl)
    monkeypatch.setattr(nerve, "_circumball", counted)
    assert len(filtration(PointCloud(pts), radii)) == len(radii)
    return solved


def test_filtration_solves_each_simplex_at_most_once(monkeypatch):
    # a jittered 5 x 4 planar grid: every simplex inherits a facet's ball or
    # solves its circumball once, and Welzl's recursion never runs; in the
    # plane a solved simplex has at most d + 1 = 3 vertices, so the
    # boundary is the whole simplex
    rng = np.random.default_rng(12)
    pts = [(0.9 * i + rng.uniform(-0.018, 0.018),
            0.9 * j + rng.uniform(-0.018, 0.018))
           for i in range(5) for j in range(4)]
    solved = _solves(monkeypatch, pts, [0.35, 0.55, 0.75, 0.95, 1.1])
    assert solved and max(solved.values()) == 1


def test_filtration_solves_each_simplex_at_most_once_in_space(monkeypatch):
    # a jittered 3 x 2 x 2 grid at spacing 1.07: two-, three- and four-point
    # boundaries are all solved, each at most once
    rng = np.random.default_rng(13)
    pts = [tuple(1.07 * (i + rng.uniform(-0.02, 0.02)) for i in idx)
           for idx in np.ndindex(3, 2, 2)]
    solved = _solves(monkeypatch, pts, [0.45, 0.65, 0.85, 1.0])
    assert max(solved.values()) == 1
    assert {len(b) for b in solved} == {2, 3, 4}


def _clouds(rng, trials):
    """Random clouds, half-integer clouds with a duplicated point, and
    integer points in a 3^d box, with d = 1..3."""
    for trial in range(trials):
        p, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        if trial % 3 == 0:
            pts = rng.normal(size=(p, d))
        elif trial % 3 == 1:
            pts = np.round(rng.normal(size=(p, d)) * 2) / 2
            pts[-1] = pts[0]
        else:
            pts = rng.integers(0, 3, size=(p, d)).astype(float)
        yield PointCloud(tuple(map(tuple, pts)))


@pytest.mark.parametrize("max_dim", [0, 1, 2, None])
def test_facets_are_the_maximal_born_simplices(max_dim):
    # facets are read off the cover radii; here they are found by brute
    # force among the simplices born by each radius
    rng = np.random.default_rng(61)
    for cloud in _clouds(rng, 45):
        radii = sorted(float(r) for r in rng.uniform(0.05, 2.0, 3))
        cap = nerve._max_dim(cloud, max_dim)
        births, cover = nerve._births(cloud, radii[-1], cap)
        assert all(s.bit_count() <= cap + 1 for s in births)
        assert all(s ^ 1 << v in births for s in births if s.bit_count() > 1
                   for v in range(cloud.p) if s >> v & 1)

        def maximal_born(r):
            born = [s for s, b in births.items() if b <= r + FACE_TOLERANCE]
            return tuple(sorted(
                (s for s in born if not any(s != t and s & t == s
                                            for t in born)),
                key=lambda s: (s.bit_count(), s)))
        for r, step in zip(radii, filtration(cloud, radii, max_dim)):
            assert step.complex.facets == maximal_born(r)
            assert step.complex == nerve_complex(cloud, r, max_dim)
        # radii at which some birth lies exactly on the tolerance limit
        for b in set(births.values()):
            r = b - FACE_TOLERANCE
            if r >= 0 and r + FACE_TOLERANCE == b:
                assert nerve._threshold(cloud.p, births, cover, r).facets \
                    == maximal_born(r)


def _hex_ball(ball):
    center, radius = ball
    return [x.hex() for x in center], radius.hex()


def test_two_point_ball_is_the_elimination_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(67)
    pairs = [((0.0, 0.0), (0.0, 0.0)), ((1.5, -2.0), (1.5, -2.0)),
             ((-0.0, 0.0), (0.0, -0.0)), ((0.0, -0.0), (-0.0, 1.0)),
             ((-0.0, 0.0), (-5e-324, 1.0)), ((-0.0,), (-1e-310,)),
             ((1.0, 2.0), (1.0 + 1e-15, 2.0)), ((0.3,), (0.3 + 4e-15,))]
    for d in (1, 2, 3):
        for exp in (-200, -160, -154, -150, -14, 0, 150, 154, 160, 200):
            for _ in range(20):
                b = tuple(map(float, rng.normal(size=d) * 10.0 ** exp))
                q = tuple(x + float(rng.normal()) * 10.0 ** exp for x in b)
                pairs.append((b, q))
                pairs.append((b, tuple(x * (1 + float(rng.normal()) * 1e-14)
                                       for x in b)))
    gram = nerve._gram_ball
    want = [_hex_ball(gram((b, q))) for b, q in pairs]
    eliminated = []
    monkeypatch.setattr(nerve, "_gram_ball",
                        lambda boundary: eliminated.append(boundary)
                        or gram(boundary))
    assert [_hex_ball(nerve._circumball((b, q), len(b)))
            for b, q in pairs] == want
    # coincident, underflowing and overflowing pairs are eliminated
    assert ((0.0, 0.0), (0.0, 0.0)) in eliminated
    assert 0 < len(eliminated) < len(pairs) // 2


def test_three_point_ball_is_the_elimination_bit_for_bit(monkeypatch):
    # the unrolled two-row elimination against the general loop; every
    # degenerate pivot must still reach the general loop
    nan, inf = float("nan"), float("inf")
    degenerate = [
        ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)),              # collinear
        ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (-1.0, -2.0, -3.0)),
        ((1.0, 2.0), (1.0, 2.0), (3.0, 4.0)),              # duplicated
        ((1.0, 2.0), (3.0, 4.0), (3.0, 4.0)),
        ((1.0, 2.0), (3.0, 4.0), (1.0, 2.0)),
        ((-0.0, 0.0), (0.0, -0.0), (-0.0, 1.0)),
        # overflow: the Gram entries are inf and g12 = inf - inf is nan
        ((0.0, 0.0), (1e155, 1e155), (1e155, -1e155)),
        ((0.0, 0.0), (1e155, 0.0), (1.0, 1.0)),
        ((0.0, 0.0), (1.0, 0.0), (inf, 1.0)),
        # g22 is nan: max keeps g11 = 0 as the scale, so the zero pivot is
        # degenerate
        ((0.0, 0.0), (0.0, 0.0), (nan, 1.0)),
    ]
    eliminated_directly = [
        ((0.0, 0.0), (0.1, 0.0), (1.0, 1.0)),              # |g12| > g11
        ((0.0, 0.0), (0.1, 0.0), (-1.0, 1.0)),
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),  # factor 0
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)),  # |g12| = g11
        ((0.0, 0.0), (2.0, 0.0), (-2.0, 1.0)),
        ((0.0, 0.0), (1.0, 0.0), (nan, 0.0)),              # g12, g22 nan
    ]
    triples = degenerate + eliminated_directly
    well_scaled = []
    rng = np.random.default_rng(73)
    for d in (2, 3):
        for exp in (-200, -160, -154, -150, -14, 0, 150, 154, 160, 200):
            for _ in range(20):
                b = tuple(map(float, rng.normal(size=d) * 10.0 ** exp))
                q, s = (tuple(x + float(rng.normal()) * 10.0 ** exp
                              for x in b) for _ in range(2))
                triples.append((b, q, s))
                if abs(exp) <= 150:
                    well_scaled.append((b, q, s))
                # nearly collinear: s close to b + 2 (q - b)
                triples.append((b, q, tuple(
                    x + 2 * (y - x) * (1 + float(rng.normal()) * 1e-14)
                    for x, y in zip(b, q))))
    gram = nerve._gram_ball
    want = [_hex_ball(gram(t)) for t in triples]
    eliminated = []
    monkeypatch.setattr(nerve, "_gram_ball",
                        lambda boundary: eliminated.append(boundary)
                        or gram(boundary))
    assert [_hex_ball(nerve._circumball(t, len(t[0]))) for t in triples] \
        == want
    assert all(t in eliminated for t in degenerate)
    assert not any(t in eliminated
                   for t in eliminated_directly + well_scaled)
    # squares that overflow or underflow, and near-collinear triples, make
    # a degenerate pivot
    assert len(eliminated) > len(degenerate) + len(triples) // 4


def test_edge_births_are_enclosing_radii_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(71)
    for cloud in _clouds(rng, 60):
        births, _ = nerve._births(cloud, math.inf, 1)
        for s, b in births.items():
            if s.bit_count() == 2:
                u, v = (i + 1 for i in range(cloud.p) if s >> i & 1)
                assert b.hex() == enclosing_radius(cloud, [u, v]).hex()
    # points within 1e-14 inherit a vertex ball: no solve, birth 0
    solved = []
    monkeypatch.setattr(nerve, "_circumball",
                        lambda boundary, d: solved.append(boundary))
    cloud = PointCloud(((0.25, -1.0), (0.25 + 4e-15, -1.0 - 4e-15)))
    births, cover = nerve._births(cloud, 0.0, 1)
    assert births[0b11] == 0.0 and not solved
    assert nerve._threshold(2, births, cover, 0.0).facets == (0b11,)


def test_max_dim_cap():
    rng = np.random.default_rng(3)
    cloud = PointCloud(tuple(map(tuple, rng.normal(size=(6, 2)) * 0.01)))
    S = nerve_complex(cloud, 10.0, max_dim=1)
    assert max(len(f) for f in S.facet_sets()) <= 2


def test_nerve_validation():
    cloud = PointCloud(((0.0,), (1.0,)))
    with pytest.raises(DomainError, match="scalar"):
        nerve_complex(cloud, [0.1, 0.2])
    with pytest.raises(DomainError):
        nerve_complex(cloud, -1.0)
    with pytest.raises(DomainError, match="strictly increasing"):
        filtration(cloud, [0.2, 0.1])
    nan = float("nan")
    with pytest.raises(DomainError):
        nerve_complex(cloud, nan)
    with pytest.raises(DomainError):
        filtration(cloud, [nan, 1.0])
    with pytest.raises(DomainError):
        filtration(cloud, [0.1, nan])
    with pytest.raises(DomainError):
        filtration(cloud, [-1.0, 1.0])
    with pytest.raises(DomainError):
        nerve_complex(cloud, 1.0, max_dim=-1)
    with pytest.raises(DomainError):
        filtration(cloud, [0.5, 1.0], max_dim=-1)
    with pytest.raises(DomainError, match="integer"):
        nerve_complex(cloud, 1.0, max_dim=1.5)
    for indices in ([0, 1], [1, 3], [-1], [1.0], []):
        with pytest.raises(DomainError):
            enclosing_radius(cloud, indices)
    with pytest.raises(DomainError):
        PointCloud(((float("nan"),),))
    with pytest.raises(DomainError):
        PointCloud(())
    # non-numbers, strings and booleans are neither radii nor coordinates
    for r in ("abc", None, "0.7", True):
        with pytest.raises(DomainError):
            nerve_complex(cloud, r)
    for radii in (None, "0.5"):
        with pytest.raises(DomainError):
            filtration(cloud, radii)
    for rows in (((0.0,), (1.0, 2.0)), ("ab", "cd"), ((True,), (False,))):
        with pytest.raises(DomainError):
            PointCloud(rows)
    inf = float("inf")
    for pts in ([[nan, 0.0]], [[inf, 0.0]], [[0.0, 0.0], [1.0]],
                [["a", "b"]]):
        with pytest.raises(DomainError):
            smallest_enclosing_ball(pts)
    with pytest.raises(DomainError, match="integer"):
        nerve_complex(cloud, 1.0, max_dim=True)
    with pytest.raises(DomainError):
        enclosing_radius(cloud, [True, 2])
    # an infinite radius joins every ball
    assert nerve_complex(cloud, inf).facet_sets() == [frozenset({1, 2})]


def test_coordinates_are_bounded_so_squared_distances_stay_finite():
    # at 1e154 the squared distance overflowed: the midpoint ball came out
    # as 2e154, and at 1e308 as nan
    s = 1e150
    assert enclosing_radius(PointCloud([[s], [-s]]), [1, 2]) == s
    for s in (1e154, 1e308, -1e151):
        with pytest.raises(DomainError) as refused:
            PointCloud([[s], [0.0]])
        assert str(refused.value) == \
            "point coordinates must not exceed 1e+150 in magnitude"
        with pytest.raises(DomainError):
            smallest_enclosing_ball([[0.0, s]])


def test_too_many_points_fail_before_any_ball(monkeypatch):
    def no_births(*args):
        raise AssertionError("a birth radius was computed")
    monkeypatch.setattr(nerve, "_births", no_births)
    cloud = PointCloud(tuple((float(i),) for i in range(70)))
    with pytest.raises(DomainError, match="at most 64"):
        nerve_complex(cloud, 1.0)
    with pytest.raises(DomainError, match="at most 64"):
        filtration(cloud, [0.5, 1.0])


def test_points_from_csv():
    cloud = points_from_csv("0,0\n1, 0\n\n0.5,0.8\n")
    assert cloud.p == 3 and cloud.d == 2
    with pytest.raises(DomainError):
        points_from_csv("1,2\n3\n")
    with pytest.raises(DomainError):
        points_from_csv("")
    with pytest.raises(DomainError):
        points_from_csv("0,0\n1,x\n")
