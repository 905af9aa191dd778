"""Nerve complex of a union of equal-radius balls around a point cloud, and
its filtration over increasing radii.

The balls B_i(r) at the points of J share a point iff r is at least the
radius of the smallest ball enclosing those points, the *enclosing radius*
er(J).  Each simplex J gets a *birth radius*

    birth(J) = max(er(J), max birth of J's facets),

and the nerve at radius s is the set of J with birth(J) <= s +
FACE_TOLERANCE.  By induction on |J| that is exactly the level-by-level
recursion "enclosing radius within tolerance, and every facet present", so
a whole filtration is one set of birth radii, thresholded at each step.
Simplices are bit masks over point positions.

The simplices grow level by level.  Each face of at most d + 1 points (d
the cloud's dimension) carries its ball, and every face its vertex list
and the mask of the vertices above its highest one that are
joined to all of its vertices in the 1-skeleton; a face grown by v gets its
parent's list plus v and the parent's remaining mask cut to v's upward
neighbours, so no face's bits are read again.  The edges come from one pass
over the point pairs, which also sets every vertex's upward neighbours and
every edge's common ones.  It takes one distance per pair: held against
``_inside``'s slack at a zero radius, it decides whether the pair inherits
a vertex ball, and a pair whose half-distance exceeds r + FACE_TOLERANCE
by a relative 1e-9 is never solved.  That is safe: a solved two-point
radius is the larger of its centre's distances to the two points, so by
the triangle inequality it is at least half their distance up to a few
ulps of ``math.dist``, and such a pair is never born.

A simplex of more than d + 1 points takes the largest birth of its
facets as its own, with no ball tested, solved or kept: a smallest
enclosing ball in R^d is fixed by at most d + 1 boundary points (Welzl
1991), so some facet has the same enclosing radius and J's birth is the
largest of its facets'.

Each simplex J of at most d + 1 points inherits a ball or else solves one.
If a vertex w of J lies in the smallest enclosing ball of J minus w, that
ball encloses J too and is its smallest one; vertices are tried in
ascending order.  Otherwise no vertex lies in the ball of its opposite
facet, so by Welzl's lemma every vertex lies on the boundary of J's
smallest ball: that ball is J's circumball, one ``_circumball`` solve
with no recursion.  Its boundary is
listed as Welzl's recursion over the face, with the newest vertex on the
boundary, would list it in its last call, so a simplex that solves its own
ball gets the radius that recursion would give, bit for bit.  A birth need
not equal ``enclosing_radius(J)``, which runs the recursion over J itself:
a solve lists the boundary from the face, and an inherited ball or a
facet's birth comes from a smaller set.  Edge births equal it bit for bit;
a birth of more vertices can differ from it in the last bit or two.  A
two-point boundary gives the midpoint ball in closed form, and a
three-point one the two-row elimination unrolled, each by the float
operations the Gram elimination (``_gram_ball``) would do, so the ball is
the same bit for bit.  Four or more points, two whose squared distance is
zero, overflows or loses bits to underflow, or three with a degenerate
pivot go through the general elimination.  Welzl's recursion itself serves
only ``smallest_enclosing_ball`` and ``enclosing_radius``.

Each born simplex also gets a *cover radius*, the smallest birth among its
born one-vertex extensions.  The born simplices are closed downward, so
the facets of the nerve at s are the simplices born by s whose cover
radius (if any) exceeds s + FACE_TOLERANCE: they are read off the births,
with no search for the maximal faces."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache
from operator import mul, sub
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

from .errors import DomainError, _int, _ints, _nonnegative_real, _reals
from .graphs import MAX_VERTICES
from .hierarchy import is_decomposable
from .simplicial import SimplicialComplex, _mask_order

#: slack on the ball-intersection test, stabilizes boundary cases
FACE_TOLERANCE = 1e-9
MAX_NERVE_DIM = 8
#: squared distances between coordinates this large stay finite
_MAX_COORDINATE = 1e150


def _rows(points) -> tuple:
    """A non-empty p x d array of finite real numbers, none larger than
    ``_MAX_COORDINATE`` in magnitude, as float tuples."""
    try:
        rows = [tuple(row) for row in points]
    except TypeError:
        rows = []
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise DomainError("points must form a non-empty p x d array")
    rows = tuple(_reals(row, "points must be finite real numbers")
                 for row in rows)
    if any(abs(x) > _MAX_COORDINATE for row in rows for x in row):
        raise DomainError(f"point coordinates must not exceed "
                          f"{_MAX_COORDINATE!r} in magnitude")
    return rows


@dataclass(frozen=True)
class PointCloud:
    points: tuple        # p rows of d coordinates

    def __post_init__(self):
        object.__setattr__(self, "points", _rows(self.points))

    @property
    def p(self):
        return len(self.points)

    @property
    def d(self):
        return len(self.points[0])

    def array(self) -> np.ndarray:
        import numpy as np
        return np.asarray(self.points, dtype=float)


def _inside(pt, ball) -> bool:
    center, radius = ball
    return radius >= 0 and \
        math.dist(pt, center) <= radius * (1 + 1e-12) + 1e-14


def _circumball(boundary: tuple, d: int):
    """Smallest ball with the given points on its boundary.  Two points q,
    b = boundary[0] give the centre b + 0.5 (q - b) in closed form, and
    three give it by the two-row elimination unrolled, each as
    ``_gram_ball`` would compute it; more points, two whose squared
    distance a is zero, non-finite or so small that 0.5 a rounds, or three
    with a degenerate pivot go to ``_gram_ball``."""
    if not boundary:
        return (0.0,) * d, -1.0
    base = boundary[0]
    if len(boundary) == 1:
        return base, 0.0
    if len(boundary) == 2:
        # the elimination's float operations on its one row q - b: lam is
        # (0.5 a) / a, and each centre coordinate adds to b a sum that
        # starts from 0 (so -0.0 turns into 0.0)
        q = boundary[1]
        diff = [x - b for x, b in zip(q, base)]
        a = sum(x * x for x in diff)
        if a and 0.5 * a / a == 0.5:
            center = tuple(b + (0 + 0.5 * x) for b, x in zip(base, diff))
            return center, max(math.dist(center, base),
                               math.dist(center, q))
    elif len(boundary) == 3:
        ball = _two_row_ball(boundary)
        if ball is not None:
            return ball
    return _gram_ball(boundary)


def _two_row_ball(boundary: tuple):
    """``_gram_ball`` on three points, by the same float operations with
    its loops unrolled for two rows; None where a pivot is degenerate,
    which the general elimination handles."""
    base, q, s = boundary
    r1, r2 = list(map(sub, q, base)), list(map(sub, s, base))
    g11, g12 = sum(map(mul, r1, r1)), sum(map(mul, r1, r2))
    g22 = sum(map(mul, r2, r2))
    # max keeps its first argument unless a later one is greater, also
    # where a Gram entry is nan
    tol = 1e-12 * (g22 if g22 > g11 else g11)
    # pivot row (p0, p1, p2) and the other row (o0, o1, o2) of [G | diag/2]
    if abs(g12) > g11:
        p0, p1, p2, o0, o1, o2 = g12, g22, 0.5 * g22, g11, g12, 0.5 * g11
    else:
        p0, p1, p2, o0, o1, o2 = g11, g12, 0.5 * g11, g12, g22, 0.5 * g22
    if abs(p0) <= tol:
        return None
    factor = o0 / p0
    if factor:
        o1, o2 = o1 - factor * p1, o2 - factor * p2
    if abs(o1) <= tol:
        return None
    lam2 = o2 / o1
    lam1 = (p2 - (0 + p1 * lam2)) / p0
    center = tuple(b + (0 + lam1 * x + lam2 * y)
                   for b, x, y in zip(base, r1, r2))
    return center, max(math.dist(center, base), math.dist(center, q),
                       math.dist(center, s))


def _gram_ball(boundary: tuple):
    """Smallest ball with the given points (at least two) on its boundary.
    The center is boundary[0] + sum lam_j (q_j - boundary[0]), where lam
    solves the Gram system G lam = diag(G)/2 by Gaussian elimination with
    partial pivoting.  A point whose pivot is within 1e-12 of the largest
    diagonal entry depends affinely on the earlier ones and is skipped
    (lam_j = 0), which keeps duplicated and collinear inputs finite; the
    radius still covers every boundary point."""
    base = boundary[0]
    rows = [[a - b for a, b in zip(q, base)] for q in boundary[1:]]
    m = len(rows)
    aug = [[sum(x * y for x, y in zip(ri, rj)) for rj in rows]
           + [0.5 * sum(x * x for x in ri)] for ri in rows]
    tol = 1e-12 * max(aug[i][i] for i in range(m))
    free, pivots = list(range(m)), []
    for col in range(m):
        best = max(free, key=lambda i: abs(aug[i][col]))
        if abs(aug[best][col]) <= tol:
            continue
        free.remove(best)
        prow = aug[best]
        for i in free:
            factor = aug[i][col] / prow[col]
            if factor:
                aug[i] = [x - factor * y for x, y in zip(aug[i], prow)]
        pivots.append((best, col))
    lam = [0.0] * m
    for row, col in reversed(pivots):
        r = aug[row]
        lam[col] = (r[m] - sum(r[k] * lam[k] for k in range(col + 1, m))) \
            / r[col]
    center = tuple(b + sum(lj * row[k] for lj, row in zip(lam, rows))
                   for k, b in enumerate(base))
    return center, max(math.dist(center, q) for q in boundary)


@cache
def _shuffle(n: int) -> tuple:
    """The fixed pseudo-random order in which Welzl's recursion visits n
    points."""
    order = list(range(n))
    random.Random(0x5eb).shuffle(order)
    return tuple(order)


def _welzl(points: Sequence[tuple], d: int):
    """Welzl's randomized incremental algorithm on float tuples, with a
    deterministic shuffle: the smallest ball enclosing ``points``."""
    order = [points[i] for i in _shuffle(len(points))]

    def welzl(n, bnd):
        # the loop form of "ball of the first i points, refit with order[i]
        # on the boundary when it falls outside": the recursion is only as
        # deep as the boundary is long
        ball = _circumball(bnd, d)
        if len(bnd) == d + 1:
            return ball
        for i in range(n):
            if not _inside(order[i], ball):
                ball = welzl(i, bnd + (order[i],))
        return ball

    return welzl(len(order), ())


def smallest_enclosing_ball(pts) -> tuple[np.ndarray, float]:
    """Welzl's randomized incremental algorithm (deterministic shuffle)."""
    import numpy as np
    rows = _rows(pts)
    center, radius = _welzl(rows, len(rows[0]))
    return np.array(center), float(radius)


def enclosing_radius(cloud: PointCloud, indices: Iterable[int]) -> float:
    """Smallest common-intersection radius for the balls at the 1-based
    point indices: the equal balls B_i(r) intersect iff r is at least the
    smallest-enclosing-ball radius of the points."""
    indices = _ints(indices, "point indices must be integers")
    if not indices:
        raise DomainError("need a non-empty list of points")
    if not all(1 <= i <= cloud.p for i in indices):
        raise DomainError(f"point indices must lie in 1..{cloud.p}")
    rows = [cloud.points[i - 1] for i in indices]
    return _welzl(rows, cloud.d)[1]


def _radius(r) -> float:
    """A non-negative real number, or infinity; a finite one too large for
    a float (an int such as 10**400) is refused, and so is anything with a
    length but a string, however ragged: equal radii only."""
    if not isinstance(r, (str, bytes)):
        try:
            len(r)
        except TypeError:
            pass
        else:
            raise DomainError("equal radii only: r must be a scalar")
    r = _nonnegative_real(r, "radius must be a non-negative number")
    try:
        return float(r)
    except OverflowError:
        raise DomainError(f"radius {r} is out of float range") from None


def _max_dim(cloud: PointCloud, max_dim) -> int:
    """The dimension cap, once the cloud is known to fit a complex: checked
    before any ball is solved."""
    if cloud.p > MAX_VERTICES:
        raise DomainError(f"at most {MAX_VERTICES} vertices supported")
    if max_dim is None:
        return min(cloud.p - 1, MAX_NERVE_DIM)
    max_dim = _int(max_dim, "max_dim must be an integer")
    if max_dim < 0:
        raise DomainError("max_dim must be non-negative")
    return max_dim


def _births(cloud: PointCloud, r: float, max_dim: int) -> tuple[dict, dict]:
    """Birth radius of every simplex (a bit mask over point positions) of
    the nerve at radius r, up to max_dim, and the cover radius of each one
    with a born one-vertex extension: the smallest birth among those.

    The edges come from one pass over the pairs i < j, from the highest i
    and j down, so that at the pair (i, j) the upward neighbours of j and
    those of i above j are known and the edge's common upward neighbours
    are their intersection.  One distance per pair decides it: a pair
    within ``_inside``'s slack of a vertex ball inherits j's vertex ball,
    as the test against j's ball and then i's would decide; a pair whose
    half-distance exceeds the limit by the relative margin 1e-9 is never
    solved; every other pair solves its two-point circumball.  No born pair
    is skipped: a solved radius is the larger of the centre's distances to
    the two points, at least half their distance by the triangle
    inequality, up to the rounding of ``math.dist``, which is a few ulps
    and far below the margin.

    Above the edges a face f grows only by the vertices above its highest
    one that are joined to every vertex of f in the nerve's 1-skeleton, so
    each candidate arises once; it is kept when all its facets were kept
    and its birth is within tolerance of r.  A candidate of more than
    d + 1 points is born with its facets' largest birth; one of at most
    d + 1 points inherits a facet's ball or solves its circumball.  Each
    kept face carries its ball (None above d + 1 points), its vertex list
    and its mask of common upward neighbours to the next level: the child
    by v takes the list plus v and the mask of the neighbours left after
    v, cut to v's own."""
    pts = cloud.points
    limit = r + FACE_TOLERANCE
    far = limit * (1 + 1e-9)
    p, d = cloud.p, cloud.d
    births = {1 << i: 0.0 for i in range(p)}
    cover: dict = {}
    # upward neighbour masks, and each born edge (none at max_dim 0) with
    # its smallest enclosing ball, its vertices in ascending order and the
    # mask of its common upward neighbours
    up = [0] * p
    level = {}
    for i in reversed(range(p if max_dim else 0)):
        for j in reversed(range(i + 1, p)):
            gap = math.dist(pts[i], pts[j])
            if gap <= 1e-14:
                ball = pts[j], 0.0      # within _inside's slack of j's ball
            elif 0.5 * gap > far:
                continue
            else:
                ball = _circumball((pts[j], pts[i]), d)
            birth = ball[1]
            if birth <= limit:
                edge = 1 << i | 1 << j
                births[edge] = birth
                up[i] |= 1 << j
                level[edge] = ball, [i, j], up[i] & up[j]
                for g in (1 << j, 1 << i):
                    if birth <= cover.get(g, math.inf):
                        cover[g] = birth
    for size in range(3, max_dim + 2):
        if not level:
            break
        # positions in a face's vertex list of the points that a solve puts
        # on the boundary after the new vertex, as _welzl would list them
        picks = tuple(reversed(_shuffle(size - 1)))[:d]
        grown = {}
        for f, (_, verts, rest) in level.items():
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                simplex, corners = f | low, verts + [v]
                facets = [simplex ^ 1 << w for w in corners]
                try:
                    birth = max(map(births.__getitem__, facets))
                except KeyError:
                    continue            # a facet is not in the nerve
                ball = None
                if size <= d + 1:
                    for w, g in zip(corners, facets):
                        ball = level[g][0]
                        if _inside(pts[w], ball):
                            break
                    else:
                        # every vertex lies on the boundary: the circumball,
                        # as the last call of _welzl's recursion over f's
                        # points, with v held on the boundary, would solve it
                        ball = _circumball(
                            (pts[v], *[pts[verts[i]] for i in picks]), d)
                    birth = max(ball[1], birth)
                if birth <= limit:
                    births[simplex] = birth
                    grown[simplex] = ball, corners, rest & up[v]
                    for g in facets:
                        if birth <= cover.get(g, math.inf):
                            cover[g] = birth
        level = grown
    return births, cover


def _threshold(p: int, births: dict, cover: dict, r: float
               ) -> SimplicialComplex:
    """The nerve at radius r.  The born simplices are closed downward, so
    the facets are those born by r with no one-vertex extension born by r.
    """
    limit = r + FACE_TOLERANCE
    return SimplicialComplex(p, tuple(_mask_order(
        s for s, b in births.items()
        if b <= limit and (s not in cover or cover[s] > limit))))


def nerve_complex(cloud: PointCloud, r, max_dim: int | None = None
                  ) -> SimplicialComplex:
    """Faces are the index sets J with a common ball intersection at radius
    r and every facet a face: the simplices of birth radius at most r, up
    to dimension max_dim (default min(p - 1, MAX_NERVE_DIM))."""
    r = _radius(r)
    return _threshold(cloud.p, *_births(cloud, r, _max_dim(cloud, max_dim)),
                      r)


@dataclass(frozen=True)
class FiltrationStep:
    radius: float
    complex: SimplicialComplex
    decomposable: bool


def filtration(cloud: PointCloud, radii: Sequence[float],
               max_dim: int | None = None) -> list[FiltrationStep]:
    """Nested nerve complexes over strictly increasing radii, with a
    decomposability flag per step.  The birth radii are computed once, at
    the largest radius, and each step thresholds them: step r equals
    ``nerve_complex(cloud, r, max_dim)``."""
    try:
        radii = [_radius(r) for r in radii]
    except TypeError:
        raise DomainError("radii must be a list of numbers") from None
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("radii must be strictly increasing")
    max_dim = _max_dim(cloud, max_dim)
    if not radii:
        return []
    births, cover = _births(cloud, radii[-1], max_dim)
    out = []
    for r in radii:
        S = _threshold(cloud.p, births, cover, r)
        out.append(FiltrationStep(r, S, is_decomposable(S)))
    return out


def points_from_csv(text: str) -> PointCloud:
    rows = []
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError:
            raise DomainError(f"CSV line {n}: not a number: {line!r}") \
                from None
    if not rows:
        raise DomainError("CSV holds no points")
    if any(len(r) != len(rows[0]) for r in rows):
        raise DomainError("CSV rows must all have the same dimension")
    return PointCloud(tuple(tuple(r) for r in rows))
