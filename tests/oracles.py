"""Independent reference implementations used to certify the package.

Everything here deliberately takes a different route from the library code:
multiset partitions come from labelled set partitions, chordality from an
exhaustive induced-cycle search, cliques and non-faces from subset
enumeration, smallest enclosing balls from every small boundary subset,
Gaussian moments from the Stein/Isserlis recursion in exact rational
arithmetic, differential moments and cumulants of the CLI's density
families from exact log-density polynomials by Faa di Bruno, and local
moments from arrays laid out on the full quadrature grid.
"""
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial


# ---------------------------------------------------------------------------
# set partitions and multiset partitions

def set_partitions(items):
    """All partitions of a list of distinct labels."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def bell(n):
    """Bell numbers by the triangle recurrence."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def _positions(k):
    """Expand a multi-index into one labelled position per unit."""
    out = []
    for i, v in enumerate(k):
        out.extend((i, copy) for copy in range(v))
    return out


def _project(block, p):
    vec = [0] * p
    for i, _ in block:
        vec[i] += 1
    return tuple(vec)


def multiset_partition_counts(k):
    """Map each multiset partition of k (canonical: blocks sorted
    descending) to the number of labelled set partitions projecting to it.
    That count is the collapse number."""
    p = len(k)
    counts = {}
    for part in set_partitions(_positions(k)):
        blocks = tuple(sorted((_project(b, p) for b in part), reverse=True))
        counts[blocks] = counts.get(blocks, 0) + 1
    return counts


def cumulant_by_set_partitions(k, moment):
    """kappa_k as the sum over labelled set partitions pi of k's positions
    of (-1)^(|pi|-1) (|pi|-1)! prod_B m(B), each block B projected back to
    a multi-index; no collapse numbers and no recursion."""
    p = len(k)
    total = 0
    for part in set_partitions(_positions(k)):
        term = (-1) ** (len(part) - 1) * factorial(len(part) - 1)
        for block in part:
            term = term * moment(_project(block, p))
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Gaussian moments (Isserlis/Stein recursion, exact)

def isserlis_moment(mean, cov, indices):
    """E[prod x_i for i in indices] for a Gaussian with the given mean and
    covariance, indices 0-based with repetition, all exact Fractions."""
    mean = tuple(Fraction(m) for m in mean)
    cov = tuple(tuple(Fraction(c) for c in row) for row in cov)

    @lru_cache(maxsize=None)
    def mom(idx):
        if not idx:
            return Fraction(1)
        a, rest = idx[0], idx[1:]
        total = mean[a] * mom(rest)
        for j in range(len(rest)):
            total += cov[a][rest[j]] * mom(rest[:j] + rest[j + 1:])
        return total

    return mom(tuple(sorted(indices)))


def gaussian_moment_table(mean, cov, max_order):
    """Moment table {multi-index: Fraction} for all orders up to
    max_order."""
    p = len(mean)

    def vectors(order):
        if order == 0:
            yield (0,) * p
            return
        for head in vectors(order - 1):
            for i in range(p):
                yield head[:i] + (head[i] + 1,) + head[i + 1:]

    table = {}
    for order in range(max_order + 1):
        for k in set(vectors(order)):
            idx = []
            for i, v in enumerate(k):
                idx.extend([i] * v)
            table[k] = isserlis_moment(mean, cov, idx)
    return table


# ---------------------------------------------------------------------------
# graphs by brute force

def brute_chordal(p, edges):
    """True iff no induced cycle of length >= 4: a vertex subset induces a
    chordless cycle exactly when every member has degree 2 inside the subset
    and the induced subgraph is connected."""
    edges = {frozenset(e) for e in edges}
    verts = list(range(1, p + 1))
    for size in range(4, p + 1):
        for sub in combinations(verts, size):
            inside = set(sub)
            deg = {v: 0 for v in sub}
            adj = {v: [] for v in sub}
            for e in edges:
                a, b = tuple(e)
                if a in inside and b in inside:
                    deg[a] += 1
                    deg[b] += 1
                    adj[a].append(b)
                    adj[b].append(a)
            if any(deg[v] != 2 for v in sub):
                continue
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == size:
                return False
    return True


def brute_maximal_cliques(p, edges):
    """Maximal cliques by subset enumeration, as frozensets of labels."""
    edges = {frozenset(e) for e in edges}
    verts = list(range(1, p + 1))

    def is_clique(sub):
        return all(frozenset((a, b)) in edges
                   for a, b in combinations(sub, 2))

    cliques = [frozenset(sub) for size in range(1, p + 1)
               for sub in combinations(verts, size) if is_clique(sub)]
    return sorted((c for c in cliques
                   if not any(c < other for other in cliques)),
                  key=lambda c: (len(c), sorted(c)))


def brute_force_cliques(ideal):
    """Maximal cliques of the graph of variable pairs that are not
    generators of a square-free ideal, on the ideal's own labels."""
    labels = ideal.labels
    index = {lbl: i + 1 for i, lbl in enumerate(labels)}
    gens = {frozenset(index[v] for v in g) for g in ideal.generator_sets()}
    pairs = [pair for pair in combinations(range(1, ideal.p + 1), 2)
             if frozenset(pair) not in gens]
    cliques = [frozenset(labels[v - 1] for v in c)
               for c in brute_maximal_cliques(ideal.p, pairs)]
    return sorted(cliques, key=lambda c: (len(c), sorted(c)))


def brute_ferrer(pairs):
    """True iff the label pairs are the edges of a Ferrer (difference)
    graph: some set of rows holds exactly one end of every pair, and the
    rows' neighbourhoods, as label sets, are pairwise nested.  Every subset
    of the used labels is tried as the rows, so both sides of every
    two-colouring are tried and neither is preferred."""
    pairs = [tuple(pair) for pair in pairs]
    if not pairs or any(len(set(pair)) != 2 for pair in pairs):
        return False
    used = list({v for pair in pairs for v in pair})
    for size in range(1, len(used) + 1):
        for rows in map(set, combinations(used, size)):
            if any((a in rows) == (b in rows) for a, b in pairs):
                continue
            nbhd = [{b if a == r else a for a, b in pairs if r in (a, b)}
                    for r in rows]
            if all(x <= y or y <= x for x, y in combinations(nbhd, 2)):
                return True
    return False


# ---------------------------------------------------------------------------
# two-terminal networks by brute force

def brute_paths_and_cuts(edges, source, target):
    """Minimal path and cut edge-id sets of a network with edges
    (id, u, v), by subset enumeration and a reachability closure.  Joining
    the terminals is monotone in the edge set, so a set is minimal exactly
    when no single edge can be dropped (paths) or given back (cuts).  Both
    lists come in (size, lexicographic) order."""
    ids = frozenset(e[0] for e in edges)

    def joined(kept):
        reach, grew = {source}, True
        while grew:
            grew = False
            for eid, u, v in edges:
                if eid in kept and (u in reach) != (v in reach):
                    reach |= {u, v}
                    grew = True
        return target in reach

    subsets = [frozenset(c) for size in range(len(ids) + 1)
               for c in combinations(sorted(ids), size)]
    paths = [s for s in subsets
             if joined(s) and not any(joined(s - {e}) for e in s)]
    cuts = [s for s in subsets if not joined(ids - s)
            and all(joined(ids - s | {e}) for e in s)]
    return paths, cuts


# ---------------------------------------------------------------------------
# hitting sets and simplicial complexes by brute force

def brute_minimal_transversals(p, edge_masks):
    """Inclusion-minimal hitting sets of a family of bit masks over
    positions 0..p-1, by subset enumeration, as masks in (size, value)
    order.  Hitting sets are closed upwards, so one is minimal exactly when
    dropping any single member loses an edge."""
    edges = [{i for i in range(p) if e >> i & 1} for e in edge_masks]

    def hits(sub):
        return all(sub & e for e in edges)

    subsets = (set(sub) for size in range(p + 1)
               for sub in combinations(range(p), size))
    minimal = [sub for sub in subsets
               if hits(sub) and not any(hits(sub - {v}) for v in sub)]
    masks = [sum(1 << i for i in sub) for sub in minimal]
    return sorted(masks, key=lambda m: (bin(m).count("1"), m))


def all_complexes(p):
    """Every simplicial complex on vertices 1..p, as its facet list: an
    antichain of frozensets, listed in (size, lexicographic) order.  The
    void complex is ``[]`` and the empty complex ``[frozenset()]``.  Each
    antichain is grown one subset at a time, in that order, by a subset
    comparable with none chosen so far, so each is yielded exactly once
    (Dedekind's number of them: 168 for p = 4, 7,581 for p = 5)."""
    subsets = [frozenset(c) for size in range(p + 1)
               for c in combinations(range(1, p + 1), size)]

    def grow(start, chosen):
        yield chosen
        for i in range(start, len(subsets)):
            s = subsets[i]
            if not any(s <= f or f <= s for f in chosen):
                yield from grow(i + 1, chosen + [s])

    return grow(0, [])


def brute_minimal_nonfaces(p, facet_sets):
    """Inclusion-minimal non-faces of the complex with the given facets
    (frozensets of labels 1..p), by subset enumeration."""
    facets = [frozenset(f) for f in facet_sets]

    def face(sub):
        return any(sub <= f for f in facets)

    nonfaces = [frozenset(sub) for size in range(p + 1)
                for sub in combinations(range(1, p + 1), size)
                if not face(frozenset(sub))]
    minimal = [n for n in nonfaces
               if not any(m < n for m in nonfaces)]
    return sorted(minimal, key=lambda f: (len(f), sorted(f)))


# ---------------------------------------------------------------------------
# smallest enclosing balls

def brute_meb_radius(points):
    """Radius of the smallest ball enclosing the points (rows of d floats),
    by trying the circumball of every affinely independent subset of at most
    d + 1 points and keeping the smallest one that contains them all."""
    import numpy as np
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    best = np.inf
    for size in range(1, min(n, d + 1) + 1):
        for sub in combinations(range(n), size):
            base = pts[sub[0]]
            rows = pts[list(sub[1:])] - base
            center = base
            if size > 1:
                sv = np.linalg.svd(rows, compute_uv=False)
                if sv[-1] <= 1e-6 * sv[0]:
                    continue            # (nearly) affinely dependent
                gram = rows @ rows.T
                center = base + np.linalg.solve(gram,
                                                0.5 * np.diag(gram)) @ rows
            radius = np.linalg.norm(pts[list(sub)] - center, axis=1).max()
            if np.linalg.norm(pts - center, axis=1).max() <= radius + 1e-12:
                best = min(best, float(radius))
    return best


# ---------------------------------------------------------------------------
# local moments over the full grid

def full_grid_moments(density, center, eps, nodes=None, samples=None,
                      seed=None):
    """The local moment function nu -> (w . (x^nu f)) / (w . f) with every
    array laid out on the full grid, numpy only: the tensor Gauss-Legendre
    offsets as p tiled columns in C order over the axes (the last varies
    fastest) and their transposed (N, p) view, the density read once on
    the F-layout points centre + offsets, each monomial the product of the
    full offset columns x_i ** nu_i taken left to right over the nonzero
    nu_i, and one ``weights @`` per moment.  With ``samples``, the seeded
    uniform offsets ``default_rng(seed).uniform(-eps, eps, (samples, p))``
    and unit weights take the grid's place.  ``density`` maps an (N, p)
    array to N values."""
    import numpy as np
    p = len(center)
    if samples is None:
        t, w = np.polynomial.legendre.leggauss(nodes)
        offs = eps * t
        columns = np.empty((p, nodes ** p))
        for i in range(p):
            columns[i] = np.tile(np.repeat(offs, nodes ** (p - 1 - i)),
                                 nodes ** i)
        offsets = columns.T
        weights = w
        for _ in range(p - 1):
            weights = np.multiply.outer(weights, w)
        weights = weights.ravel()
    else:
        offsets = np.random.default_rng(seed).uniform(-eps, eps,
                                                      size=(samples, p))
        weights = np.ones(samples)
    pts = np.asarray(center, dtype=float) + offsets
    assert samples is not None or pts.flags.f_contiguous
    vals = density(pts)
    denom = float(weights @ vals)

    def moment(nu):
        mono = None
        for i, e in enumerate(nu):
            if e:
                column = offsets[:, i] ** e
                mono = column if mono is None else mono * column
        return float(weights @ (vals if mono is None else mono * vals)) / denom
    return moment


# ---------------------------------------------------------------------------
# exact linear algebra

def fraction_inverse(matrix):
    """The inverse of a non-singular square matrix, by Gauss-Jordan
    elimination over Fractions; any non-zero pivot will do, since nothing
    is rounded."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                          for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


# ---------------------------------------------------------------------------
# exact differential moments and cumulants of the CLI's density families

def density_log_poly(obj):
    """log f of a density JSON object, up to the normalising constant, as
    {exponent tuple: Fraction}: -(x - mu)' Lambda (x - mu) / 2 for
    ``gaussian``, the same with Lambda = diag(1 / variance) for
    ``product``, and sum_s a_s x^s for ``mec``.  Every number is read as
    ``Fraction(x)``, so a float counts as the binary value it holds."""
    if obj["family"] == "mec":
        return {tuple(int(ch) for ch in key): Fraction(a)
                for key, a in obj["coeffs"].items()}
    if obj["family"] == "product":
        mean = [Fraction(m) for m in obj["means"]]
        p = len(mean)
        lam = [[1 / Fraction(v) if i == j else Fraction(0)
                for j in range(p)] for i, v in enumerate(obj["variances"])]
    else:
        mean = [Fraction(m) for m in obj["mean"]]
        p = len(mean)
        lam = [[Fraction(x) for x in row] for row in obj["precision"]]
    poly = {}

    def add(axes, coeff):
        exp = tuple(axes.count(i) for i in range(p))
        poly[exp] = poly.get(exp, 0) + coeff

    for i in range(p):
        for j in range(p):
            c = -lam[i][j] / 2          # c (x_i - mu_i)(x_j - mu_j)
            add([i, j], c)
            add([i], -c * mean[j])
            add([j], -c * mean[i])
            add([], c * mean[i] * mean[j])
    return {exp: c for exp, c in poly.items() if c}


def log_poly_derivative(poly, axes, point):
    """D^B g at a point, exact, for a polynomial {exponent: coefficient}
    and a set B of axes each differentiated once."""
    point = [Fraction(x) for x in point]
    total = Fraction(0)
    for exp, coeff in poly.items():
        term = coeff
        for i, (e, x) in enumerate(zip(exp, point)):
            term *= (e * x ** (e - 1) if e else 0) if i in axes else x ** e
        total += term
    return total


def exact_derivative_ratio(poly, alpha, point):
    """D^alpha f / f at a point for f = exp(g) and a binary alpha, by Faa di
    Bruno: the sum over the set partitions of alpha's axes of the product
    of D^B g over the blocks B."""
    total = Fraction(0)
    for part in set_partitions([i for i, a in enumerate(alpha) if a]):
        term = Fraction(1)
        for block in part:
            term *= log_poly_derivative(poly, set(block), point)
        total += term
    return total


def exact_differential_cumulant(poly, k, point):
    """kappa^xi_k of f = exp(g) at the point xi: the set-partition sum over
    the differential moments, each taken by its parity as
    D^(nu mod 2) f / f."""
    return cumulant_by_set_partitions(
        k, lambda nu: exact_derivative_ratio(
            poly, [v % 2 for v in nu], point))
