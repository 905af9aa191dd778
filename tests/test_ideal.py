"""Square-free ideals: Stanley-Reisner in both directions, membership,
Froeberg 2-linearity and Ferrer recognition against the brute-force clique
oracle."""
import random

import pytest

from hmi import (FerrerShape, make_complex, make_ideal, stanley_reisner,
                 complex_of, contains, has_2linear_resolution,
                 recognize_ferrer, ferrer_cliques)
from hmi.errors import DomainError
from hmi.ideal import format_generators, ideal_to_json, ideal_from_json
from hmi.simplicial import SimplicialComplex

from oracles import (brute_chordal, brute_ferrer, brute_force_cliques,
                     brute_maximal_cliques)


def gens(I):
    return sorted((sorted(g) for g in I.generator_sets()),
                  key=lambda g: (len(g), g))


# ---------------------------------------------------------------------------
# Stanley-Reisner correspondence

def test_sr_golden_examples():
    cases = [
        (3, [[1, 3], [2, 3]], [[1, 2]]),
        (4, [[1, 2], [2, 3], [3, 4], [1, 4]], [[1, 3], [2, 4]]),
        (3, [[1, 2], [2, 3], [1, 3]], [[1, 2, 3]]),
        (5, [[1, 2, 3], [2, 3, 4], [3, 4, 5]],
         [[1, 4], [1, 5], [2, 5]]),
    ]
    for p, facets, expected in cases:
        S = make_complex(p, facets)
        assert gens(stanley_reisner(S)) == expected


def test_sr_round_trip_random():
    rng = random.Random(7)
    for _ in range(100):
        p = rng.randint(2, 6)
        faces = [rng.sample(range(1, p + 1), rng.randint(1, p))
                 for _ in range(rng.randint(1, 4))]
        S = make_complex(p, faces)
        assert complex_of(stanley_reisner(S)) == S
        I = stanley_reisner(S)
        assert stanley_reisner(complex_of(I)) == I


def test_sr_void_complex_rejected():
    with pytest.raises(DomainError, match="unit ideal"):
        stanley_reisner(SimplicialComplex(3, ()))


def test_complex_of_zero_ideal_is_full_simplex():
    I = make_ideal(3, [])
    assert complex_of(I).facet_sets() == [frozenset({1, 2, 3})]


def test_membership():
    I = make_ideal(5, [[1, 4], [1, 5], [2, 5]])
    assert contains(I, {1, 4})
    assert contains(I, {1, 4, 3})
    assert not contains(I, {1, 2, 3})
    assert contains(I, (1, 0, 0, 2, 0))     # x1*x4^2 is divisible by x1*x4
    assert not contains(I, (0, 1, 1, 1, 0))
    with pytest.raises(DomainError):
        contains(I, (1, 0, 0))
    with pytest.raises(DomainError):
        contains(I, {7})


@pytest.mark.parametrize("m", [(-1, -1, 0), ("a", "b", ""), (0.5, 1.0, 0),
                               (True, True, 0), 5])
def test_exponent_vectors_read_as_multi_indices(m):
    # each of these read as the support {1, 2} before, so x1*x2 divided it
    I = make_ideal(3, [[1, 2]])
    with pytest.raises(DomainError, match="invalid multi-index"):
        contains(I, m)
    assert contains(I, (1, 1, 0)) and not contains(I, [0, 1, 1])


def test_make_ideal_rejects_bad_labels_and_generators():
    with pytest.raises(DomainError):
        make_ideal(2, [[3]], labels=[3, 3])
    with pytest.raises(DomainError):
        make_ideal(2, [1, 2])               # generators must be label lists
    I = make_ideal(3, [[9, 4]], labels=(9, 2, 4))
    assert contains(I, {4, 9}) and contains(I, (1, 0, 1))
    assert not contains(I, {2, 9})
    with pytest.raises(DomainError):
        contains(I, {1})


def test_make_ideal_minimalizes():
    I = make_ideal(3, [[1], [1, 2], [2, 3]])
    assert gens(I) == [[1], [2, 3]]
    with pytest.raises(DomainError):
        make_ideal(3, [[]])


# ---------------------------------------------------------------------------
# 2-linear resolution

def test_2linear_golden():
    # chordal complement: chain complex ideal
    assert has_2linear_resolution(make_ideal(5, [[1, 4], [1, 5], [2, 5]]))
    # 4-cycle complex: complement of {13, 24} is the 4-cycle, not chordal
    assert not has_2linear_resolution(make_ideal(4, [[1, 3], [2, 4]]))
    # degree-3 generator disqualifies
    assert not has_2linear_resolution(make_ideal(3, [[1, 2, 3]]))


def test_2linear_matches_brute_force_chordality():
    rng = random.Random(99)
    for _ in range(100):
        p = rng.randint(2, 6)
        pairs = [(i, j) for i in range(1, p + 1)
                 for j in range(i + 1, p + 1)]
        chosen = [e for e in pairs if rng.random() < 0.5]
        if not chosen:
            continue
        I = make_ideal(p, chosen)
        complement = [e for e in pairs if e not in chosen]
        assert has_2linear_resolution(I) == brute_chordal(p, complement)


# ---------------------------------------------------------------------------
# Ferrer ideals

NINE = [[1, 6], [1, 7], [1, 8], [2, 6], [2, 7], [3, 6], [3, 7], [4, 6],
        [5, 6]]


def test_ferrer_nine_generator_example():
    I = make_ideal(9, NINE)
    shape = recognize_ferrer(I)
    assert shape is not None
    assert shape.lengths == (3, 2, 2, 1, 1)
    assert shape.rows == (1, 2, 3, 4, 5)
    assert shape.cols == (6, 7, 8, 9)
    cliques, seps = ferrer_cliques(shape)
    assert [set(c) for c in cliques] == [
        {1, 2, 3, 4, 5, 9}, {2, 3, 4, 5, 8, 9}, {4, 5, 7, 8, 9},
        {6, 7, 8, 9}]
    assert [set(s) for s in seps] == [
        {2, 3, 4, 5, 9}, {4, 5, 8, 9}, {7, 8, 9}]


def test_ferrer_cliques_match_brute_force():
    I = make_ideal(9, NINE)
    shape = recognize_ferrer(I)
    cliques, _ = ferrer_cliques(shape)
    assert sorted(cliques, key=lambda c: (len(c), sorted(c))) == \
        brute_force_cliques(I)


def test_random_staircases_are_recognized():
    rng = random.Random(5)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        lengths = sorted((rng.randint(1, cols) for _ in range(rows)),
                         reverse=True)
        generators = [(r, rows + c + 1)
                      for r in range(1, rows + 1)
                      for c in range(lengths[r - 1])]
        p = rows + cols
        I = make_ideal(p, generators)
        shape = recognize_ferrer(I)
        assert shape is not None
        cliques, seps = ferrer_cliques(shape)
        assert sorted(cliques, key=lambda c: (len(c), sorted(c))) == \
            brute_force_cliques(I)
        # perfect sequence: decomposable, so cliques match the complex
        S = complex_of(I)
        assert sorted(S.facet_sets(), key=lambda c: (len(c), sorted(c))) \
            == sorted(cliques, key=lambda c: (len(c), sorted(c)))


def test_non_ferrer_cases():
    # odd cycle in the generator graph
    assert recognize_ferrer(make_ideal(3, [[1, 2], [2, 3], [1, 3]])) is None
    # disconnected bipartite support
    assert recognize_ferrer(make_ideal(4, [[1, 3], [2, 4]])) is None
    # connected bipartite but with an induced 2K2 (path 1-4-2-5-3), so no
    # ordering gives an inverse staircase
    assert recognize_ferrer(
        make_ideal(5, [[1, 4], [2, 4], [2, 5], [3, 5]])) is None
    # 4-cycle minus a corner IS a staircase after reordering columns
    assert recognize_ferrer(
        make_ideal(4, [[1, 3], [2, 4], [1, 4]])) is not None
    # degree-3 generator
    assert recognize_ferrer(make_ideal(3, [[1, 2, 3]])) is None
    # zero ideal
    assert recognize_ferrer(make_ideal(2, [])) is None


def test_single_generator_ferrer():
    I = make_ideal(2, [[1, 2]])
    shape = recognize_ferrer(I)
    assert shape.lengths == (1,)
    cliques, seps = ferrer_cliques(shape)
    assert set(map(tuple, map(sorted, cliques))) == {(1,), (2,)}
    assert seps == [frozenset()]


def test_ferrer_always_2linear():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        lengths = sorted((rng.randint(1, cols) for _ in range(rows)),
                         reverse=True)
        generators = [(r, rows + c + 1) for r in range(1, rows + 1)
                      for c in range(lengths[r - 1])]
        I = make_ideal(rows + cols, generators)
        assert has_2linear_resolution(I)


def random_degree2_ideal(rng):
    """A seeded degree-2 ideal on 2..8 variables: a random bipartite
    generator set, or a relabelled staircase with one row-column pair
    toggled; labels are custom half the time, and variables may be
    isolated."""
    p = rng.randint(2, 8)
    if rng.random() < 0.5:
        left = rng.randint(1, p - 1)
        pairs = [(a, b) for a in range(1, left + 1)
                 for b in range(left + 1, p + 1) if rng.random() < 0.6]
    else:
        r = rng.randint(1, p - 1)
        lengths = sorted((rng.randint(1, p - r) for _ in range(r)),
                         reverse=True)
        lab = rng.sample(range(1, p + 1), p)
        rows, cols = lab[:r], lab[r:]
        pairs = {frozenset((rows[i], cols[j]))
                 for i in range(r) for j in range(lengths[i])}
        pairs ^= {frozenset((rng.choice(rows), rng.choice(cols)))}
        pairs = [tuple(pair) for pair in pairs]
    labels = None
    if rng.random() < 0.5:
        labels = [f"v{x}" for x in rng.sample(range(10, 40), p)]
        pairs = [(labels[a - 1], labels[b - 1]) for a, b in pairs]
    return make_ideal(p, pairs, labels=labels), pairs


def test_recognize_ferrer_matches_oracle():
    rng = random.Random(15)
    recognised = 0
    for _ in range(400):
        I, pairs = random_degree2_ideal(rng)
        shape = recognize_ferrer(I)
        assert (shape is not None) == brute_ferrer(pairs)
        if shape is None:
            continue
        recognised += 1
        # a witness: the rows and columns split the labels, the lowest
        # used label is a row, and row i meets the first lambda_i columns
        assert sorted(shape.rows + shape.cols) == sorted(I.labels)
        used = {v for pair in pairs for v in pair}
        assert min(used) in shape.rows
        assert {frozenset((r, c)) for r, n in zip(shape.rows, shape.lengths)
                for c in shape.cols[:n]} == {frozenset(g) for g in pairs}
        cliques, _ = ferrer_cliques(shape)
        assert sorted(cliques, key=lambda c: (len(c), sorted(c))) == \
            brute_force_cliques(I)
    assert 100 < recognised < 300


@pytest.mark.parametrize("rows, cols, lengths", [
    ((1, 2), (3,), (1,)),               # a length missing
    ((1,), (2,), (1, 1)),               # a length too many
    ((1,), (2,), (0,)),                 # an empty row
    ((1,), (2,), (2,)),                 # longer than the columns
    ((1, 2), (3, 4), (1, 2)),           # increasing
    ((1,), (2,), (1.0,)),               # not an integer
    ((1,), (2,), (True,)),
    ((1,), (2,), 1),                    # not a sequence
    (None, (1,), (1,)),                 # rows without a length
])
def test_invalid_ferrer_shapes_rejected(rows, cols, lengths):
    with pytest.raises(DomainError):
        FerrerShape(rows, cols, lengths)


# ---------------------------------------------------------------------------
# serialization / formatting

def test_json_round_trip():
    I = make_ideal(5, [[1, 4], [2, 5]])
    assert ideal_from_json(ideal_to_json(I)) == I
    J = make_ideal(2, [[2, 5]], labels=(2, 5))
    assert ideal_from_json(ideal_to_json(J)) == J
    with pytest.raises(DomainError):
        ideal_from_json({"p": 2})


def test_format_generators():
    I = make_ideal(5, [[2, 5], [1, 5], [1, 4]])
    assert format_generators(I) == "x1*x4, x1*x5, x2*x5"


def test_brute_maximal_cliques_oracle_self_check():
    # square with one diagonal: cliques 123 is not one; triangles {1,2,4}?
    edges = [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]
    assert brute_maximal_cliques(4, edges) == [
        frozenset({1, 2, 3}), frozenset({1, 3, 4})]
