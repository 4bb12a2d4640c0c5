import gc
import random
from functools import cache
from itertools import combinations
from math import comb

import pytest

from subsetspace import expk
from subsetspace import verify as V
from subsetspace.simplicial import (SimplicialError, SimplicialSet,
                                    apply_face, degeneracy_words,
                                    enumerate_level, validate)
from subsetspace.spaces import (edgewise_subdivision, parse_space,
                                subdivided_circle, wedge)
from subsetspace.expk import ResourceCapError, build_expk, level_size
from subsetspace.homology import (SmithResult, expk_homology, homology,
                                  normalized_chains)

from oracles import (chain_tables, degeneracy_set, degenerate,
                     expk_simplicial_set, expk_subsets, find_isomorphism,
                     homology_reference, nondegenerate_subsets_unpruned,
                     simplex_dim, strip_degeneracies,
                     strip_degeneracies_iterative, subset_space_euler,
                     subset_space_f_vector, subset_tuple, word_mask,
                     word_tuple)
from test_acceptance import MATRIX_CASES


def circle():
    return wedge((1,))


def test_strip_single_degenerate_vertex():
    S = circle()
    word, core = strip_degeneracies([degenerate((0, 0), 0)], S)
    assert word_tuple(word) == (0,)
    assert core == subset_tuple([(0, 0)], S)


def test_strip_nondegenerate_pair():
    # {s_0 e, s_1 e} has D-sets {0} and {1}; empty intersection
    S = circle()
    e = (1, 0)
    A = [degenerate(e, 0), degenerate(e, 1)]
    word, core = strip_degeneracies(A, S)
    assert word_tuple(word) == ()
    assert core == subset_tuple(A, S)


def test_strip_mixed_pair():
    # {s_1 s_0 v, s_1 e}: strip i=1 to reach {s_0 v, e}
    S = circle()
    v, e = (0, 0), (1, 0)
    A = [(0, word_mask((1, 0))), degenerate(e, 1)]
    word, core = strip_degeneracies(A, S)
    assert word_tuple(word) == (1,)
    assert core == subset_tuple([e, degenerate(v, 0)], S)


def test_strip_confluence_randomized():
    S = wedge((1, 1))
    rng = random.Random(2024)
    pool = enumerate_level(S, 2) + enumerate_level(S, 3)
    for _ in range(300):
        dim = rng.choice([2, 3])
        level = [x for x in pool if simplex_dim(S, x) == dim]
        A = rng.sample(level, rng.randint(1, 3))
        closed = strip_degeneracies(A, S)
        assert strip_degeneracies_iterative(A, S) == closed
        for seed in range(3):
            assert strip_degeneracies_iterative(
                A, S, order=f"random:{seed}") == closed


def test_strip_rejects_empty_and_mixed_dimensions():
    S = circle()
    with pytest.raises(SimplicialError):
        strip_degeneracies([], S)
    with pytest.raises(SimplicialError):
        # common index 0, cores of dimensions 1 and 0
        strip_degeneracies([degenerate((1, 0), 0),
                            degenerate((0, 0), 0)], S)


def _random_face_table(rng: random.Random) -> SimplicialSet:
    """Three vertices, three edges and two triangles with random faces,
    which mostly break the simplicial identities."""
    S = SimplicialSet()
    vs = [S.add_generator(0) for _ in range(3)]
    es = [S.add_generator(1) for _ in range(3)]
    ts = [S.add_generator(2) for _ in range(2)]
    for e in es:
        S.set_faces(e, [(rng.choice(vs), 0) for _ in range(2)])
    edges = [(e, 0) for e in es] + [degenerate((v, 0), 0) for v in vs]
    for t in ts:
        S.set_faces(t, [rng.choice(edges) for _ in range(3)])
    return S


def _one_vertex_delta_set(rng: random.Random, loops: int,
                          triangles: int) -> SimplicialSet:
    """One vertex v, ``loops`` edges from v to v, and ``triangles``
    2-simplices whose faces are drawn from the loops and s_0 v.  Every
    vertex of a face is v, so each such table satisfies the simplicial
    identities."""
    S = SimplicialSet()
    v = S.add_generator(0)
    edges = [degenerate((v, 0), 0)]
    for _ in range(loops):
        e = S.add_generator(1)
        S.set_faces(e, [(v, 0)] * 2)
        edges.append((e, 0))
    for _ in range(triangles):
        S.set_faces(S.add_generator(2), [rng.choice(edges) for _ in range(3)])
    return S


def _delta_set_draws(rng: random.Random):
    """24 random one-vertex Delta-sets, each with the k of its exp_k: k = 2
    with up to three loops and three triangles, k = 3 with up to three
    generators of positive dimension."""
    for draw in range(24):
        k = 2 + draw % 2
        loops = rng.randint(1, 3 if k == 2 else 2)
        triangles = rng.randint(1, 3 if k == 2 else 3 - loops)
        yield _one_vertex_delta_set(rng, loops, triangles), k


@cache
def _oracle_cases() -> tuple:
    """(S, k, expk_simplicial_set(S, k)) on every matrix case, then on the
    24 random one-vertex Delta-sets, each oracle built once for the tests
    that read it."""
    cases = [(parse_space(desc)[1], k) for desc, k in MATRIX_CASES]
    cases += _delta_set_draws(random.Random(909))
    return tuple((S, k, expk_simplicial_set(S, k)) for S, k in cases)


def test_random_one_vertex_delta_sets():
    """exp_2 and exp_3 of random one-vertex Delta-sets, whose triangles have
    non-degenerate faces: the oracle's face tables against the face-by-face
    stripper (all of them at k = 2, a sample at k = 3), and the build's
    chains against the f-vector and Euler oracles and the SNF reference;
    the oracle's exp_1 S is S."""
    rng = random.Random(909)
    with_torsion = 0
    for S, k, X in _oracle_cases()[len(MATRIX_CASES):]:
        assert validate(S) is None
        assert validate(X) is None
        subsets = expk_subsets(S, k)
        id_of = {sub: g for g, sub in enumerate(subsets)}
        gens = [g for g, sub in enumerate(subsets) if simplex_dim(S, sub[0])]
        for g in gens if k == 2 else rng.sample(gens, 60):
            n = simplex_dim(S, subsets[g][0])
            for i in range(n + 1):
                word, core = strip_degeneracies_iterative(
                    [apply_face(a, i, S) for a in subsets[g]], S)
                assert X.faces[g][i] == (id_of[core], word)
        C = build_expk(S, k).result
        assert C.f_vector() == subset_space_f_vector(S.dim_of, k)
        assert C.check_dd_zero()
        h = homology(C)
        assert h == homology_reference(C)
        chi = sum((-1) ** n * f for n, f in enumerate(S.f_vector()))
        assert h.euler == subset_space_euler(chi, k)
        assert find_isomorphism(expk_simplicial_set(S, 1), S) is not None
        with_torsion += any(h.torsion)
    assert with_torsion >= 5


def test_word_is_degeneracy_set():
    """x lies in the image of s_i exactly when i is in its normal-form word
    (Eilenberg-Zilber), also when the face table breaks the simplicial
    identities."""
    spaces = []
    for desc, k in [("s1", 4), ("s2", 3), ("wedge:1,1", 3), ("circle:4", 3)]:
        S = parse_space(desc)[1]
        spaces += [S, expk_simplicial_set(S, k)]
    rng = random.Random(31)
    broken = [_random_face_table(rng) for _ in range(5)]
    assert all(validate(S) is not None for S in broken)
    checked = 0
    for S in spaces + broken:
        for n in range(S.dim + 3):
            for x in enumerate_level(S, n):
                assert (frozenset(word_tuple(x[1]))
                        == degeneracy_set(x, S)), x
                checked += 1
    assert checked > 12_000


def test_pruned_search_matches_unpruned():
    """The pruned search returns exactly the unpruned search's subsets, in
    the same order, on random levels over generators of mixed dimensions
    (sorted as a level is, or shuffled)."""
    rng = random.Random(6006)
    checked = found = 0
    while checked < 300:
        dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        k = rng.randint(1, 4)
        n = rng.randint(0, k * max(dims))
        words = [w for d in dims if d <= n for w in degeneracy_words(d, n - d)]
        if not words or len(words) > 20:
            continue
        if rng.random() < 0.5:
            rng.shuffle(words)
        full = (1 << n) - 1
        comps = [full ^ w for w in words]
        expected = nondegenerate_subsets_unpruned(
            [frozenset(word_tuple(w)) for w in words], k)
        assert expk._nondegenerate_subsets(comps, full, k,
                                           max(dims)) == expected
        checked += 1
        found += bool(expected)
    assert 50 < found < checked


def test_edgewise_subdivision_invariance_on_random_delta_sets():
    """exp_2 of each k = 2 draw and of its edgewise subdivision have the
    same homology, torsion included: exp_2 esd S = esd exp_2 S."""
    for S, k in _delta_set_draws(random.Random(909)):
        if k == 2:
            E = edgewise_subdivision(S)
            assert validate(E) is None
            assert V.invariance_check(S, E, k).verdict == V.PASS


def test_oracle_subsets_give_the_generator_ids():
    """Seeded output rests on the build's generator ids: level by level, the
    non-degenerate subsets in lexicographic order of level indices.  The
    oracle's subsets, found by the unpruned search over membership-test
    degeneracy sets, are the generators of its exp_k in that order; they
    number the build's generators and have their dimensions, on every
    matrix case and the random one-vertex Delta-sets.  The face-table tests
    compare ids through them."""
    for S, k, X in _oracle_cases():
        C = build_expk(S, k).result
        assert X.n_generators == C.n_generators
        assert X.dim_of == [n for n, f in enumerate(C.f_vector())
                            for _ in range(f)]


def test_build_is_the_normalized_chains_of_the_oracles_exp_k():
    """build_expk's chains are those of exp_k S built from the tuple model
    (expk_simplicial_set: every face put in normal form, degenerate ones
    too), boundary for boundary and basis for basis, on every matrix case
    and the random one-vertex Delta-sets.  So reading a missing face key as
    a degenerate face drops exactly the faces that add 0."""
    for S, k, X in _oracle_cases():
        assert chain_tables(build_expk(S, k).result) == chain_tables(
            normalized_chains(X)), k


def test_f_vector_closed_form_s3k3():
    S = wedge((3,))
    assert (build_expk(S, 3).result.f_vector()
            == subset_space_f_vector(S.dim_of, 3))


def test_build_and_homology_leave_no_reference_cycles():
    """The premise of the collector pause in cli.main: building exp_k and
    its homology leaves nothing for the cyclic collector."""
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for desc, k in MATRIX_CASES:
            homology(build_expk(parse_space(desc)[1], k).result)
            assert gc.collect() == 0, (desc, k)
    finally:
        if was:
            gc.enable()


def test_k1_build_is_the_base_itself(monkeypatch):
    """exp_1 S is S ({x} -> x): a k = 1 build returns S's own normalized
    chains, with the cells_enumerated of S's levels, and enumerates no
    level and applies no face map.  wedge(2, 1, 2) has ids out of dimension
    order."""
    def refuse(*args):
        raise AssertionError("called by a k = 1 build")

    monkeypatch.setattr(expk, "enumerate_level", refuse)
    monkeypatch.setattr(expk, "apply_face", refuse)
    bases = [parse_space(desc)[1] for desc, _ in MATRIX_CASES]
    for S in bases + [wedge((2, 1, 2))]:
        space = build_expk(S, 1)
        assert chain_tables(space.result) == chain_tables(
            normalized_chains(S))
        assert space.cells_enumerated == sum(level_size(S, n)
                                             for n in range(S.dim + 1))


def test_build_exp2_circle_generators():
    S = circle()
    assert build_expk(S, 2).result.f_vector() == [1, 2, 1]
    X = expk_simplicial_set(S, 2)
    subsets = expk_subsets(S, 2)
    assert [simplex_dim(S, sub[0]) for sub in subsets] == X.dim_of
    subsets = {n: [sub for sub in subsets if simplex_dim(S, sub[0]) == n]
               for n in range(X.dim + 1)}
    v, e = (0, 0), (1, 0)
    assert subsets[0] == [subset_tuple([v], S)]
    assert set(subsets[1]) == {subset_tuple([e], S),
                               subset_tuple([e, degenerate(v, 0)], S)}
    assert subsets[2] == [
        subset_tuple([degenerate(e, 0), degenerate(e, 1)], S)]
    assert validate(X) is None


def test_exp2_circle_rejects_degenerate_level2_pair():
    # {s_0 e, s_1 s_0 v} has common degeneracy index 0
    S = circle()
    A = [degenerate((1, 0), 0), (0, word_mask((1, 0)))]
    assert strip_degeneracies(A, S) == (
        word_mask((0,)),
        subset_tuple([(1, 0), degenerate((0, 0), 0)], S))
    assert subset_tuple(A, S) not in expk_subsets(S, 2)


def test_exp1_is_identity_on_all_builders():
    """exp_1 S, built from the tuple model through its subsets, is
    isomorphic to S, and its chains are the k = 1 build's."""
    for S in [circle(), wedge((2,)), wedge((3,)), wedge((1, 1)),
              wedge((2, 2)), subdivided_circle(3)]:
        X = expk_simplicial_set(S, 1)
        assert find_isomorphism(X, S) is not None
        assert chain_tables(normalized_chains(X)) == chain_tables(
            build_expk(S, 1).result)


def test_exp1_of_a_300_sphere():
    """exp_1 S^300 = S^300: its faces come from words of length up to 300,
    and its reduced homology is Z in degree 300 alone."""
    h = homology(build_expk(wedge((300,)), 1).result, reduced=True)
    assert h.betti == [0] * 300 + [1]
    assert not any(h.torsion)


def test_exp1_homology_of_a_20000_sphere():
    """exp_1 S^20000 is S^20000, so its homology costs no build and no
    quadratic face check: reduced, Z in degree 20000 alone."""
    h, _ = expk_homology(wedge((20000,)), 1, True)
    assert h.betti == [0] * 20000 + [1]
    assert not any(h.torsion)


def test_exp3_circle_dimension_and_validity():
    assert len(build_expk(circle(), 3).result.boundaries) - 1 == 3
    assert validate(expk_simplicial_set(circle(), 3)) is None


def test_dimension_bound():
    for S, k in [(circle(), 2), (circle(), 3), (wedge((2,)), 2)]:
        assert len(build_expk(S, k).result.boundaries) - 1 <= k * S.dim


def test_monotone_inclusion():
    """Non-degenerate generators of exp_k embed in exp_{k+1} with the same
    faces."""
    S = wedge((1, 1))
    for k in (1, 2):
        small = expk_simplicial_set(S, k)
        big = expk_simplicial_set(S, k + 1)
        small_subsets = expk_subsets(S, k)
        big_subsets = expk_subsets(S, k + 1)
        big_id = {sub: g for g, sub in enumerate(big_subsets)}
        for g, sub in enumerate(small_subsets):
            assert sub in big_id
            if small.dim_of[g] >= 1:
                fs = small.faces[g]
                fb = big.faces[big_id[sub]]
                for (x, wx), (y, wy) in zip(fs, fb):
                    assert wx == wy
                    assert small_subsets[x] == big_subsets[y]


def test_resource_cap_triggers():
    with pytest.raises(ResourceCapError) as exc:
        build_expk(circle(), 3, max_cells=4)
    report = exc.value.report
    assert report["cap"] == 4
    assert report["projected_cells"] > 4


def test_oracle_circle_level1():
    """Level 1 of exp_2 S^1 holds the 3 nonempty subsets of the 2 simplices
    of S^1_1, and the check passes there with the build's cell count."""
    S = circle()
    assert level_size(S, 1) == 2
    assert level_size(expk_simplicial_set(S, 2), 1) == 3
    assert V.level_count_check(S, 2, 1) == (V.PASS, None, 10)


def test_oracle_class_count_formula():
    for S, k, n in [(circle(), 2, 2), (wedge((2,)), 3, 2),
                    (wedge((1, 1)), 2, 1),
                    (subdivided_circle(3), 2, 1)]:
        m = len(enumerate_level(S, n))
        space = build_expk(S, k)
        assert (level_size(expk_simplicial_set(S, k), n)
                == sum(comb(m, j) for j in range(1, k + 1)))
        assert V.level_count_check(S, k, n) == (V.PASS, None,
                                                space.cells_enumerated)


def test_oracle_matches_subset_count():
    """exp_k S's level size is the itertools count of the subsets of size
    <= k of the enumerated level, and level_size(S, n) is |S_n|."""
    for S, k, n in [(circle(), 2, 1), (circle(), 2, 2), (wedge((2,)), 3, 2),
                    (wedge((1, 1)), 2, 1),
                    (subdivided_circle(3), 2, 1)]:
        level = enumerate_level(S, n)
        subsets = sum(1 for size in range(1, k + 1)
                      for _ in combinations(level, size))
        assert level_size(expk_simplicial_set(S, k), n) == subsets
    for S in [circle(), wedge((2,)), wedge((1, 2)),
              subdivided_circle(3)]:
        for n in range(5):
            assert level_size(S, n) == len(enumerate_level(S, n))


def test_oracle_checks_cap_before_enumerating(monkeypatch):
    """The check sizes every level of the build before it enumerates any,
    and a level above the build's top dimension is checked, not refused:
    its simplices are all degenerate, and their count still holds."""
    calls = []
    real = expk.enumerate_level

    def recorder(S, n):
        calls.append(n)
        return real(S, n)

    monkeypatch.setattr(expk, "enumerate_level", recorder)
    with pytest.raises(ResourceCapError):
        V.level_count_check(wedge((1, 1, 1)), 4, 4, max_cells=100)
    assert calls == []
    assert V.level_count_check(wedge((2,)), 2, 400) == (V.PASS, None, 43)
    with pytest.raises(SimplicialError, match="dimension must be >= 0"):
        V.level_count_check(wedge((2,)), 2, -1)


def test_oracle_resource_cap():
    """The check refuses exactly where build_expk does, with its report."""
    S = wedge((1, 1, 1))
    with pytest.raises(ResourceCapError) as built:
        build_expk(S, 4, max_cells=100)
    with pytest.raises(ResourceCapError) as checked:
        V.level_count_check(S, 4, 4, max_cells=100)
    assert checked.value.report == built.value.report == {
        "level": 3, "level_size": 10, "projected_cells": 175, "cap": 100}


def test_records_compare_and_hash_as_their_field_tuples():
    """Set orders, generator ids and seeded output rest on this: a
    simplex is the plain tuple (base, word) of two ints, so it hashes and
    sorts as that pair; the records are immutable and carry no __dict__,
    ExpkSpace holds only the complex and its count, and SmithResult's
    default cleared is empty."""
    S = wedge((1, 2))
    for n in range(5):
        level = enumerate_level(S, n)
        assert all(type(x) is tuple and list(map(type, x)) == [int, int]
                   for x in level)
        shuffled = random.Random(n).sample(level, len(level))
        assert sorted(shuffled) == level
    space = build_expk(S, 2)
    records = [(space, "result"), (homology(space.result), "betti")]
    for record, field in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert space._fields == ("result", "cells_enumerated")
    assert SmithResult(rank=0, divisors=[]).cleared == ()


@pytest.mark.parametrize("call, refusal", [
    (lambda S: build_expk(S, 0), "k must be >= 1"),
    (lambda S: V.lemma1_check(S, [], 1), "cover must be nonempty"),
    (lambda S: S.add_generator(-1), "generator dimension must be >= 0"),
    (lambda S: apply_face((S.add_generator(1), 0), 0, S),
     "generator 2 has no face table"),
    (lambda S: enumerate_level(S, -1), "dimension must be >= 0"),
    (lambda S: S.add_generator(1) and validate(S), (2, 0, 0)),
    (lambda S: S.faces.__setitem__(0, S.faces[1]) or validate(S), (0, 0, 0)),
    (lambda S: parse_space("wedge:1," + "9" * 5000), "bad wedge descriptor"),
    (lambda S: parse_space("circle:" + "9" * 5000), "bad circle descriptor"),
], ids=["k-0", "empty-cover", "negative-dim", "no-face-table", "level--1",
        "edge-without-faces", "vertex-with-faces", "wedge-over-int-limit",
        "circle-over-int-limit"])
def test_each_guard_refuses_its_input(call, refusal):
    """Each refusal on the circle S = wedge((1,)) (vertex 0, edge 1): a guard
    that raises gives its message, and validate its first violation."""
    S = wedge((1,))
    if isinstance(refusal, str):
        with pytest.raises((SimplicialError, ValueError), match=refusal):
            call(S)
    else:
        assert call(S) == refusal
