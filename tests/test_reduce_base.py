"""The reduced base S/K (spaces.reduce_base) and the homology of exp_k S
computed on it (homology.expk_homology), checked against full builds of
exp_k S on a shelf of triangulated bases, and the closed-form f-vector of
exp_k S against the test oracle and the build."""

import random
from functools import cache
from itertools import combinations

import pytest

from subsetspace import expk, homology as homology_module
from subsetspace.expk import (ResourceCapError, build_expk, capped_cells,
                              expk_f_vector)
from subsetspace.homology import expk_homology, homology, normalized_chains
from subsetspace.simplicial import SimplicialSet, validate
from subsetspace.spaces import edgewise_subdivision, parse_space, reduce_base

from oracles import (complex_to_sset, expk_f_vector_reference,
                     moore_space_z2, subset_space_euler,
                     subset_space_f_vector)
from test_acceptance import MATRIX_CASES


def random_connected_graph(seed: int) -> list[tuple[int, int]]:
    """The edges of a seeded random connected graph: a random spanning tree
    on 4 to 6 vertices and one to three more edges."""
    rng = random.Random(seed)
    v = rng.randint(4, 6)
    tree = [(rng.randrange(i), i) for i in range(1, v)]
    rest = [e for e in combinations(range(v), 2) if e not in tree]
    return tree + rng.sample(rest, rng.randint(1, 3))


def loop_bounding_a_triangle() -> SimplicialSet:
    """One vertex v, a loop a, and a 2-simplex with faces (a, s_0 v, s_0 v):
    (a, the 2-simplex) is an elementary expansion, so S/K is a point."""
    S = SimplicialSet()
    v, a, t = (S.add_generator(d) for d in (0, 1, 2))
    S.set_faces(a, [(v, 0), (v, 0)])
    S.set_faces(t, [(a, 0), (v, 1), (v, 1)])
    return S


# name -> (base, largest k checked); every base has an expansion
SHELF = {
    "K4": (complex_to_sset(combinations(range(4), 2)), 3),
    "theta": (complex_to_sset([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]), 3),
    "filled-triangle": (complex_to_sset([(0, 1, 2)]), 3),
    "boundary-tetrahedron": (complex_to_sset(combinations(range(4), 3)), 3),
    "boundary-4-simplex": (complex_to_sset(combinations(range(5), 4)), 2),
    "RP2-6": (complex_to_sset([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5),
                               (0, 1, 5), (1, 2, 4), (2, 3, 5), (1, 3, 4),
                               (2, 4, 5), (1, 3, 5)]), 2),
    "two-circles": (complex_to_sset([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                     (3, 5)]), 3),
    "path-and-point": (complex_to_sset([(0, 1), (1, 2), (3,)]), 3),
    **{f"graph-{seed}": (complex_to_sset(random_connected_graph(seed)), 3)
       for seed in range(4)},
    **{f"circle:{v}": (parse_space(f"circle:{v}")[1], 3)
       for v in range(3, 7)},
    # two vertices, and faces of the form s_0 v
    "esd-wedge:1,2": (edgewise_subdivision(parse_space("wedge:1,2")[1]), 2),
    "loop-bounding-a-triangle": (loop_bounding_a_triangle(), 3),
}


@cache
def full_build(name: str, k: int):
    return build_expk(SHELF[name][0], k)


def euler(S) -> int:
    return sum((-1) ** n * f for n, f in enumerate(S.f_vector()))


def components(S) -> int:
    """The components of S, by union-find over generators and face bases."""
    parent = list(range(len(S.dim_of)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for g, faces in enumerate(S.faces):
        for base, _ in faces or ():
            parent[find(base)] = find(g)
    return len({find(v) for v, d in enumerate(S.dim_of) if d == 0})


@pytest.mark.parametrize("name", SHELF)
def test_homology_on_the_reduced_base_is_the_full_builds(name):
    """expk_homology, which builds exp_k(S/K), gives the HomologyResult and
    cells_enumerated of the full exp_k S, reduced and unreduced."""
    S, top = SHELF[name]
    assert reduce_base(S) is not S
    for k in range(1, top + 1):
        full = full_build(name, k)
        for reduced in (False, True):
            assert expk_homology(S, k, reduced) == (
                homology(full.result, reduced),
                full.cells_enumerated), (k, reduced)


def test_the_cap_is_tested_on_s_before_s_mod_k_is_built(monkeypatch):
    """expk_homology tests S's cap first and then builds exp_k(S/K), whose
    build tests S/K's cap, so an over-cap S is refused at its own first
    level over the cap, also where S/K passes."""
    calls, built = [], []

    def counting(S, k, max_cells):
        calls.append(S)
        return capped_cells(S, k, max_cells)

    def building(S, k, max_cells):
        built.append(S)
        return build_expk(S, k, max_cells)

    monkeypatch.setattr(expk, "capped_cells", counting)
    monkeypatch.setattr(homology_module, "capped_cells", counting)
    monkeypatch.setattr(homology_module, "build_expk", building)
    S = parse_space("s2")[1]
    assert expk_homology(S, 3)[1] == capped_cells(S, 3, 200_000)
    assert calls == [S, S] and built == [S]
    T = SHELF["K4"][0]
    calls.clear()
    built.clear()
    expk_homology(T, 3)
    R = reduce_base(T)
    assert calls[0] is T and calls[1:] == built and len(built) == 1
    assert built[0] is not T
    assert (built[0].dim_of, built[0].faces) == (R.dim_of, R.faces)
    with pytest.raises(ResourceCapError) as refused:
        expk_homology(T, 3, max_cells=200)
    assert refused.value.report["level"] == 2
    assert capped_cells(R, 3, 200) == 253


def test_the_reduced_base_keeps_euler_and_one_vertex_per_component():
    bases = [S for S, _ in SHELF.values()]
    bases += [parse_space(desc)[1] for desc, _ in MATRIX_CASES]
    for S in bases:
        R = reduce_base(S)
        assert validate(R) is None
        assert euler(R) == euler(S)
        assert R.f_vector()[0] == components(S) == components(R)
    reduced = {name: reduce_base(SHELF[name][0]).f_vector()
               for name in ("filled-triangle", "boundary-tetrahedron",
                            "boundary-4-simplex", "K4", "two-circles",
                            "path-and-point", "circle:6",
                            "loop-bounding-a-triangle")}
    assert reduced == {"filled-triangle": [1],
                       "boundary-tetrahedron": [1, 0, 1],
                       "boundary-4-simplex": [1, 0, 0, 1], "K4": [1, 3],
                       "two-circles": [2, 2], "path-and-point": [2],
                       "circle:6": [1, 1], "loop-bounding-a-triangle": [1]}


def test_a_one_vertex_base_is_its_own_reduction():
    """Every sN and wedge: base is one vertex with no expansion, so
    reduce_base returns it: the inputs of theorem1, tuffley and build-s3k3
    are built unreduced."""
    descs = [f"s{n}" for n in range(1, 8)]
    descs += ["wedge:1", "wedge:2", "wedge:3", "wedge:1,1", "wedge:1,2",
              "wedge:2,1", "wedge:2,2", "wedge:2,3", "wedge:1,1,1",
              "wedge:1,1,2"]
    for desc in descs:
        S = parse_space(desc)[1]
        assert reduce_base(S) is S, desc


def test_the_closed_form_f_vector_is_the_oracles_and_the_builds():
    cases = [(parse_space(desc)[1], k) for desc, k in MATRIX_CASES]
    built = [build_expk(S, k).result.f_vector() for S, k in cases]
    for name, (S, top) in SHELF.items():
        for k in range(1, top + 1):
            cases.append((S, k))
            built.append(full_build(name, k).result.f_vector())
    for (S, k), f in zip(cases, built):
        assert expk_f_vector(S, k) == subset_space_f_vector(S.dim_of, k) == f


def test_the_closed_form_f_vector_counts_each_level_once():
    """At k <= 4 it is the per-term reference and the oracle in generator
    dimensions; at k = 1 it is S's f-vector, which a base with a whisker
    on S^20000 reaches through S/K at once (the closed form alone would sum
    about 2 * 10^8 big-integer terms)."""
    bases = [S for S, _ in SHELF.values()]
    bases += [parse_space(d)[1] for d in ("s1", "s2", "s3", "wedge:1,2",
                                          "wedge:2,2", "circle:5")]
    for S in bases:
        for k in range(1, 5):
            f = expk_f_vector(S, k)
            assert f == expk_f_vector_reference(S, k)
            assert f == subset_space_f_vector(S.dim_of, k)
    assert expk_f_vector(SimplicialSet(), 2) == []
    S = parse_space("s20000")[1]
    w, e = S.add_generator(0), S.add_generator(1)
    S.set_faces(e, [(w, 0), (0, 0)])
    assert reduce_base(S) is not S
    h, _ = expk_homology(S, 1, reduced=True)
    assert h.f_vector == S.f_vector() == [2, 1] + [0] * 19998 + [1]
    assert h.betti == [0] * 20000 + [1]
    assert not any(h.torsion)


def test_exp2_homology_depends_only_on_the_bases_homology():
    """exp_2 X is SP^2 X, whose homology is a functor of H_*(X) (Dold,
    "Homology of symmetric products and other functors of complexes",
    Ann. of Math. 68, 1958): the 7-vertex torus and S^1 v S^1 v S^2 agree,
    and so do the 6-vertex RP^2 and the one-vertex Moore space M(Z/2, 1)."""
    torus = complex_to_sset(
        [f for i in range(7) for f in ((i, (i + 1) % 7, (i + 3) % 7),
                                       (i, (i + 2) % 7, (i + 3) % 7))])
    moore = moore_space_z2()
    for X, Y in [(torus, parse_space("wedge:1,1,2")[1]),
                 (SHELF["RP2-6"][0], moore)]:
        assert reduce_base(X) is not X
        assert homology(normalized_chains(X)).groups_equal(
            homology(normalized_chains(Y)))
        hx, hy = expk_homology(X, 2)[0], expk_homology(Y, 2)[0]
        assert hx.groups_equal(hy)
    assert expk_homology(moore, 2)[0].group(1) == (0, [2])


def test_tuffley_circle_through_the_reduced_base():
    """exp_k of an n-gon has the reduced homology of S^(2 ceil(k/2) - 1)
    (Tuffley, Algebr. Geom. Topol. 2002), computed on the one-edge circle
    S/K, with exp_k S's f-vector from its generators' dimensions and euler
    sum_j C(chi, j) at chi = 0."""
    for n in range(3, 9):
        S = parse_space(f"circle:{n}")[1]
        for k in range(1, 9):
            h, _ = expk_homology(S, k, reduced=True, max_cells=10 ** 30)
            top = 2 * ((k + 1) // 2) - 1
            assert h.f_vector == subset_space_f_vector(S.dim_of, k), (n, k)
            assert h.betti == [int(i == top)
                               for i in range(len(h.f_vector))], (n, k)
            assert h.torsion == [[] for _ in h.f_vector], (n, k)
            chi = sum((-1) ** i * f for i, f in enumerate(h.f_vector))
            assert chi == h.euler == subset_space_euler(0, k), (n, k)
