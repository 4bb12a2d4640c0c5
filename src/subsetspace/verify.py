"""Executable checks of the connectivity statements on concrete spaces,
and of the built exp_k S against its level counts.

Connectivity is verified homologically: a space passes when its reduced
integer homology vanishes through the claimed bound.  Simple connectivity,
needed to upgrade homological vanishing to actual connectivity, is supplied
by citation and not computed here.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import comb

from .simplicial import SimplicialSet, close_under_faces
from .expk import (DEFAULT_MAX_CELLS, build_expk, capped_cells, level_size,
                   projected_cells)
from .homology import (HomologyResult, expk_homology, homology,
                       normalized_chains)

PASS = "pass"
FAIL = "fail"
HYPOTHESES_NOT_MET = "hypotheses-not-met"


# verdict is PASS or FAIL; homology is a HomologyResult or None;
# cells_enumerated is the count of the check's exp_k build, 0 without one
Outcome = namedtuple("Outcome", "verdict homology cells_enumerated")


def _first_nonzero_degree(h: HomologyResult, bound: int) -> int | None:
    """First degree <= bound where h is nonzero, or None."""
    return next((i for i in range(bound + 1) if not h.is_trivial_in(i)), None)


def theorem1_check(S: SimplicialSet, k: int,
                   max_cells: int = DEFAULT_MAX_CELLS) -> Outcome:
    """Check that exp_k of a homogeneous wedge of (m+1)-spheres has vanishing
    reduced homology through degree k + m - 2.  S qualifies when it has one
    vertex and its other generators share a dimension d >= 1: their faces can
    only be the degenerate vertex, so S is a wedge of d-spheres, m = d - 1."""
    f = S.f_vector()
    if S.dim < 1 or f[0] != 1 or any(f[1:-1]):
        raise ValueError("theorem1_check needs a homogeneous wedge")
    m = S.dim - 1
    bound = k + m - 2
    h, cells = expk_homology(S, k, reduced=True, max_cells=max_cells)
    return Outcome(PASS if _first_nonzero_degree(h, bound) is None else FAIL,
                   h, cells)


def tuffley_check(S: SimplicialSet, k: int,
                  max_cells: int = DEFAULT_MAX_CELLS) -> Outcome:
    """For a wedge of circles, reduced homology of exp_k must be concentrated
    in degrees k-1 and k.  exp_k of a graph has dimension at most k, so this
    is vanishing through degree k - 2: the m = 0 case of theorem1_check.
    S qualifies when it has one vertex and dimension 1."""
    if S.dim != 1 or S.f_vector()[0] != 1:
        raise ValueError("tuffley_check needs a wedge of circles")
    return theorem1_check(S, k, max_cells)


def lemma1_check(Y: SimplicialSet, cover: list[set[int]], j: int) -> str:
    """Evaluate the cover-vanishing implication for a cover of Y (a list of
    generator-closed sets of generator ids): if the total intersection is
    nonempty, every s-fold intersection (s >= 2) has vanishing reduced
    homology below degree j, and every cover member has vanishing reduced
    homology below degree j+1, then so does the whole space.

    Returns PASS, FAIL or HYPOTHESES_NOT_MET; failed hypotheses yield
    HYPOTHESES_NOT_MET, never a failure.
    """
    if not cover:
        raise ValueError("cover must be nonempty")
    for idx, U in enumerate(cover):
        if close_under_faces(Y, U) != U:
            raise ValueError(f"cover member {idx} is not generator-closed")
    if set().union(*cover) != set(range(Y.n_generators)):
        raise ValueError("cover does not exhaust the space")
    if not set.intersection(*cover):
        return HYPOTHESES_NOT_MET

    def vanishes(gens: set[int] | None, bound: int) -> bool:
        h = homology(normalized_chains(Y, gens), reduced=True)
        return _first_nonzero_degree(h, bound) is None

    # every s-fold intersection holds the nonempty total intersection
    r = len(cover)
    pieces = [(idxs, j - 1)
              for s in range(2, r + 1) for idxs in combinations(range(r), s)]
    pieces += [((idx,), j) for idx in range(r)]
    if not all(vanishes(set.intersection(*(cover[c] for c in idxs)), bound)
               for idxs, bound in pieces):
        return HYPOTHESES_NOT_MET
    return PASS if vanishes(None, j) else FAIL  # the union is all of Y


def random_lemma1_instance(Y: SimplicialSet,
                           rng) -> tuple[list[set[int]], int]:
    """(cover, j): a random generator-closed cover of Y (2 or 3 members) and
    a random vanishing parameter, drawn with rng's choice, random and
    randrange."""
    n = Y.n_generators
    r = rng.choice([2, 3])
    cover = []
    for _ in range(r):
        seed = {g for g in range(n) if rng.random() < 0.6}
        cover.append(close_under_faces(Y, seed))
    missing = set(range(n)) - set.union(*cover)
    if missing:
        i = rng.randrange(r)
        cover[i] = close_under_faces(Y, cover[i] | missing)
    return cover, rng.choice([0, 1, 2])


def invariance_check(A: SimplicialSet, B: SimplicialSet, k: int,
                     max_cells: int = DEFAULT_MAX_CELLS) -> Outcome:
    """Homology tables of exp_k of two models of one homotopy type must
    agree degree-wise in betti and torsion.  The Outcome holds A's."""
    space = build_expk(A, k, max_cells=max_cells)
    ha = homology(space.result)
    hb = homology(build_expk(B, k, max_cells=max_cells).result)
    return Outcome(PASS if ha.groups_equal(hb) else FAIL, ha,
                   space.cells_enumerated)


def level_count_check(S: SimplicialSet, k: int, level: int | None = None,
                      max_cells: int = DEFAULT_MAX_CELLS) -> Outcome:
    """Outcome (homology None) of the built exp_k S against its level
    counts.  By the Eilenberg-Zilber lemma every simplex is s_W y for exactly
    one non-degenerate y, so level n of the build has sum_j f_j C(n, j)
    simplices, f its chains' f-vector; it must have one per nonempty subset
    of size <= k of S_n.
    projected_cells counts those subsets up to its first partial sum over
    the built count b, so it gives b exactly when the full count is b.
    Without a level every n <= k * dim S is checked: by Moebius inversion
    these fix every f_j, so every higher level agrees too."""
    if k == 1:  # exp_1 S is S: its own counts, and no build
        cells, f = capped_cells(S, 1, max_cells), S.f_vector()
    else:
        space = build_expk(S, k, max_cells=max_cells)
        cells, f = space.cells_enumerated, space.result.f_vector()
    f = [(j, fj) for j, fj in enumerate(f) if fj]
    levels = range(k * S.dim + 1) if level is None else [level]
    sizes = [(level_size(S, n),  # which refuses n < 0 first
              sum(fj * comb(n, j) for j, fj in f)) for n in levels]
    ok = all(projected_cells(m, k, b) == b for m, b in sizes)
    return Outcome(PASS if ok else FAIL, None, cells)
