"""The finite subset functor on finite simplicial sets.

Primary construction: levelwise subsets of size <= k of the simplices of S,
with faces computed elementwise and renormalized by the closed-form
Eilenberg-Zilber subset normal form (strip_degeneracies), which reads each
simplex's degeneracy indices off its normal-form word.  Oracle: the colimit of
cartesian products of at most k factors under diagonal insertions and factor
permutations, whose classes must biject with the subsets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import comb

from .simplicial import (FormalSimplex, SimplicialSet, SimplicialError,
                         apply_face, enumerate_level)

DEFAULT_MAX_CELLS = 200_000


class ResourceCapError(Exception):
    """A per-level enumeration exceeded the configured cell cap."""

    def __init__(self, level: int, level_size: int, projected: int, cap: int):
        self.level = level
        self.level_size = level_size
        self.projected = projected
        self.cap = cap
        super().__init__(
            f"level {level}: projected {projected} cells from {level_size} "
            f"simplices exceeds cap {cap}")

    def sizing_report(self) -> dict:
        return {"level": self.level, "level_size": self.level_size,
                "projected_cells": self.projected, "cap": self.cap}


@dataclass(frozen=True)
class SubsetSimplex:
    """A canonically sorted nonempty set of distinct same-dimension
    FormalSimplexes; the simplices of exp_k S."""
    elements: tuple[FormalSimplex, ...]

    @staticmethod
    def of(elements) -> "SubsetSimplex":
        elems = tuple(sorted(set(elements)))
        if not elems:
            raise SimplicialError("subset simplex must be nonempty")
        if len({e.dim for e in elems}) != 1:
            raise SimplicialError("subset elements must have equal dimension")
        return SubsetSimplex(elems)

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def __len__(self) -> int:
        return len(self.elements)


def strip_degeneracies(A) -> tuple[tuple[int, ...], SubsetSimplex]:
    """Eilenberg-Zilber normal form of a set of equal-dimension simplices:
    word . core, with core a non-degenerate subset.

    A simplex lies in the image of s_i exactly when i is in its normal-form
    word, so the subset's common degeneracies are the intersection C of its
    elements' words.  The stripped word is C in decreasing order; each core
    element drops C from its word and lowers every remaining index by the
    number of indices of C below it."""
    elems = set(A)
    if not elems:
        raise SimplicialError("cannot strip an empty subset")
    common = frozenset.intersection(*(frozenset(a.word) for a in elems))
    if not common:
        return (), SubsetSimplex.of(elems)
    core = [FormalSimplex(a.base,
                          tuple(i - sum(c < i for c in common)
                                for i in a.word if i not in common),
                          a.dim - len(common))
            for a in elems]
    return tuple(sorted(common, reverse=True)), SubsetSimplex.of(core)


@dataclass
class ExpkSpace:
    k: int
    base: SimplicialSet
    result: SimplicialSet
    subset_of: dict[int, SubsetSimplex]      # result generator id -> subset
    id_of: dict[SubsetSimplex, int]
    cells_enumerated: int


def _nondegenerate_subsets(dsets: list[frozenset[int]],
                           k: int) -> list[tuple[int, ...]]:
    """Depth-first enumeration of index subsets of size <= k whose D-set
    intersection is empty, in lexicographic order.  No pruning on the D-set:
    a superset of a degenerate set can be non-degenerate, so every subset of
    size <= k is visited."""
    found: list[tuple[int, ...]] = []
    n = len(dsets)
    stack: list[int] = []

    def extend(start: int, inter: frozenset[int]):
        for idx in range(start, n):
            stack.append(idx)
            new_inter = inter & dsets[idx] if stack[:-1] else dsets[idx]
            if not new_inter:
                found.append(tuple(stack))
            if len(stack) < k:
                extend(idx + 1, new_inter)
            stack.pop()

    extend(0, frozenset())
    return found


def build_expk(S: SimplicialSet, k: int,
               max_cells: int = DEFAULT_MAX_CELLS) -> ExpkSpace:
    """Construct exp_k S in one pass over the levels n up to the hard
    dimension bound k * dim(S).  Each level is enumerated and checked against
    the cell cap, and its face table d_i x is computed once per simplex x.
    Every non-degenerate subset is then registered with its faces: the face
    d_i of a subset strips the degeneracies of its elements' faces, and its
    core lies in a lower level, so it is registered already."""
    if k < 1:
        raise SimplicialError("k must be >= 1")
    result = SimplicialSet()
    id_of: dict[SubsetSimplex, int] = {}
    subset_of: dict[int, SubsetSimplex] = {}
    cells = 0
    for n in range(k * S.dim + 1):
        level = enumerate_level(S, n)
        m = len(level)
        projected = sum(comb(m, j) for j in range(1, k + 1))
        if projected > max_cells:
            raise ResourceCapError(n, m, projected, max_cells)
        cells += projected
        faces = [[apply_face(x, i, S) for i in range(n + 1)]
                 for x in level] if n else []
        # x is in the image of s_i exactly when i is in its word
        for idxs in _nondegenerate_subsets([frozenset(x.word) for x in level],
                                           k):
            sub = SubsetSimplex(tuple(level[a] for a in idxs))
            g = result.add_generator(n)
            id_of[sub] = g
            subset_of[g] = sub
            if n:
                stripped = (strip_degeneracies([faces[a][i] for a in idxs])
                            for i in range(n + 1))
                result.set_faces(g, [FormalSimplex(id_of[core], word, n - 1)
                                     for word, core in stripped])
    return ExpkSpace(k=k, base=S, result=result, subset_of=subset_of,
                     id_of=id_of, cells_enumerated=cells)


@dataclass
class OracleSummary:
    level: int
    k: int
    level_size: int
    class_count: int
    expected_classes: int
    bijection_ok: bool
    arrows_checked: int
    arrows_ok: bool

    @property
    def ok(self) -> bool:
        return (self.class_count == self.expected_classes
                and self.bijection_ok and self.arrows_ok)


class _DisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def colimit_level_oracle(S: SimplicialSet, k: int, n: int,
                         max_cells: int = DEFAULT_MAX_CELLS,
                         seed: int = 0, samples: int = 50) -> OracleSummary:
    """Build the level-n colimit of tuples of length <= k under diagonal
    insertions and factor permutations, and compare its classes with the
    nonempty subsets of size <= k of S_n.

    Also samples face/degeneracy arrows and checks they commute with the
    class -> subset bijection.
    """
    if k < 1:
        raise SimplicialError("k must be >= 1")
    level = enumerate_level(S, n)
    m = len(level)
    total = sum(m ** j for j in range(1, k + 1))
    if total > max_cells:
        raise ResourceCapError(n, m, total, max_cells)

    tuples: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    for j in range(1, k + 1):
        for t in product(range(m), repeat=j):
            index[t] = len(tuples)
            tuples.append(t)

    ds = _DisjointSet(len(tuples))
    for t in tuples:
        j = len(t)
        # adjacent transpositions generate all permutations of the factors
        for p in range(j - 1):
            swapped = t[:p] + (t[p + 1], t[p]) + t[p + 2:]
            ds.union(index[t], index[swapped])
        # diagonal insertions: duplicate one coordinate
        if j < k:
            for p in range(j):
                dup = t[:p] + (t[p],) + t[p:]
                ds.union(index[t], index[dup])

    classes: dict[int, list[tuple[int, ...]]] = {}
    for t in tuples:
        classes.setdefault(ds.find(index[t]), []).append(t)
    expected = sum(comb(m, j) for j in range(1, k + 1))

    # bijection witness: every class must consist exactly of the tuples whose
    # coordinate set is one fixed subset of size <= k
    witnessed: set[frozenset[int]] = set()
    bijection_ok = True
    for members in classes.values():
        sets = {frozenset(t) for t in members}
        if len(sets) != 1:
            bijection_ok = False
            break
        witnessed.add(sets.pop())
    if bijection_ok:
        bijection_ok = (len(witnessed) == len(classes)
                        and all(1 <= len(s) <= k for s in witnessed))

    # sampled arrows: elementwise d_i / s_i on a tuple must land in the class
    # of the elementwise image of its subset
    rng = random.Random(seed)
    arrows_ok = True
    checked = 0
    if tuples:
        for _ in range(samples):
            t = rng.choice(tuples)
            subset = frozenset(level[c] for c in t)
            if n >= 1:
                i = rng.randrange(n + 1)
                faces_t = frozenset(apply_face(level[c], i, S) for c in t)
                faces_subset = frozenset(apply_face(x, i, S) for x in subset)
                checked += 1
                if faces_t != faces_subset:
                    arrows_ok = False
            i = rng.randrange(n + 1)
            degen_t = frozenset(level[c].degenerate(i) for c in t)
            degen_subset = frozenset(x.degenerate(i) for x in subset)
            checked += 1
            if degen_t != degen_subset:
                arrows_ok = False

    return OracleSummary(level=n, k=k, level_size=m,
                         class_count=len(classes), expected_classes=expected,
                         bijection_ok=bijection_ok, arrows_checked=checked,
                         arrows_ok=arrows_ok)
