"""The finite subset functor on finite simplicial sets.

Primary construction: levelwise subsets of size <= k of the simplices of S,
on integer level indices.  A simplex lies in the image of s_i exactly when i
is in its normal-form word (a bitmask), so a subset is non-degenerate when
the complements of its elements' words cover [n]: a pruned depth-first
search finds these subsets.  A face's Eilenberg-Zilber normal form is s_C of
a core, C the AND of its elements' words: since d_c s_c = id, each element
drops C by following d_c through the level face tables, highest c first.
Each distinct face of a level is normalised once, in a per-level memo.
"""

from __future__ import annotations

from collections import namedtuple
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


# result is the SimplicialSet exp_k S; cells_enumerated sums the
# projected_cells of the levels built
ExpkSpace = namedtuple("ExpkSpace", "result cells_enumerated")


def projected_cells(m: int, k: int, cap: int) -> int:
    """The count the cell cap tests for a level of m simplices: its nonempty
    subsets of size <= k, summed as C(m, j) for j <= min(k, m) up to the
    first partial sum over ``cap``, where the sum stops."""
    total = 0
    for j in range(1, min(k, m) + 1):
        total += comb(m, j)
        if total > cap:
            break
    return total


def level_size(S: SimplicialSet, n: int) -> int:
    """Number of simplices of S in dimension n: a generator of dimension d
    contributes one simplex per normal-form word of length n - d."""
    if n < 0:
        raise SimplicialError("dimension must be >= 0")
    return sum(comb(n, d) for d in S.dim_of)


def _nondegenerate_subsets(comps: list[int], full: int, k: int,
                           width: int) -> list[tuple[int, ...]]:
    """The index subsets of size <= k whose complement masks cover ``full``
    (the non-degenerate subsets of a level), depth-first in lexicographic
    order.  A branch is cut when the remaining complements miss an uncovered
    index, or when the elements still allowed cannot cover the uncovered
    indices: a complement has at most ``width`` = dim S of them."""
    found: list[tuple[int, ...]] = []
    m = len(comps)
    suffix = [0] * (m + 1)
    for a in range(m - 1, -1, -1):
        suffix[a] = suffix[a + 1] | comps[a]
    stack: list[int] = []

    def extend(start: int, covered: int) -> None:
        room = (k - len(stack) - 1) * width
        for a in range(start, m):
            if covered | suffix[a] != full:
                return
            now = covered | comps[a]
            if (full ^ now).bit_count() > room:
                continue
            stack.append(a)
            if now == full:
                found.append(tuple(stack))
            if len(stack) < k:
                extend(a + 1, now)
            stack.pop()

    extend(0, 0)
    return found


def build_expk(S: SimplicialSet, k: int,
               max_cells: int = DEFAULT_MAX_CELLS) -> ExpkSpace:
    """Construct exp_k S in one pass over the levels n <= k * dim(S), on
    level indices: each level is checked against the cell cap, enumerated,
    and given a face table of indices into level n - 1.  A subset's face d_i
    is the set of its elements' d_i; its word is the AND C of their words.
    If x = s_c y then d_c x = y, so each element follows d_c through the
    face tables for every c in C, highest first (removing the highest index
    shifts none below it), and lands on its core in level n - 1 - |C|,
    where that core is registered already.  A face is fixed by its elements,
    so a dict per level, keyed by their frozenset, normalises each distinct
    face once and gives equal faces one FormalSimplex; level n reads only
    level n - 1's keys, so each level starts a fresh dict."""
    if k < 1:
        raise SimplicialError("k must be >= 1")
    result = SimplicialSet()
    gen_of: dict[tuple[int, tuple[int, ...]], int] = {}
    faces: list[list[list[int]]] = []  # faces[n][a][i]: d_i of a, in n - 1
    below: dict[FormalSimplex, int] = {}
    below_masks: list[int] = []
    cells = 0

    def face(n: int, elems: frozenset[int]) -> FormalSimplex:
        C = (1 << n) - 1
        for a in elems:
            C &= below_masks[a]
        at, rest = n, C  # the elements are in level ``at``
        while rest:  # strip the highest common index first
            c = rest.bit_length() - 1
            elems = {faces[at][a][c] for a in elems}
            at -= 1
            rest ^= 1 << c
        return FormalSimplex(gen_of[at, tuple(sorted(elems))], C, n)

    for n in range(k * S.dim + 1):
        m = level_size(S, n)
        projected = projected_cells(m, k, max_cells)
        if projected > max_cells:
            raise ResourceCapError(n, m, projected, max_cells)
        cells += projected
        level = enumerate_level(S, n)
        masks = [x.word for x in level]
        table = [[below[apply_face(x, i, S)] for i in range(n + 1)]
                 for x in level] if n else []
        faces.append(table)
        full = (1 << n) - 1
        memo: dict[frozenset[int], FormalSimplex] = {}
        for idxs in _nondegenerate_subsets([full ^ w for w in masks], full,
                                           k, S.dim):
            g = result.add_generator(n)
            gen_of[n, idxs] = g
            if n:
                fs = [memo.get(e) or memo.setdefault(e, face(n - 1, e))
                      for e in map(frozenset, zip(*(table[a] for a in idxs)))]
                result.set_faces(g, fs)
        below = {x: a for a, x in enumerate(level)}
        below_masks = masks
    return ExpkSpace(result=result, cells_enumerated=cells)

