"""The finite subset functor on finite simplicial sets.

Primary construction: levelwise subsets of size <= k of the simplices of S,
on integer level indices.  A simplex lies in the image of s_i exactly when i
is in its normal-form word (a bitmask), so a subset is non-degenerate when
the complements of its elements' words cover [n]: a pruned depth-first
search finds these subsets.  A face's Eilenberg-Zilber normal form is s_C of
a core, C the AND of its elements' words: since d_c s_c = id, each element
drops C by following d_c through the level face tables, highest c first.
Each distinct face of a level is normalised once, keyed by its elements' bits.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial, reduce
from math import comb
from operator import or_

from .simplicial import (SimplicialSet, SimplicialError, apply_face,
                         enumerate_level)

DEFAULT_MAX_CELLS = 200_000


class ResourceCapError(Exception):
    """A per-level enumeration exceeded the configured cell cap; ``report``
    is the sizing report that the CLI prints."""

    def __init__(self, level: int, level_size: int, projected: int, cap: int):
        self.report = {"level": level, "level_size": level_size,
                       "projected_cells": projected, "cap": cap}
        super().__init__(
            f"level {level}: projected {projected} cells from {level_size} "
            f"simplices exceeds cap {cap}")


# result is the SimplicialSet exp_k S, S itself at k = 1; cells_enumerated
# sums the projected_cells of its levels
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


def capped_cells(S: SimplicialSet, k: int, max_cells: int) -> int:
    """cells_enumerated of exp_k S: the sum of its levels' projected_cells.
    The first level over ``max_cells`` raises ResourceCapError."""
    cells = 0
    for n in range(k * S.dim + 1):
        m = level_size(S, n)
        projected = projected_cells(m, k, max_cells)
        if projected > max_cells:
            raise ResourceCapError(n, m, projected, max_cells)
        cells += projected
    return cells


def expk_f_vector(S: SimplicialSet, k: int) -> list[int]:
    """The f-vector of exp_k S, by inclusion-exclusion over the t indices
    that every word of a subset holds: f_n = sum_t (-1)^t C(n, t)
    sum_{j <= k} C(level_size(S, n - t), j)."""
    return [sum((-1) ** t * comb(n, t)
                * sum(comb(level_size(S, n - t), j) for j in range(1, k + 1))
                for t in range(n + 1)) for n in range(k * S.dim + 1)]


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
    del extend  # it refers to itself: break the cycle for refcounting
    return found


def build_expk(S: SimplicialSet, k: int,
               max_cells: int = DEFAULT_MAX_CELLS) -> ExpkSpace:
    """exp_k S, built once every level n <= k * dim(S) has passed the cell
    cap; exp_1 S is S itself ({x} -> x).  Else on level indices, level by
    level, each with a face table of indices into level n - 1.  A subset's
    face d_i is the set of its elements' d_i; its word is the AND C of
    their words.  If x = s_c y then d_c x = y, so each element follows d_c
    through the face tables for every c in C, highest first (removing the
    highest index shifts none below it), to its core in level n - 1 - |C|.
    normal[n] maps a set's key, the OR of its indices' bits, to its normal
    form: level n's generators, and each new degenerate face that level
    n + 1 adds, checked once, so equal faces are one (base, word) tuple."""
    if k < 1:
        raise SimplicialError("k must be >= 1")
    cells = capped_cells(S, k, max_cells)
    if k == 1:
        return ExpkSpace(result=S, cells_enumerated=cells)
    result = SimplicialSet()
    faces: list[list[list[int]]] = []  # faces[n][a][i]: d_i of a, in n - 1
    normal: list[dict[int, tuple[int, int]]] = []  # normal[n][key]: its form
    below: dict[tuple[int, int], int] = {}
    words: list[list[int]] = []  # words[n][a]: the word of a
    key = lambda E: reduce(or_, map((1).__lshift__, E))

    def face(n: int, elems: set[int]) -> tuple[int, int]:
        C = (1 << n) - 1
        for a in elems:
            C &= words[n][a]
        at, rest = n, C  # the elements are in level ``at``
        while rest:  # strip the highest common index first
            c = rest.bit_length() - 1
            elems = {faces[at][a][c] for a in elems}
            at -= 1
            rest ^= 1 << c
        f = normal[at][key(elems)][0], C
        result.check_face(f, n + 1)
        return f

    join = partial(map, or_)
    for n in range(k * S.dim + 1):
        level = enumerate_level(S, n)
        words.append([w for _, w in level])
        table = [[below[apply_face(x, i, S)] for i in range(n + 1)]
                 for x in level] if n else []
        faces.append(table)
        rows = [[1 << t for t in row] for row in table]
        memo = normal[-1] if n else {}  # level n - 1's normal forms
        normal.append({})
        full = (1 << n) - 1
        for idxs in _nondegenerate_subsets([full ^ w for w in words[n]], full,
                                           k, S.dim):
            g = result.add_generator(n)
            normal[n][key(idxs)] = g, 0
            if n:  # d_i's key is the OR of the rows' i-th entries
                keys = list(reduce(join, map(rows.__getitem__, idxs)))
                fs = list(map(memo.get, keys))
                if None in fs:  # a new degenerate face
                    for i, e in enumerate(keys):
                        fs[i] = memo.get(e) or memo.setdefault(
                            e, face(n - 1, {table[a][i] for a in idxs}))
                result.faces[g] = fs  # face() checked each new entry
        below = {x: a for a, x in enumerate(level)}
    return ExpkSpace(result=result, cells_enumerated=cells)
