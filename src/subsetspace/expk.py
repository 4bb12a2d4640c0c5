"""The finite subset functor on finite simplicial sets, as chains.

exp_k S is built level by level, on integer level indices.  A simplex lies
in the image of s_i exactly when i is in its normal-form word (a bitmask),
so a subset is non-degenerate when the complements of its elements' words
cover [n]: a pruned depth-first search finds these subsets, and they are
the generators of the normalized chains of exp_k S.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import partial, reduce
from math import comb
from operator import or_

from .simplicial import (ChainComplex, SimplicialSet, SimplicialError,
                         SparseIntMatrix, apply_face, boundary,
                         enumerate_level, normalized_chains)

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


# result is the ChainComplex of exp_k S's normalized chains, those of S
# itself at k = 1; cells_enumerated sums the projected_cells of its levels
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
    that every word of a subset holds: f_n = sum_t (-1)^t C(n, t) N(n - t),
    N(l) = sum_{j <= k} C(level_size(S, l), j) counted once per level.
    exp_1 S is S, whose f-vector it is."""
    if k == 1:
        return S.f_vector()
    subsets = [sum(comb(m, j) for j in range(1, min(k, m) + 1))
               for m in (level_size(S, n) for n in range(k * S.dim + 1))]
    return [sum((-1) ** t * comb(n, t) * subsets[n - t] for t in range(n + 1))
            for n in range(len(subsets))]


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


def expk_levels(S: SimplicialSet, k: int) -> Iterator[
        tuple[list[tuple[int, int]], list[tuple[int, ...]], SparseIntMatrix]]:
    """(level, subsets, d_n) per level n <= k * dim(S) of exp_k S, each built
    when asked for, with no cell cap test: level is S's n-simplices, subsets
    its non-degenerate index subsets in column order, each keyed by the OR
    of its indices' bits, and d_n their boundary.  Face d_i's key is the OR
    of the elements' d_i bits in level n - 1, whose generators are all its
    non-degenerate subsets of size <= k: it names the face, or none when the
    face is degenerate and adds nothing (it is never put in normal form)."""
    row_of: dict[int, int] = {}  # key -> row, over level n - 1's generators
    below: dict[tuple[int, int], int] = {}  # level n - 1: simplex -> index
    join = partial(map, or_)
    for n in range(k * S.dim + 1):
        level = enumerate_level(S, n)
        full = (1 << n) - 1
        subsets = _nondegenerate_subsets([full ^ w for _, w in level], full,
                                         k, S.dim)
        # bits[a][i]: the bit of d_i of simplex a, in level n - 1
        faces = range(n + 1) if n else ()
        bits = [[1 << below[apply_face(x, i, S)] for i in faces]
                for x in level]
        yield level, subsets, boundary(
            map(row_of.get, reduce(join, map(bits.__getitem__, idxs)))
            for idxs in subsets)
        row_of = {reduce(or_, map((1).__lshift__, idxs)): r
                  for r, idxs in enumerate(subsets)}
        below = {x: a for a, x in enumerate(level)}


def build_expk(S: SimplicialSet, k: int,
               max_cells: int = DEFAULT_MAX_CELLS) -> ExpkSpace:
    """exp_k S's ExpkSpace, built once its levels pass the cell cap."""
    if k < 1:
        raise SimplicialError("k must be >= 1")
    cells = capped_cells(S, k, max_cells)
    if k == 1:
        return ExpkSpace(normalized_chains(S), cells)
    return ExpkSpace(ChainComplex([d for _, _, d in expk_levels(S, k)]), cells)
