"""Independent oracles used by the tests.

Degeneracy words are modelled by their action on monotone index tuples of
the standard simplex (s_j duplicates entry j, d_i deletes entry i), so word
algebra can be checked without any normal-form machinery.  Degeneracy sets
and the subset normal form are checked against the exact membership test
s_i(d_i(x)) == x and the face-by-face stripper they replaced.  Integer matrix
facts are checked against brute-force cofactor determinants and minors.  The
Euler characteristic of exp_k X is checked against the configuration-space
stratification.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, prod

from subsetspace.expk import SubsetSimplex
from subsetspace.simplicial import (FormalSimplex, SimplicialSet,
                                    SimplicialError, apply_face,
                                    compose_degeneracy)


def s_on_tuple(t: tuple[int, ...], j: int) -> tuple[int, ...]:
    assert 0 <= j <= len(t) - 1
    return t[:j + 1] + t[j:]


def d_on_tuple(t: tuple[int, ...], i: int) -> tuple[int, ...]:
    assert 0 <= i <= len(t) - 1
    return t[:i] + t[i + 1:]


def eval_word(word: tuple[int, ...], base_dim: int) -> tuple[int, ...]:
    """The monotone surjection encoded by a degeneracy word, as the image
    tuple of (0, ..., base_dim); operators apply right to left."""
    t = tuple(range(base_dim + 1))
    for j in reversed(word):
        t = s_on_tuple(t, j)
    return t


def all_degenerate_tuples(base_dim: int, length: int) -> set[tuple[int, ...]]:
    """Closure of the identity tuple under degeneracy operators, keeping the
    tuples reached after exactly `length` applications."""
    frontier = {tuple(range(base_dim + 1))}
    for _ in range(length):
        frontier = {s_on_tuple(t, j)
                    for t in frontier for j in range(len(t))}
    return frontier


def det(m: list[list[int]]) -> int:
    """Cofactor-expansion integer determinant (small matrices only)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for c in range(n):
        if m[0][c]:
            minor = [row[:c] + row[c + 1:] for row in m[1:]]
            total += (-1) ** c * m[0][c] * det(minor)
    return total


def minors_gcd(m: list[list[int]], r: int) -> int:
    """gcd of all r x r minors."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    g = 0
    for rs in combinations(range(nrows), r):
        for cs in combinations(range(ncols), r):
            sub = [[m[i][j] for j in cs] for i in rs]
            g = gcd(g, det(sub))
    return g


def rank_over_q(m: list[list[int]]) -> int:
    """Rank via fraction elimination, independent of the SNF code."""
    rows = [[Fraction(v) for v in row] for row in m]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][c]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def degeneracy_set(x: FormalSimplex, S: SimplicialSet) -> frozenset[int]:
    """Indices i with x in the image of s_i, by the exact membership test
    s_i(d_i(x)) == x."""
    if x.dim == 0:
        return frozenset()
    return frozenset(i for i in range(x.dim)
                     if apply_face(x, i, S).degenerate(i) == x)


def subset_degeneracy_set(A, S: SimplicialSet) -> frozenset[int]:
    """Common degeneracy indices of all elements, by the membership test;
    nonempty iff the subset is degenerate as a simplex of exp_k S."""
    out: frozenset[int] | None = None
    for a in A:
        d = degeneracy_set(a, S)
        out = d if out is None else out & d
        if not out:
            return frozenset()
    return out if out is not None else frozenset()


def strip_degeneracies_iterative(A, S: SimplicialSet, order: str = "min"
                                 ) -> tuple[tuple[int, ...], SubsetSimplex]:
    """word . core by stripping one common degeneracy index at a time with
    d_i: the smallest first (order 'min') or a seeded random choice (order
    'random:<seed>')."""
    elems = sorted(set(A))
    if not elems:
        raise SimplicialError("cannot strip an empty subset")
    rng = None
    if order.startswith("random:"):
        rng = random.Random(int(order.split(":", 1)[1]))
    stripped: list[int] = []
    while True:
        common = subset_degeneracy_set(elems, S)
        if not common:
            break
        i = rng.choice(sorted(common)) if rng else min(common)
        stripped.append(i)
        elems = sorted({apply_face(a, i, S) for a in elems})
    word: tuple[int, ...] = ()
    for j in reversed(stripped):
        word = compose_degeneracy(word, j)
    return word, SubsetSimplex.of(elems)


def generalized_binomial(x: int, j: int) -> int:
    """C(x, j) = x (x-1) ... (x-j+1) / j!, for any integer x."""
    return prod(x - t for t in range(j)) // factorial(j)


def subset_space_euler(chi: int, k: int) -> int:
    """chi(exp_k X) = sum_{j=1..k} C(chi(X), j): exp_k X is stratified by
    the unordered configuration spaces B_j X, with chi_c(B_j X) =
    C(chi(X), j)."""
    return sum(generalized_binomial(chi, j) for j in range(1, k + 1))
