"""Normalized integer chain complex and exact homology via Smith normal form.

All arithmetic is exact over Python's unbounded integers; boundary matrices
are kept sparse (per-column nonzero maps) since exp_k complexes are very
sparse.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

from .simplicial import SimplicialSet, SimplicialError, close_under_faces


class ChainComplexError(Exception):
    """d.d != 0: signals a construction bug upstream."""


class SparseIntMatrix:
    """Integer matrix stored as per-column {row: value} maps."""

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.cols: list[dict[int, int]] = [{} for _ in range(ncols)]

    def add(self, r: int, c: int, v: int) -> None:
        if v == 0:
            return
        col = self.cols[c]
        new = col.get(r, 0) + v
        if new:
            col[r] = new
        else:
            del col[r]

    def entries(self):
        for c, col in enumerate(self.cols):
            for r, v in col.items():
                yield r, c, v

    def nnz(self) -> int:
        return sum(len(col) for col in self.cols)

    def multiply(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = SparseIntMatrix(self.nrows, other.ncols)
        for c, col in enumerate(other.cols):
            acc: dict[int, int] = {}
            for mid, v in col.items():
                for r, w in self.cols[mid].items():
                    acc[r] = acc.get(r, 0) + v * w
            for r, v in acc.items():
                out.add(r, c, v)
        return out


@dataclass
class ChainComplex:
    """bases[n] lists the generator ids in degree n; boundaries[n] is the
    matrix of d_n from degree n to degree n-1 (boundaries[0] is the zero map
    out of degree 0)."""
    bases: list[list[int]]
    boundaries: list[SparseIntMatrix]

    @property
    def top(self) -> int:
        return len(self.bases) - 1

    def f_vector(self) -> list[int]:
        return [len(b) for b in self.bases]

    def check_dd_zero(self) -> bool:
        for n in range(1, len(self.boundaries)):
            if self.boundaries[n - 1].multiply(self.boundaries[n]).nnz():
                return False
        return True


@dataclass
class SmithResult:
    rank: int
    divisors: list[int]  # d_1 | d_2 | ... | d_rank, all positive


@dataclass
class HomologyResult:
    betti: list[int]
    torsion: list[list[int]]
    reduced: bool
    f_vector: list[int]
    euler: int

    def groups_equal(self, other: "HomologyResult") -> bool:
        """Degree-wise betti and torsion equality, padding with zeros."""
        top = max(len(self.betti), len(other.betti))
        for n in range(top):
            b1 = self.betti[n] if n < len(self.betti) else 0
            b2 = other.betti[n] if n < len(other.betti) else 0
            t1 = self.torsion[n] if n < len(self.torsion) else []
            t2 = other.torsion[n] if n < len(other.torsion) else []
            if b1 != b2 or sorted(t1) != sorted(t2):
                return False
        return True

    def is_trivial_in(self, n: int) -> bool:
        b = self.betti[n] if 0 <= n < len(self.betti) else 0
        t = self.torsion[n] if 0 <= n < len(self.torsion) else []
        return b == 0 and not t


def normalized_chains(S: SimplicialSet,
                      gens: set[int] | None = None) -> ChainComplex:
    """Free integer chains on the non-degenerate generators; the boundary is
    the alternating face sum with degenerate faces contributing zero.

    With gens, the chains of that generator-closed subset of S (a simplicial
    subset); a set not closed under faces raises SimplicialError.
    """
    if gens is None:
        bases = [list(S.by_dim[n]) for n in range(S.dim + 1)]
    else:
        if close_under_faces(S, gens) != gens:
            raise SimplicialError("generator set is not closed under faces")
        top = max((S.dim_of[g] for g in gens), default=0)
        bases = [[g for g in S.by_dim[n] if g in gens] if n <= S.dim else []
                 for n in range(top + 1)]
    index = [{g: i for i, g in enumerate(b)} for b in bases]
    boundaries = [SparseIntMatrix(0, len(bases[0]))]
    for n in range(1, len(bases)):
        M = SparseIntMatrix(len(bases[n - 1]), len(bases[n]))
        for c, g in enumerate(bases[n]):
            for i, f in enumerate(S.faces[g]):
                if f.is_degenerate:
                    continue
                M.add(index[n - 1][f.base], c, -1 if i % 2 else 1)
        boundaries.append(M)
    return ChainComplex(bases=bases, boundaries=boundaries)


def smith_normal_form(M: SparseIntMatrix) -> SmithResult:
    """Rank and elementary divisors of an integer matrix, by unimodular row
    and column operations with exact arithmetic.

    The input is not mutated.  One elimination loop runs on a sparse
    row/column store.  Every nonzero entry waits in a heap keyed (|v|,
    Markowitz cost (len(row) - 1) * (len(col) - 1), row, column), and is
    pushed again whenever it appears or its |v| shrinks.  A popped key that
    no longer matches its entry is dropped when the entry is gone and
    otherwise pushed back at its current key, so the pivot is an entry of
    least magnitude, and of least fill-in among those.

    A pivot step clears the pivot column by floor-division row operations;
    if a remainder is left, the pivot goes back on the heap behind it.  Once
    the column is clear and the pivot divides its row, column operations
    would touch no other row, so the row is deleted and |pivot| recorded;
    exp_k boundaries are almost all +-1, and then this is the whole step.
    Otherwise the row is reduced modulo the pivot, which goes back on the
    heap behind the remainders.

    The recorded pivots are the diagonal of an equivalent matrix; pairwise
    gcd/lcm exchanges turn its entries above 1 into the divisor chain
    d_1 | d_2 | ...  The Smith normal form is unique, so the result does not
    depend on the pivot order.
    """
    items = list(M.entries())

    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for r, c, v in items:
        rows.setdefault(r, {})[c] = v
        col_rows.setdefault(c, set()).add(r)

    def key(r: int, c: int, v: int) -> tuple[int, int, int, int]:
        return abs(v), (len(rows[r]) - 1) * (len(col_rows[c]) - 1), r, c

    heap = [key(r, c, v) for r, c, v in items]
    heapq.heapify(heap)

    def set_entry(r: int, row: dict[int, int], c: int, old: int,
                  new: int) -> None:
        # row is rows[r], holding old at c (0 when absent); c is a column
        # of the pivot row, so col_rows[c] exists
        if new:
            if not old:
                col_rows[c].add(r)
            row[c] = new
            if not old or abs(new) < abs(old):
                heapq.heappush(heap, key(r, c, new))
        else:
            del row[c]
            col = col_rows[c]
            col.discard(r)
            if not col:
                del col_rows[c]

    pivots: list[int] = []
    while heap:
        top = heapq.heappop(heap)
        _, _, pr, pc = top
        prow = rows.get(pr)
        pv = prow.get(pc) if prow else None
        if pv is None:
            continue
        now = key(pr, pc, pv)
        if now != top:
            heapq.heappush(heap, now)
            continue
        for r in col_rows[pc] - {pr}:
            row = rows[r]
            q = row[pc] // pv  # row_r -= q * row_pr
            for c, v in prow.items():
                old = row.get(c, 0)
                set_entry(r, row, c, old, old - q * v)
            if not row:
                del rows[r]
        if len(col_rows[pc]) > 1:
            heapq.heappush(heap, key(pr, pc, pv))
        elif all(v % pv == 0 for v in prow.values()):
            for c, v in list(prow.items()):
                set_entry(pr, prow, c, v, 0)
            del rows[pr]
            pivots.append(abs(pv))
        else:
            # col_c -= (v // pv) * col_pc touches row pr alone
            for c, v in list(prow.items()):
                if c != pc:
                    set_entry(pr, prow, c, v, v % pv)
            heapq.heappush(heap, key(pr, pc, pv))

    chain = [d for d in pivots if d > 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return SmithResult(rank=len(pivots),
                       divisors=[1] * (len(pivots) - len(chain)) + chain)


def homology(C: ChainComplex, reduced: bool = False) -> HomologyResult:
    """Betti numbers and torsion divisors of an integer chain complex.

    betti[n] = |basis_n| - rank d_n - rank d_{n+1}; torsion[n] is the list
    of elementary divisors of d_{n+1} exceeding 1.
    """
    if not C.check_dd_zero():
        raise ChainComplexError("boundary squared is nonzero")
    top = C.top
    snfs = [smith_normal_form(M) for M in C.boundaries]
    betti: list[int] = []
    torsion: list[list[int]] = []
    f_vector = C.f_vector()
    for n in range(top + 1):
        rank_in = snfs[n + 1].rank if n + 1 <= top else 0
        betti.append(f_vector[n] - snfs[n].rank - rank_in)
        torsion.append([d for d in snfs[n + 1].divisors if d > 1]
                       if n + 1 <= top else [])
    euler = sum((-1) ** n * f for n, f in enumerate(f_vector))
    if reduced and f_vector and f_vector[0] > 0:
        betti[0] -= 1
    return HomologyResult(betti=betti, torsion=torsion, reduced=reduced,
                          f_vector=f_vector, euler=euler)


def space_homology(S: SimplicialSet, reduced: bool = False) -> HomologyResult:
    return homology(normalized_chains(S), reduced=reduced)
