"""Normalized integer chain complex and exact homology via Smith normal form.

All arithmetic is exact over Python's unbounded integers; boundary matrices
are kept sparse (per-column nonzero maps) since exp_k complexes are very
sparse.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
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
        col = self.cols[c]
        new = col.get(r, 0) + v
        if new:
            col[r] = new
        elif r in col:
            del col[r]

    def entries(self):
        for c, col in enumerate(self.cols):
            for r, v in col.items():
                yield r, c, v

    def nnz(self) -> int:
        return sum(len(col) for col in self.cols)


class ChainComplex(namedtuple("ChainComplex", "bases boundaries")):
    """bases[n] lists the generator ids in degree n; boundaries[n] is the
    SparseIntMatrix of d_n from degree n to degree n-1 (boundaries[0] is the
    zero map out of degree 0)."""
    __slots__ = ()

    @property
    def top(self) -> int:
        return len(self.bases) - 1

    def f_vector(self) -> list[int]:
        return [len(b) for b in self.bases]

    def check_dd_zero(self) -> bool:
        """Exact d_{n-1} d_n = 0 in every degree, one column at a time."""
        for lower, upper in zip(self.boundaries, self.boundaries[1:]):
            for col in upper.cols:
                acc: dict[int, int] = {}
                for mid, v in col.items():
                    for r, w in lower.cols[mid].items():
                        acc[r] = acc.get(r, 0) + v * w
                if any(acc.values()):
                    return False
        return True


# rank: int; divisors: d_1 | d_2 | ... | d_rank, all positive; cleared: the
# rows deleted as +-1 pivots in the unit phase (see smith_normal_form)
SmithResult = namedtuple("SmithResult", "rank divisors cleared",
                         defaults=((),))


class HomologyResult(namedtuple("HomologyResult",
                                "betti torsion reduced f_vector euler")):
    """betti, torsion and f_vector are lists indexed by degree, torsion[n]
    the divisors > 1 of H_n; reduced is a bool and euler an int."""
    __slots__ = ()

    def group(self, n: int) -> tuple[int, list[int]]:
        """Betti number and sorted torsion in degree n; (0, []) outside."""
        if 0 <= n < len(self.betti):
            return self.betti[n], sorted(self.torsion[n])
        return 0, []

    def groups_equal(self, other: "HomologyResult") -> bool:
        """Degree-wise betti and torsion equality, padding with zeros."""
        top = max(len(self.betti), len(other.betti))
        return all(self.group(n) == other.group(n) for n in range(top))

    def is_trivial_in(self, n: int) -> bool:
        return self.group(n) == (0, [])


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
        row_of = index[n - 1]
        for g, col in zip(bases[n], M.cols):  # SparseIntMatrix.add, inlined
            for i, (base, word, _) in enumerate(S.faces[g]):
                if not word:
                    r = row_of[base]
                    v = col[r] = col.get(r, 0) + (-1 if i % 2 else 1)
                    if not v:
                        del col[r]
        boundaries.append(M)
    return ChainComplex(bases=bases, boundaries=boundaries)


def smith_normal_form(M: SparseIntMatrix,
                      skip: frozenset[int] | set[int] = frozenset()
                      ) -> SmithResult:
    """Rank and elementary divisors of an integer matrix, by unimodular row
    and column operations with exact arithmetic; the input is not mutated.
    The entries of the columns in skip are read as zero.

    The +-1 pivots come first, on a sparse row/column store.  Each clears
    its column by row operations, and its row is then deleted (column
    operations would touch no other row).  A worklist holds each +-1 alone
    in its row or column, whose pivot only deletes entries, and takes first
    any +-1 that a pivot leaves alone.  Otherwise the shortest column, from
    a heap of column lengths re-keyed when stale, pivots on its +-1 in the
    shortest row; a column without a +-1 is passed over.

    What is left runs a heap loop.  Every nonzero entry waits in a heap
    keyed (|v|, Markowitz cost (len(row) - 1) * (len(col) - 1), row,
    column), pushed again whenever it appears or its |v| shrinks; a stale
    popped key is dropped or pushed back at its current key, so the pivot is
    an entry of least magnitude, then of least fill-in.  A pivot step clears
    the pivot column by floor-division row operations; a remainder sends the
    pivot back on the heap behind it.  Once the column is clear and the
    pivot divides its row, the row is deleted and |pivot| recorded;
    otherwise the row is reduced modulo the pivot, which goes back on the
    heap.  Pairwise gcd/lcm exchanges turn the recorded pivots above 1 into
    the divisor chain d_1 | d_2 | ...; it is unique, so pivot order is free.

    cleared lists the rows deleted as +-1 pivots before the first pivot step
    with |pv| != 1.
    """
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for c, col in enumerate(M.cols):
        if col and c not in skip:
            col_rows[c] = set(col)
            for r, v in col.items():
                rows.setdefault(r, {})[c] = v

    cleared: list[int] = []
    work = [(r, *row) for r, row in rows.items() if len(row) == 1]
    work += [(*col, c) for c, col in col_rows.items() if len(col) == 1]
    sweep = [(len(col), c) for c, col in col_rows.items()]
    heapq.heapify(sweep)
    while work or sweep:
        if work:
            pr, pc = work.pop()
            prow = rows.get(pr)
            if not (prow and prow.get(pc) in (1, -1)
                    and (len(prow) == 1 or len(col_rows[pc]) == 1)):
                continue
        else:
            n, pc = heapq.heappop(sweep)
            col = col_rows.get(pc)
            if not col or len(col) != n:
                if col:
                    heapq.heappush(sweep, (len(col), pc))
                continue
            units = [(len(rows[r]), r) for r in col if rows[r][pc] in (1, -1)]
            if not units:
                continue
            pr = min(units)[1]
        # row_r -= q * row_pr; rows and columns left with one entry join work
        prow = rows.pop(pr)
        pv = prow.pop(pc)
        pcol = col_rows.pop(pc)
        pcol.remove(pr)
        for r in pcol:
            row = rows[r]
            q = row.pop(pc) * pv
            for c, v in prow.items():
                old = row.get(c)
                if old is None:
                    row[c] = -q * v
                    col_rows[c].add(r)
                elif old != q * v:
                    row[c] = old - q * v
                else:
                    del row[c]
                    col_rows[c].remove(r)
            if not row:
                del rows[r]
            elif len(row) == 1:
                work.append((r, *row))
        for c in prow:
            col = col_rows[c]
            col.remove(pr)
            if not col:
                del col_rows[c]
            elif len(col) == 1:
                work.append((*col, c))
        cleared.append(pr)

    def key(r: int, c: int, v: int) -> tuple[int, int, int, int]:
        return abs(v), (len(rows[r]) - 1) * (len(col_rows[c]) - 1), r, c

    heap = [key(r, c, v) for r, row in rows.items() for c, v in row.items()]
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

    pivots = [1] * len(cleared)
    unit_phase = True
    while heap:
        _, _, pr, pc = top = heapq.heappop(heap)
        prow = rows.get(pr)
        pv = prow.get(pc) if prow else None
        if pv is None:
            continue
        now = key(pr, pc, pv)
        if now != top:
            heapq.heappush(heap, now)
            continue
        unit_phase = unit_phase and abs(pv) == 1
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
            if unit_phase:
                cleared.append(pr)
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
                       divisors=[1] * (len(pivots) - len(chain)) + chain,
                       cleared=cleared)


def homology(C: ChainComplex, reduced: bool = False) -> HomologyResult:
    """Betti numbers and torsion divisors of an integer chain complex.

    betti[n] = |basis_n| - rank d_n - rank d_{n+1}; torsion[n] is the list
    of elementary divisors of d_{n+1} exceeding 1.

    Clearing (Chen and Kerber, "Persistent homology computation with a
    twist", 2011): the SNFs run from d_top down, and the SNF of d_n skips
    the columns that are cleared rows of d_{n+1}.  Until its first non-unit
    pivot, the SNF's row operations change only the pivot row's basis
    vector (a +-1 alone in its column needs none), so cleared row u stands
    for b_u = e_u + sum q e_r (r alive then) = +-d_{n+1} of a column, and
    d_n(b_u) = 0.  The b_u are unit-triangular
    in pivot order, so with the uncleared e_r they form a Z-basis, in which
    d_n has the cleared columns empty: rank, divisors and image are kept.
    """
    if not C.check_dd_zero():
        raise ChainComplexError("boundary squared is nonzero")
    snfs = [SmithResult(rank=0, divisors=[])]  # of d_n at n; d_{top+1} = 0
    for M in reversed(C.boundaries):
        snfs.insert(0, smith_normal_form(M, set(snfs[0].cleared)))
    f_vector = C.f_vector()
    betti = [f - snfs[n].rank - snfs[n + 1].rank
             for n, f in enumerate(f_vector)]
    torsion = [[d for d in s.divisors if d > 1] for s in snfs[1:]]
    euler = sum((-1) ** n * f for n, f in enumerate(f_vector))
    if reduced and f_vector and f_vector[0] > 0:
        betti[0] -= 1
    return HomologyResult(betti=betti, torsion=torsion, reduced=reduced,
                          f_vector=f_vector, euler=euler)


def space_homology(S: SimplicialSet, reduced: bool = False) -> HomologyResult:
    return homology(normalized_chains(S), reduced=reduced)
