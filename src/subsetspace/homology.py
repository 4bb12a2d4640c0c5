"""Normalized integer chain complex and exact homology via Smith normal form.

All arithmetic is exact over Python's unbounded integers; boundary matrices
are kept sparse (per-column nonzero maps) since exp_k complexes are very
sparse.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .simplicial import SimplicialSet, SimplicialError


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

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for r, c, v in self.entries():
            out[r][c] = v
        return out

    @staticmethod
    def from_dense(rows: list[list[int]]) -> "SparseIntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        M = SparseIntMatrix(nrows, ncols)
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                M.add(r, c, v)
        return M

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

    def table(self) -> str:
        head = "H~" if self.reduced else "H"
        lines = []
        for n, (b, t) in enumerate(zip(self.betti, self.torsion)):
            parts = []
            if b:
                parts.append(f"Z^{b}" if b > 1 else "Z")
            parts.extend(f"Z/{d}" for d in t)
            lines.append(f"{head}_{n} = {' + '.join(parts) if parts else '0'}")
        return "\n".join(lines)

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
        for g in gens:
            if S.dim_of[g] >= 1:
                for f in S.faces[g]:
                    if f.base not in gens:
                        raise SimplicialError(
                            "generator set is not closed under faces")
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


def smith_normal_form(M) -> SmithResult:
    """Rank and elementary divisors of an integer matrix, by unimodular row
    and column operations with exact arithmetic.

    Accepts a SparseIntMatrix or a dense list of rows; the input is not
    mutated.  Two phases share one sparse store:

    1. Unit pivots.  While some entry is +-1, pivot on the one of lowest
       Markowitz cost (len(row) - 1) * (len(col) - 1), ties broken by lowest
       (row, column).  Candidates wait in a heap keyed on the cost when
       pushed; a popped candidate that is gone or no longer +-1 is dropped,
       and one whose cost has changed is pushed again at its current cost.
       Row operations clear the pivot column, +-1 entries created by fill-in
       join the heap, and the pivot row and column are deleted: over Z a
       unit pivot adds 1 to the rank and the divisor 1.
    2. Residual.  What is left has no unit entry.  Pivot on the smallest
       nonzero magnitude, ties broken by lowest (row, column), clear its row
       and column by floor-division steps, and fold a row into the pivot row
       until the pivot divides every remaining entry.

    The divisors are the phase-1 ones followed by the residual's, a divisor
    chain d_1 | d_2 | ...; the Smith normal form is unique, so the list does
    not depend on the pivot order.
    """
    if isinstance(M, SparseIntMatrix):
        items = list(M.entries())
    else:
        items = [(r, c, v) for r, row in enumerate(M)
                 for c, v in enumerate(row) if v]

    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for r, c, v in items:
        rows.setdefault(r, {})[c] = v
        col_rows.setdefault(c, set()).add(r)

    def set_entry(r: int, c: int, v: int) -> None:
        if v:
            rows.setdefault(r, {})[c] = v
            col_rows.setdefault(c, set()).add(r)
        else:
            row = rows.get(r)
            if row and c in row:
                del row[c]
                if not row:
                    del rows[r]
                col_rows[c].discard(r)
                if not col_rows[c]:
                    del col_rows[c]

    def cost(r: int, c: int) -> int:
        return (len(rows[r]) - 1) * (len(col_rows[c]) - 1)

    heap = [(cost(r, c), r, c) for r, c, v in items if v in (1, -1)]
    heapq.heapify(heap)
    units = 0
    while heap:
        key, pr, pc = heapq.heappop(heap)
        pv = rows.get(pr, {}).get(pc)
        if pv not in (1, -1):
            continue
        now = cost(pr, pc)
        if now != key:
            heapq.heappush(heap, (now, pr, pc))
            continue
        for r in sorted(col_rows[pc] - {pr}):
            q = rows[r][pc] * pv  # row_r -= q * row_pr clears the column
            for c, v in rows[pr].items():
                old = rows.get(r, {}).get(c, 0)
                new = old - q * v
                set_entry(r, c, new)
                if new in (1, -1) and old not in (1, -1):
                    heapq.heappush(heap, (cost(r, c), r, c))
        for c in list(rows[pr]):
            set_entry(pr, c, 0)
        units += 1

    def row_sub(dst: int, src: int, q: int) -> None:
        # row_dst -= q * row_src
        for c, v in list(rows.get(src, {}).items()):
            set_entry(dst, c, rows.get(dst, {}).get(c, 0) - q * v)

    def col_sub(dst: int, src: int, q: int) -> None:
        # col_dst -= q * col_src
        for r in list(col_rows.get(src, set())):
            v = rows[r][src]
            set_entry(r, dst, rows.get(r, {}).get(dst, 0) - q * v)

    def find_pivot() -> tuple[int, int]:
        _, r, c = min((abs(v), r, c)
                      for r, row in rows.items() for c, v in row.items())
        return r, c

    divisors = [1] * units
    while rows:
        pr, pc = find_pivot()
        while True:
            pv = rows[pr][pc]
            # clear the pivot column by row operations
            for r in sorted(col_rows[pc] - {pr}):
                row_sub(r, pr, rows[r][pc] // pv)
            if col_rows.get(pc, set()) != {pr}:
                # floor-division remainders are smaller than |pv|; re-pivot
                pr = min(col_rows[pc] - {pr})
                continue
            # clear the pivot row by column operations
            for c in sorted(set(rows[pr]) - {pc}):
                col_sub(c, pc, rows[pr][c] // pv)
            if set(rows[pr]) != {pc}:
                pc = min(set(rows[pr]) - {pc})
                continue
            # pivot must divide every remaining entry for the divisor chain
            pv = rows[pr][pc]
            bad = None
            for r in sorted(rows):
                if r == pr:
                    continue
                for c in sorted(rows[r]):
                    if rows[r][c] % pv:
                        bad = r
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_sub(pr, bad, -1)
        divisors.append(abs(rows[pr][pc]))
        set_entry(pr, pc, 0)
    return SmithResult(rank=len(divisors), divisors=divisors)


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
