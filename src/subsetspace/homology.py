"""Exact homology of normalized integer chain complexes via Smith normal form.

All arithmetic is exact over Python's unbounded integers; boundary matrices
are kept sparse (per-column nonzero maps) since exp_k complexes are very
sparse.  The chain types come from simplicial, which expk builds on too.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from math import gcd

from .simplicial import (ChainComplex, SimplicialSet, SparseIntMatrix,
                         normalized_chains)
from .expk import DEFAULT_MAX_CELLS, build_expk, capped_cells, expk_f_vector
from .spaces import reduce_base


class ChainComplexError(Exception):
    """d.d != 0: signals a construction bug upstream."""


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


def _least(rows: dict[int, dict[int, int]], col_rows: dict[int, set[int]],
           c: int) -> tuple[int, int]:
    """A pivot of least |v| in column c, in its shortest row."""
    return min(col_rows[c], key=lambda r: (abs(rows[r][c]),
                                           len(rows[r]))), c


def smith_normal_form(M: SparseIntMatrix,
                      skip: frozenset[int] | set[int] = frozenset()
                      ) -> SmithResult:
    """Rank and elementary divisors of an integer matrix, by unimodular row
    and column operations with exact arithmetic; the input is not mutated.
    The entries of the columns in skip are read as zero.

    One pivot loop on a sparse row/column store.  It takes first a +-1
    alone in its row or column (from a worklist; its pivot only deletes
    entries), else the shortest column of a sweep heap keyed (late, length,
    column) and re-keyed when stale: its +-1 in the shortest row or, if it
    has none, its least |v| once it comes back with late = 1, behind every
    column not yet found without a +-1.

    A pivot step clears its column by floor-division row operations; a
    remainder left in the column is the next pivot.  Once the column is
    clear, a pivot that divides its row deletes the row (column operations
    would touch no other row) and is recorded.  Otherwise the row is
    reduced modulo it, the column goes back on the sweep, and the next pivot
    is in the column of the row's least entry.  |pivot| falls at every step
    that deletes no row, so the loop ends.  Pairwise gcd/lcm exchanges turn
    the recorded pivots above 1 into the divisor chain d_1 | d_2 | ...; it
    is unique, so pivot order is free.

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

    done: list[int] = []  # the rows deleted, in order
    chain: list[int] = []
    n_cleared = nxt = None
    work = [(r, *row) for r, row in rows.items() if len(row) == 1]
    work += [(*col, c) for c, col in col_rows.items() if len(col) == 1]
    sweep = [(0, len(col), c) for c, col in col_rows.items()]
    heapq.heapify(sweep)
    while nxt or work or sweep:
        if nxt:
            (pr, pc), nxt = nxt, None
        elif work:
            pr, pc = work.pop()
            prow = rows.get(pr)
            if not (prow and prow.get(pc) in (1, -1)
                    and (len(prow) == 1 or len(col_rows[pc]) == 1)):
                continue
        else:
            late, n, pc = heapq.heappop(sweep)
            col = col_rows.get(pc)
            if not col or len(col) != n:
                if col:
                    heapq.heappush(sweep, (late, len(col), pc))
                continue
            units = [(len(rows[r]), r) for r in col if rows[r][pc] in (1, -1)]
            if units:
                pr = min(units)[1]
            elif late:
                pr, pc = _least(rows, col_rows, pc)
            else:
                heapq.heappush(sweep, (1, n, pc))
                continue
        # row_r -= q * row_pr; rows and columns left with one entry join work
        prow = rows.pop(pr)
        pv = prow.pop(pc)
        pcol = col_rows.pop(pc)
        pcol.remove(pr)
        unit = pv in (1, -1)
        if not unit:
            kept = {}  # row: the remainder it keeps in column pc
            for r in pcol:
                if rows[r][pc] % pv:
                    kept[r] = rows[r][pc] % pv
        for r in pcol:
            row = rows[r]
            q = row.pop(pc) // pv
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
        if not unit:
            if n_cleared is None:
                n_cleared = len(done)
            for r, v in kept.items():
                rows.setdefault(r, {})[pc] = v
            if not kept:
                # col_c -= (v // pv) * col_pc touches row pr alone
                for c, v in list(prow.items()):
                    if v % pv:
                        prow[c] = v % pv
                    else:
                        del prow[c]
                        col = col_rows[c]
                        col.remove(pr)
                        if not col:
                            del col_rows[c]
            if kept or prow:
                # pivot next on the least remainder, else in the column of
                # the reduced row's least entry
                c = pc if kept else min(
                    (abs(v), c) for c, v in prow.items())[1]
                rows[pr] = prow
                prow[pc] = pv
                col_rows[pc] = {pr, *kept}
                if not kept:
                    heapq.heappush(sweep, (1, 1, pc))
                nxt = _least(rows, col_rows, c)
                continue
            chain.append(abs(pv))
        for c in prow:
            col = col_rows[c]
            col.remove(pr)
            if not col:
                del col_rows[c]
            elif len(col) == 1:
                work.append((*col, c))
        done.append(pr)

    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    rank = len(done)
    return SmithResult(rank=rank, divisors=[1] * (rank - len(chain)) + chain,
                       cleared=done[:n_cleared])


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
    snfs = [SmithResult(rank=0, divisors=[])]  # of d_n, from d_{top+1} = 0
    for M in reversed(C.boundaries):
        snfs.append(smith_normal_form(M, set(snfs[-1].cleared)))
    snfs.reverse()  # snfs[n] is d_n's
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


def expk_homology(S: SimplicialSet, k: int, reduced: bool = False,
                  max_cells: int = DEFAULT_MAX_CELLS
                  ) -> tuple[HomologyResult, int]:
    """(homology of exp_k S, its cells_enumerated), computed on exp_k(S/K)
    once S's levels pass the cap.  |S| -> |S/K| is a homotopy equivalence
    (Hatcher, Algebraic Topology, Prop. 0.17), and exp_k keeps it one
    (Handel, Houston J. Math. 26, 2000), so the groups and euler hold for
    exp_k S.  When S/K is not S, the f-vector is exp_k S's closed form, and
    the groups are padded with zeros to its length; S's cap is tested
    first, so its first level over the cap is the one reported."""
    R = reduce_base(S)
    if R is S:
        space = build_expk(S, k, max_cells)
        return homology(space.result, reduced), space.cells_enumerated
    cells = capped_cells(S, k, max_cells)
    h = homology(build_expk(R, k, max_cells).result, reduced)
    f = expk_f_vector(S, k)
    pad = range(len(f) - len(h.betti))
    return h._replace(f_vector=f, betti=h.betti + [0 for _ in pad],
                      torsion=h.torsion + [[] for _ in pad]), cells
