"""Independent oracles used by the tests.

Degeneracy words are modelled by their action on monotone index tuples of
the standard simplex (s_j duplicates entry j, d_i deletes entry i), so word
algebra can be checked without any normal-form machinery.  The oracles work
on words as decreasing index tuples and convert to and from the engine's
bitmasks (word_tuple, word_mask) only at their boundary.  Degeneracy sets
and the subset normal form are checked against the exact membership test
s_i(d_i(x)) == x, the face-by-face stripper and the object-level closed-form
strip; the pruned subset search against the unpruned search it replaced,
which with the membership test also rebuilds the generators of exp_k S as
element tuples (expk_subsets).  With the closed-form strip of each face
they make exp_k S a simplicial set (expk_simplicial_set), the reference
for the build's chains and for every face-table check of exp_k.  Integer matrix
facts are checked against brute-force cofactor determinants and minors, and
the Smith normal form against the single-phase elimination it replaced.
The Euler characteristic of exp_k X is checked against the
configuration-space stratification, and its f-vector against a closed form
in the generator dimensions of X.  The homology of exp_2 S^n is checked
against the cofibre sequence S^n -> SP^2 S^n -> Sigma^{n+1} RP^{n-1}, and
the oracle's exp_1 S against S by a backtracking isomorphism search.  complex_to_sset
turns a facet list into a simplicial set for triangulated test bases.  The
helpers at the end compare chain complexes by value and convert to and from
SparseIntMatrix.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, prod

from subsetspace.homology import (ChainComplex, HomologyResult, SmithResult,
                                  SparseIntMatrix)
from subsetspace.simplicial import (SimplicialSet, SimplicialError,
                                    apply_face, enumerate_level)


def word_tuple(mask: int) -> tuple[int, ...]:
    """The indices of a word bitmask, decreasing: (i_1, ..., i_p) for
    s_{i_1} ... s_{i_p}."""
    return tuple(i for i in range(mask.bit_length() - 1, -1, -1)
                 if mask >> i & 1)


def word_mask(word: tuple[int, ...]) -> int:
    """The bitmask of a strictly decreasing index tuple."""
    assert all(a > b for a, b in zip(word, word[1:])), word
    return sum(1 << i for i in word)


def compose_tuple(word: tuple[int, ...], j: int) -> tuple[int, ...]:
    """s_j after a decreasing index tuple, pushed into its sorted slot by
    s_j s_i = s_{i+1} s_j for j <= i."""
    return (tuple(i + 1 for i in word if i >= j) + (j,)
            + tuple(i for i in word if i < j))


def simplex_dim(S: SimplicialSet, x: tuple[int, int]) -> int:
    """The dimension of x = (base, word) in S: its base's plus its word's
    length."""
    base, word = x
    return S.dim_of[base] + word.bit_count()


def degenerate(x: tuple[int, int], j: int) -> tuple[int, int]:
    """s_j x, its word composed by the tuple model."""
    base, word = x
    return base, word_mask(compose_tuple(word_tuple(word), j))


def s_on_tuple(t: tuple[int, ...], j: int) -> tuple[int, ...]:
    assert 0 <= j <= len(t) - 1
    return t[:j + 1] + t[j:]


def d_on_tuple(t: tuple[int, ...], i: int) -> tuple[int, ...]:
    assert 0 <= i <= len(t) - 1
    return t[:i] + t[i + 1:]


def eval_word(word: int, base_dim: int) -> tuple[int, ...]:
    """The monotone surjection encoded by a degeneracy word, as the image
    tuple of (0, ..., base_dim); operators apply right to left."""
    t = tuple(range(base_dim + 1))
    for j in reversed(word_tuple(word)):
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


def degeneracy_set(x: tuple[int, int], S: SimplicialSet) -> frozenset[int]:
    """Indices i with x in the image of s_i, by the exact membership test
    s_i(d_i(x)) == x."""
    n = simplex_dim(S, x)
    if n == 0:
        return frozenset()
    return frozenset(i for i in range(n)
                     if degenerate(apply_face(x, i, S), i) == x)


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


def subset_tuple(elements, S: SimplicialSet) -> tuple[tuple[int, int], ...]:
    """A simplex of exp_k S as the sorted tuple of its distinct elements,
    which must be nonempty and of one dimension in S."""
    elems = tuple(sorted(set(elements)))
    if not elems:
        raise SimplicialError("subset simplex must be nonempty")
    if len({simplex_dim(S, e) for e in elems}) != 1:
        raise SimplicialError("subset elements must have equal dimension")
    return elems


def strip_degeneracies(A, S: SimplicialSet
                       ) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Eilenberg-Zilber normal form of a set of equal-dimension simplices of S:
    word . core, with core a non-degenerate subset.

    A simplex lies in the image of s_i exactly when i is in its normal-form
    word, so the subset's common degeneracies are the intersection C of its
    elements' words.  The stripped word is C in decreasing order; each core
    element drops C from its word and lowers every remaining index by the
    number of indices of C below it."""
    elems = set(A)
    if not elems:
        raise SimplicialError("cannot strip an empty subset")
    common = frozenset.intersection(*(frozenset(word_tuple(word))
                                      for _, word in elems))
    if not common:
        return 0, subset_tuple(elems, S)
    core = [(base, word_mask(tuple(i - sum(c < i for c in common)
                                   for i in word_tuple(word)
                                   if i not in common)))
            for base, word in elems]
    return (word_mask(tuple(sorted(common, reverse=True))),
            subset_tuple(core, S))


def nondegenerate_subsets_unpruned(dsets: list[frozenset[int]],
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


def strip_degeneracies_iterative(A, S: SimplicialSet, order: str = "min"
                                 ) -> tuple[int, tuple[tuple[int, int], ...]]:
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
        word = compose_tuple(word, j)
    return word_mask(word), subset_tuple(elems, S)


def expk_subsets(S: SimplicialSet,
                 k: int) -> list[tuple[tuple[int, int], ...]]:
    """The generators of exp_k S in the build's id order, each as its
    subset_tuple: level by level, the subsets of size <= k whose
    degeneracy sets (by the membership test) have an empty intersection,
    found by the unpruned search in lexicographic order of level
    indices."""
    out = []
    for n in range(k * S.dim + 1):
        level = enumerate_level(S, n)
        dsets = [degeneracy_set(x, S) for x in level]
        out += [tuple(level[a] for a in idxs)
                for idxs in nondegenerate_subsets_unpruned(dsets, k)]
    return out


def expk_simplicial_set(S: SimplicialSet, k: int) -> SimplicialSet:
    """exp_k S as a simplicial set, from the tuple model alone: its
    generators are expk_subsets(S, k), in that order, and face d_i of a
    generator is the strip_degeneracies normal form of the set of its
    elements' d_i, word on the id of the core subset."""
    subsets = expk_subsets(S, k)
    id_of = {sub: g for g, sub in enumerate(subsets)}
    X = SimplicialSet()
    for sub in subsets:
        X.add_generator(simplex_dim(S, sub[0]))
    for g, sub in enumerate(subsets):
        if n := X.dim_of[g]:
            stripped = (strip_degeneracies([apply_face(a, i, S) for a in sub],
                                           S) for i in range(n + 1))
            X.set_faces(g, [(id_of[core], word) for word, core in stripped])
    return X


def generalized_binomial(x: int, j: int) -> int:
    """C(x, j) = x (x-1) ... (x-j+1) / j!, for any integer x."""
    return prod(x - t for t in range(j)) // factorial(j)


def subset_space_euler(chi: int, k: int) -> int:
    """chi(exp_k X) = sum_{j=1..k} C(chi(X), j): exp_k X is stratified by
    the unordered configuration spaces B_j X, with chi_c(B_j X) =
    C(chi(X), j)."""
    return sum(generalized_binomial(chi, j) for j in range(1, k + 1))


def expk_f_vector_reference(S: SimplicialSet, k: int) -> list[int]:
    """The closed-form f-vector of exp_k S at every k, with each level's
    simplex and subset counts recomputed for each (n, t): f_n = sum_t
    (-1)^t C(n, t) sum_{j <= k} C(N(n - t), j), N(l) = sum_g C(l, dim g)."""
    return [sum((-1) ** t * comb(n, t)
                * sum(comb(sum(comb(n - t, d) for d in S.dim_of), j)
                      for j in range(1, k + 1))
                for t in range(n + 1)) for n in range(k * S.dim + 1)]


def subset_space_f_vector(dims: list[int], k: int) -> list[int]:
    """f-vector of exp_k X from the dimensions of X's generators alone.

    A level-n simplex over a generator of dimension d is an (n-d)-subset W of
    [n] (its word), and a subset of simplices is non-degenerate exactly when
    their words have an empty intersection.  Inclusion-exclusion over the
    indices T the words must all contain: the simplices whose word contains T
    number N_t = sum_g C(n - t, dim g) for |T| = t, so
    f_n = sum_t (-1)^t C(n, t) sum_{j=1..k} C(N_t, j).  Trailing zero
    levels are dropped."""
    f = []
    for n in range(k * max(dims) + 1):
        f.append(sum((-1) ** t * comb(n, t)
                     * sum(comb(sum(comb(n - t, d) for d in dims), j)
                           for j in range(1, k + 1))
                     for t in range(n + 1)))
    while f and not f[-1]:
        f.pop()
    return f


def smith_normal_form_reference(M) -> SmithResult:
    """Rank and elementary divisors of an integer matrix, by unimodular row
    and column operations with exact arithmetic.

    Accepts a SparseIntMatrix or a dense list of rows; the input is not
    mutated.  Pivot selection is smallest nonzero magnitude with ties broken
    by lowest (row, column), which controls entry growth and makes the
    elimination deterministic.  A +-1 pivot is taken from the set of unit
    positions and skips the divisibility scan; neither shortcut changes the
    elimination.
    """
    if isinstance(M, SparseIntMatrix):
        items = [(r, c, v) for c, col in enumerate(M.cols)
                 for r, v in col.items()]
    else:
        items = [(r, c, v) for r, row in enumerate(M)
                 for c, v in enumerate(row) if v]

    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    units: set[tuple[int, int]] = set()  # positions of the +-1 entries
    for r, c, v in items:
        rows.setdefault(r, {})[c] = v
        col_rows.setdefault(c, set()).add(r)
        if abs(v) == 1:
            units.add((r, c))

    def set_entry(r: int, c: int, v: int) -> None:
        if abs(v) == 1:
            units.add((r, c))
        else:
            units.discard((r, c))
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

    def row_sub(dst: int, src: int, q: int) -> None:
        # row_dst -= q * row_src
        for c, v in list(rows.get(src, {}).items()):
            set_entry(dst, c, rows.get(dst, {}).get(c, 0) - q * v)

    def col_sub(dst: int, src: int, q: int) -> None:
        # col_dst -= q * col_src
        for r in list(col_rows.get(src, set())):
            v = rows[r][src]
            set_entry(r, dst, rows.get(r, {}).get(dst, 0) - q * v)

    def find_pivot() -> tuple[int, int, int]:
        if units:  # no magnitude is below 1
            r, c = min(units)
            return r, c, 1
        best = None
        for r in rows:
            for c, v in rows[r].items():
                key = (abs(v), r, c)
                if best is None or key < best:
                    best = key
        return best[1], best[2], None if best is None else best[0]

    divisors: list[int] = []
    while rows:
        pr, pc, _ = find_pivot()
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
            for r in sorted(rows) if abs(pv) != 1 else ():
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


def homology_reference(C: ChainComplex) -> HomologyResult:
    """Homology assembled from the reference SNF of every full boundary, one
    degree at a time, with no clearing; the caller checks d.d = 0."""
    snfs = [smith_normal_form_reference(M) for M in C.boundaries]
    f_vector = C.f_vector()
    top = len(f_vector) - 1
    betti, torsion = [], []
    for n in range(top + 1):
        rank_in = snfs[n + 1].rank if n < top else 0
        betti.append(f_vector[n] - snfs[n].rank - rank_in)
        torsion.append([d for d in snfs[n + 1].divisors if d > 1]
                       if n < top else [])
    return HomologyResult(
        betti=betti, torsion=torsion, reduced=False, f_vector=f_vector,
        euler=sum((-1) ** n * f for n, f in enumerate(f_vector)))


def betti_mod_p(C: ChainComplex, p: int) -> list[int]:
    """dim H_n(C; F_p) for n = 0..top, for a prime p: the basis size less
    the F_p ranks of d_n and d_{n+1}, by column elimination over F_p.  At
    p = 2 a column is the int bitset of its odd rows, reduced by XOR
    against kept columns keyed by their highest bit; at odd p it is a
    {row: residue} dict, reduced against kept columns keyed by their least
    row, each scaled to 1 there."""
    ranks = []
    for M in C.boundaries:
        kept: dict = {}
        for col in M.cols:
            if p == 2:
                v = sum(1 << r for r, x in col.items() if x % 2)
                while v and (top := v.bit_length() - 1) in kept:
                    v ^= kept[top]
                if v:
                    kept[top] = v
                continue
            v = {r: x % p for r, x in col.items() if x % p}
            while v and (low := min(v)) in kept:
                f = v[low]
                for r, x in kept[low].items():
                    if y := (v.get(r, 0) - f * x) % p:
                        v[r] = y
                    else:
                        v.pop(r, None)
            if v:
                inv = pow(v[low], -1, p)
                kept[low] = {r: x * inv % p for r, x in v.items()}
        ranks.append(len(kept))
    ranks.append(0)  # d_{top+1} = 0
    return [f - ranks[n] - ranks[n + 1] for n, f in enumerate(C.f_vector())]


def invariant_factors(orders: list[int]) -> list[int]:
    """The group Z/a + Z/b + ... of the given orders as Z/d_1 + Z/d_2 + ...
    with 1 < d_1 | d_2 | ..., gathered from its prime-power parts."""
    exponents: dict[int, list[int]] = {}
    for a in orders:
        p = 2
        while a > 1:
            e = 0
            while a % p == 0:
                a, e = a // p, e + 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
    length = max(map(len, exponents.values()), default=0)
    out = [1] * length
    for p, es in exponents.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            out[length - 1 - i] *= p ** e
    return out


def random_model_complex(rng: random.Random):
    """A chain complex of known homology: (C, betti, torsion, coefficients),
    where coefficients[n] lists the model's pair coefficients in d_n.

    The model in each degree has free cells (d = 0, not hit), +-1 pairs and
    torsion pairs d(a) = t b with t in 2..6.  Each degree is then conjugated
    by a random sparse unimodular change of basis: a cell shuffle, then
    elementary matrices E = I + q e_ij with |q| <= 3, each applied as
    d_{n+1} -> E d_{n+1} and d_n -> d_n E^-1.  So d.d = 0 holds and the
    groups are those of the model.
    """
    top = rng.randint(1, 5)
    free = [rng.randint(0, 2) for _ in range(top + 1)]
    cells: list[list[tuple]] = [[("free",)] * f for f in free]
    coefficients: list[list[int]] = [[] for _ in range(top + 1)]
    pairs = []  # (degree of a, coefficient)
    for n in range(1, top + 1):
        units = [rng.choice((1, -1)) for _ in range(rng.randint(0, 4))]
        coefficients[n] = units + [rng.randint(2, 6)
                                   for _ in range(rng.randint(0, 2))]
        pairs += [(n, t) for t in coefficients[n]]
    for i, (n, t) in enumerate(pairs):
        cells[n].append(("a", i))
        cells[n - 1].append(("b", i))
    for basis in cells:
        rng.shuffle(basis)
    # dense d_n, rows indexed by degree n-1 cells, columns by degree n cells
    d = [[[0] * len(cells[n]) for _ in cells[n - 1]] if n else []
         for n in range(top + 1)]
    for n in range(1, top + 1):
        where = {cell: r for r, cell in enumerate(cells[n - 1])}
        for c, cell in enumerate(cells[n]):
            if cell[0] == "a":
                d[n][where[("b", cell[1])]][c] = pairs[cell[1]][1]
    for n in range(top + 1):
        size = len(cells[n])
        for _ in range(rng.randint(0, 3 * size) if size > 1 else 0):
            i, j = rng.sample(range(size), 2)
            q = rng.choice((-3, -2, -1, 1, 2, 3))
            if n < top:  # row_i += q row_j of d_{n+1}
                d[n + 1][i] = [x + q * y
                               for x, y in zip(d[n + 1][i], d[n + 1][j])]
            for row in d[n]:  # col_j -= q col_i of d_n
                row[j] -= q * row[i]
    boundaries = []
    for n in range(top + 1):
        M = SparseIntMatrix(len(cells[n]))
        for r, row in enumerate(d[n]):
            for c, v in enumerate(row):
                if v:
                    M.cols[c][r] = v
        boundaries.append(M)
    C = ChainComplex(boundaries)
    torsion = [invariant_factors([t for t in coefficients[n + 1] if t > 1])
               if n < top else [] for n in range(top + 1)]
    return C, free, torsion, coefficients


def sp2_sphere_reduced_homology(n: int) -> tuple[list[int], list[list[int]]]:
    """Reduced Betti numbers and torsion of SP^2 S^n = exp_2 S^n in degrees
    0..2n, for n >= 1.

    SP^2 S^n / S^n is Sigma^{n+1} RP^{n-1}.  The reduced homology of
    RP^{n-1} is Z/2 in each odd degree i < n - 1 and Z in degree n - 1 when
    n - 1 is odd, so the quotient's is Z/2 in degrees n + 1 + i and Z in
    degree 2n when n is even, all above n + 1.  In the long exact sequence of
    the pair (SP^2 S^n, S^n) the quotient has nothing in degrees n and n + 1
    and S^n nothing above n, so H~(SP^2 S^n) is Z in degree n and the
    quotient's above it.
    """
    betti = [0] * (2 * n + 1)
    torsion: list[list[int]] = [[] for _ in range(2 * n + 1)]
    betti[n] = 1
    for i in range(1, n - 1, 2):
        torsion[n + 1 + i] = [2]
    if n % 2 == 0:
        betti[2 * n] = 1
    return betti, torsion


def find_isomorphism(A: SimplicialSet, B: SimplicialSet) -> dict[int, int] | None:
    """Search for a simplicial isomorphism A -> B; returns the generator map
    or None.  Backtracking over generators in order of increasing dimension,
    pruning on face compatibility (faces only reference lower dimensions)."""
    if A.f_vector() != B.f_vector():
        return None
    order = sorted(range(len(A.dim_of)), key=lambda g: (A.dim_of[g], g))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def image(x: tuple[int, int]) -> tuple[int, int]:
        return mapping[x[0]], x[1]

    def compatible(g: int, h: int) -> bool:
        if A.dim_of[g] != B.dim_of[h]:
            return False
        if A.dim_of[g] == 0:
            return True
        fa, fb = A.faces[g], B.faces[h]
        return all(image(fa[i]) == fb[i] for i in range(len(fa)))

    def extend(pos: int) -> bool:
        if pos == len(order):
            return True
        g = order[pos]
        for h, n in enumerate(B.dim_of):
            if n != A.dim_of[g] or h in used:
                continue
            mapping[g] = h
            if compatible(g, h):
                used.add(h)
                if extend(pos + 1):
                    return True
                used.discard(h)
            del mapping[g]
        return False

    return dict(mapping) if extend(0) else None


def complex_to_sset(facets) -> SimplicialSet:
    """The simplicial set of the simplicial complex whose facets are the
    given vertex lists: one generator per face of a facet, ordered by
    dimension and then by sorted vertex tuple, and face i of a simplex drops
    its i-th vertex."""
    cells = sorted({c for f in facets for r in range(1, len(f) + 1)
                    for c in combinations(sorted(f), r)},
                   key=lambda c: (len(c), c))
    S = SimplicialSet()
    ids = {c: S.add_generator(len(c) - 1) for c in cells}
    for c in cells[S.dim_of.count(0):]:
        S.set_faces(ids[c], [(ids[c[:i] + c[i + 1:]], 0)
                             for i in range(len(c))])
    return S


def moore_space_z2() -> SimplicialSet:
    """M(Z/2, 1) on one vertex v: a loop a, and a 2-simplex e with faces
    (a, s_0 v, a), so that e's boundary runs twice around a."""
    S = SimplicialSet()
    v, a, e = (S.add_generator(d) for d in (0, 1, 2))
    S.set_faces(a, [(v, 0), (v, 0)])
    S.set_faces(e, [(a, 0), (v, 1), (a, 0)])
    return S


def chain_tables(C: ChainComplex):
    """C as plain data that compares by value: its f-vector, which sizes
    each boundary's rows, and each boundary's columns."""
    return C.f_vector(), [M.cols for M in C.boundaries]


def to_dense(M: SparseIntMatrix, nrows: int) -> list[list[int]]:
    """M as nrows dense rows; a boundary d_n of a complex has f_{n-1}."""
    out = [[0] * len(M.cols) for _ in range(nrows)]
    for c, col in enumerate(M.cols):
        for r, v in col.items():
            out[r][c] = v
    return out


def dense_boundaries(C: ChainComplex) -> list[list[list[int]]]:
    """Each boundary d_n of C as dense rows, f_{n-1} of them."""
    f = C.f_vector()
    return [to_dense(M, f[n - 1] if n else 0)
            for n, M in enumerate(C.boundaries)]


def from_dense(rows: list[list[int]]) -> SparseIntMatrix:
    M = SparseIntMatrix(len(rows[0]) if rows else 0)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                M.cols[c][r] = v
    return M
