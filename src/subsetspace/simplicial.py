"""Finite simplicial sets with exact face/degeneracy calculus.

A simplicial set is presented by its non-degenerate generators and a face
table.  Every simplex is written uniquely as a word s_{i_1} ... s_{i_p}
(i_1 > ... > i_p) of degeneracy operators applied to a generator
(Eilenberg-Zilber normal form), stored as the bitmask of its indices: bit i
is set when s_i occurs.  d_i cancels against the word exactly when bit i or
bit i - 1 is set, leaving the word with that bit deleted; otherwise it
reaches the generator as d_v, v = i - #{bits below i}.

A simplex is the plain tuple (base, word) of two ints: its dimension is
dim_of[base] plus the word's length, and apply_face and set_faces are where
that sum is taken.  It sorts and hashes as (base id, word), the canonical
total order used everywhere for determinism.

The normalized chains of a simplicial set, and of exp_k S (built in expk),
are a ChainComplex whose boundaries come from one assembler, boundary().
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from itertools import combinations

# ASCII, unsigned, no leading zero, at most 639 digits, so int() reads a
# COUNT and str() writes its successor under CPython's least digit limit, 640
COUNT = re.compile("0|[1-9][0-9]{0,638}")


class SimplicialError(Exception):
    """Malformed simplicial data: bad word, bad face table, bad index."""


def read_count(token: str) -> int | None:
    """The int a COUNT spells, or None for any other token."""
    return int(token) if COUNT.fullmatch(token) else None


def quote(text: str) -> str:
    """How a refusal quotes its input: the repr of at most 40 characters,
    with '...' after it when ``text`` was cut."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}..."


def word_is_valid(word: int, base_dim: int) -> bool:
    """True if ``word`` is a normal-form degeneracy word applicable to a base
    of dimension ``base_dim``.  The word is the bitmask of its indices
    i_1 > ... > i_p, denoting s_{i_1} . ... . s_{i_p}, outermost first.

    Strict decrease is the format itself; the t-th index (1-based) is at
    most base_dim + p - t, which the largest index bounds for all of them.
    """
    return word >= 0 and word.bit_length() <= base_dim + word.bit_count()


def compose_degeneracy(word: int, j: int) -> int:
    """Normal form of s_j composed after ``word`` (i.e. s_j applied last).

    The identity s_j s_i = s_{i+1} s_j for j <= i shifts every index >= j
    up by one, and bit j is set.
    """
    if j < 0:
        raise SimplicialError(f"degeneracy index {j} out of range")
    low = word & ((1 << j) - 1)
    return (word ^ low) << 1 | 1 << j | low


def degeneracy_words(base_dim: int, length: int) -> list[int]:
    """All valid normal-form words of the given length over a base of
    dimension ``base_dim``, in increasing order: for words of one length,
    the lexicographic order of their decreasing index tuples.

    These are the length-subsets of 0..base_dim + length - 1; there are
    C(base_dim + length, length) of them.
    """
    return sorted(sum(1 << i for i in c)
                  for c in combinations(range(base_dim + length), length))


class SimplicialSet:
    """A finite simplicial set: non-degenerate generators with dense integer
    identifiers, and for each generator of positive dimension a face table of
    (base, word) simplices in normal form.

    Build with add_generator/set_faces, then treat as immutable.
    """

    def __init__(self) -> None:
        self.dim_of: list[int] = []
        self.faces: list[list[tuple[int, int]] | None] = []

    # -- construction ------------------------------------------------------

    def add_generator(self, dim: int) -> int:
        if dim < 0:
            raise SimplicialError("generator dimension must be >= 0")
        g = len(self.dim_of)
        self.dim_of.append(dim)
        self.faces.append(None)
        return g

    def set_faces(self, g: int, faces: list[tuple[int, int]]) -> None:
        n = self.dim_of[g]
        if n == 0:
            raise SimplicialError("vertices have no faces")
        if len(faces) != n + 1:
            raise SimplicialError(f"dimension {n} needs {n + 1} faces")
        # each face object once, for its base, its word, then its dimension
        for base, word in {id(f): f for f in faces}.values():
            if not 0 <= base < len(self.dim_of):
                raise SimplicialError(f"face base {base} does not exist")
            if not word_is_valid(word, self.dim_of[base]):
                raise SimplicialError(
                    f"face word {word:#b} not in normal form")
            if self.dim_of[base] + word.bit_count() != n - 1:
                raise SimplicialError("face dimension mismatch")
        self.faces[g] = list(faces)

    # -- accessors ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self.dim_of, default=-1)

    @property
    def n_generators(self) -> int:
        return len(self.dim_of)

    def f_vector(self) -> list[int]:
        return [self.dim_of.count(n) for n in range(self.dim + 1)]


def apply_face(x: tuple[int, int], i: int,
               S: SimplicialSet) -> tuple[int, int]:
    """d_i applied to x, commuted through the degeneracy word W.

    Identities used: d_i s_j = s_{j-1} d_i (i < j), = id (i in {j, j+1}),
    = s_j d_{i-1} (i > j + 1).  From W's highest index down, d_i keeps its
    index past each j > i and loses one past each j < i - 1, so it cancels
    exactly when bit i or bit i - 1 of W is set, and the face's word is W
    with that bit deleted.  Otherwise the stored face d_v of the base is
    taken, v = i - popcount(W & (2^i - 1)), and the survivors (W with bit i
    deleted) are composed onto its word, lowest first.
    """
    base, W = x
    n = S.dim_of[base] + W.bit_count()
    if n < 1:
        raise SimplicialError("cannot take a face of a vertex")
    if not 0 <= i <= n:
        raise SimplicialError(f"face index {i} out of range for dim {n}")
    b = i - 1 if i and (W >> (i - 1)) & 3 == 1 else i  # bit i - 1, not i
    rest = (W >> (b + 1)) << b | W & ((1 << b) - 1)  # W with bit b deleted
    if W >> b & 1:
        return base, rest
    face_table = S.faces[base]
    if face_table is None:
        raise SimplicialError(f"generator {base} has no face table")
    base, word = face_table[i - (W & ((1 << i) - 1)).bit_count()]
    while rest:
        low = rest & -rest
        word = compose_degeneracy(word, low.bit_length() - 1)
        rest ^= low
    return base, word


def close_under_faces(S: SimplicialSet, gens: set[int]) -> set[int]:
    """Smallest generator-closed set containing gens: a set U is closed
    under faces exactly when close_under_faces(S, U) == U."""
    out = set(gens)
    stack = list(gens)
    while stack:
        g = stack.pop()
        if S.dim_of[g] >= 1:
            for base, _ in S.faces[g]:
                if base not in out:
                    out.add(base)
                    stack.append(base)
    return out


def enumerate_level(S: SimplicialSet, n: int) -> list[tuple[int, int]]:
    """All simplices of S in dimension n, degenerate ones included, in the
    canonical (base id, word) order."""
    if n < 0:
        raise SimplicialError("dimension must be >= 0")
    out: list[tuple[int, int]] = []
    for g, m in enumerate(S.dim_of):
        if m <= n:
            out.extend((g, w) for w in degeneracy_words(m, n - m))
    return out


class SparseIntMatrix:
    """Integer matrix as per-column {row: value} maps, in cols; no row count
    is stored (a boundary's is the size of the degree below)."""
    __slots__ = ("cols",)

    def __init__(self, ncols: int):
        self.cols: list[dict[int, int]] = [{} for _ in range(ncols)]

    def entries(self):
        for c, col in enumerate(self.cols):
            for r, v in col.items():
                yield r, c, v

    def nnz(self) -> int:
        return sum(len(col) for col in self.cols)


class ChainComplex(namedtuple("ChainComplex", "boundaries")):
    """boundaries[n] is the SparseIntMatrix of d_n from degree n to degree
    n-1, one column per generator of degree n (boundaries[0] is the zero
    map out of degree 0)."""
    __slots__ = ()

    @property
    def top(self) -> int:
        return len(self.boundaries) - 1

    @property
    def n_generators(self) -> int:
        return sum(self.f_vector())

    def f_vector(self) -> list[int]:
        return [len(M.cols) for M in self.boundaries]

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


def boundary(face_rows) -> SparseIntMatrix:
    """d_n, one column per generator of degree n, from the face rows of
    each: the row in degree n - 1 of each face d_i, which adds (-1)^i, or
    None for a degenerate face, which adds 0."""
    M = SparseIntMatrix(0)
    for rows in face_rows:
        col: dict[int, int] = {}
        sign = 1
        for r in rows:
            if r is not None:
                v = col[r] = col.get(r, 0) + sign
                if not v:
                    del col[r]
            sign = -sign
        M.cols.append(col)
    return M


def normalized_chains(S: SimplicialSet,
                      gens: set[int] | None = None) -> ChainComplex:
    """Free integer chains on the non-degenerate generators; the boundary is
    the alternating face sum with degenerate faces contributing zero.

    With gens, the chains of that generator-closed subset of S (a simplicial
    subset); a set not closed under faces raises SimplicialError.
    """
    if gens is None:
        gens = range(S.n_generators)
    elif close_under_faces(S, gens) != gens:
        raise SimplicialError("generator set is not closed under faces")
    ids: list[list[int]] = [[]]  # per degree, up to the largest in gens
    for g, n in enumerate(S.dim_of):
        if g in gens:
            while len(ids) <= n:
                ids.append([])
            ids[n].append(g)
    row_of = {g: r for level in ids for r, g in enumerate(level)}
    return ChainComplex([boundary(
        [None if word else row_of[base] for base, word in S.faces[g] or ()]
        for g in level) for level in ids])


def validate(S: SimplicialSet) -> tuple[int, int, int] | None:
    """Check the simplicial identity d_i d_j = d_{j-1} d_i (i < j) on every
    generator: the first violation (generator, i, j), or None.  A generator
    whose face table is missing (or, for a vertex, present) gives (g, 0, 0).
    """
    for g in range(S.n_generators):
        n = S.dim_of[g]
        if (n >= 1) != (S.faces[g] is not None):
            return g, 0, 0
        if n < 2:
            continue
        x = g, 0
        for j in range(1, n + 1):
            dj = apply_face(x, j, S)
            for i in range(j):
                if apply_face(dj, i, S) != apply_face(apply_face(x, i, S),
                                                      j - 1, S):
                    return g, i, j
    return None


# -- JSON ingestion ---------------------------------------------------------
#
# Format: {"generators": [["v"], ["e"]], "faces": {"e": ["v", "v"]}}
# where "generators" lists names per dimension (index 0 = vertices) and each
# face expression is "s_{i1} ... s_{ip} name" with i1 > ... > ip (the empty
# prefix is allowed), each index a COUNT.  Words not in normal form are
# rejected; the others become bitmasks.


def parse_face_expression(expr: str, name_to_id: dict[str, int],
                          dim_of: list[int]) -> tuple[int, int]:
    tokens = expr.split()
    if not tokens:
        raise SimplicialError("empty face expression")
    name = tokens[-1]
    if name not in name_to_id:
        raise SimplicialError(f"unknown generator name {quote(name)}")
    word = []
    for tok in tokens[:-1]:
        i = read_count(tok[2:]) if tok[:2] == "s_" else None
        if i is None:
            raise SimplicialError(f"bad token {quote(tok)} in face expression")
        word.append(i)
    base = name_to_id[name]
    # before the mask: it merges s_1 s_1 into s_2, and 1 << 10**12 is huge
    p = len(word)
    if (any(a <= b for a, b in zip(word, word[1:]))
            or p and word[0] >= dim_of[base] + p):
        raise SimplicialError(f"word {quote(' '.join(tokens[:-1]))} is not "
                              f"in normal form for {quote(name)}")
    return base, sum(1 << i for i in word)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def simplicial_set_from_dict(data: dict) -> SimplicialSet:
    try:
        gen_lists = data["generators"]
        face_map = data.get("faces", {})
    except (TypeError, KeyError) as exc:
        raise SimplicialError("missing 'generators' key") from exc
    if not (isinstance(gen_lists, list) and all(map(_is_str_list, gen_lists))):
        raise SimplicialError(
            "'generators' must be a list of lists of generator names")
    if not (isinstance(face_map, dict)
            and all(map(_is_str_list, face_map.values()))):
        raise SimplicialError(
            "'faces' must map generator names to lists of face expressions")
    S = SimplicialSet()
    name_to_id: dict[str, int] = {}
    for dim, dim_names in enumerate(gen_lists):
        for name in dim_names:
            if name.split() != [name]:  # face expressions split on whitespace
                raise SimplicialError(
                    f"generator name {quote(name)} is not one token")
            if name in name_to_id:
                raise SimplicialError(
                    f"duplicate generator name {quote(name)}")
            name_to_id[name] = S.add_generator(dim)
    names = list(name_to_id)  # ids are dense, in insertion order
    if not name_to_id:
        raise SimplicialError("'generators' names no generator")
    for name, exprs in face_map.items():
        if name not in name_to_id:
            raise SimplicialError(
                f"face table for unknown generator {quote(name)}")
        fs = [parse_face_expression(e, name_to_id, S.dim_of) for e in exprs]
        try:
            S.set_faces(name_to_id[name], fs)
        except SimplicialError as exc:
            raise SimplicialError(f"generator {quote(name)}: {exc}") from None
    # ids follow dimension order, so validate meets a generator without a
    # face table, (g, 0, 0), before any generator whose faces reach it
    if (violation := validate(S)) is not None:
        g, i, j = violation
        raise SimplicialError(
            f"generator {quote(names[g])} has no face table" if not j else
            f"faces of generator {quote(names[g])} break "
            f"d_i d_j = d_(j-1) d_i at (i, j) = ({i}, {j})")
    return S


def load_simplicial_set(path: str) -> SimplicialSet:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise SimplicialError("JSON nesting is too deep") from None
    return simplicial_set_from_dict(doc)
