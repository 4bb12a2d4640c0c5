"""Finite simplicial sets with exact face/degeneracy calculus.

A simplicial set is presented by its non-degenerate generators and a face
table.  Every simplex is written uniquely as a strictly decreasing word of
degeneracy operators applied to a generator (Eilenberg-Zilber normal form),
and all face/degeneracy algebra is done on these normal forms with the usual
simplicial identities.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import combinations


class SimplicialError(Exception):
    """Malformed simplicial data: bad word, bad face table, bad index."""


def word_is_valid(word: tuple[int, ...], base_dim: int) -> bool:
    """True if ``word`` is a normal-form degeneracy word applicable to a base
    of dimension ``base_dim``.  The word (i_1, ..., i_p) denotes
    s_{i_1} . ... . s_{i_p}, outermost first.

    Normal form means strictly decreasing indices i_1 > ... > i_p, with the
    t-th index (1-based) at most base_dim + p - t.
    """
    p = len(word)
    for t, i in enumerate(word):
        if i < 0 or i > base_dim + p - 1 - t:
            return False
        if t + 1 < p and word[t + 1] >= i:
            return False
    return True


def compose_degeneracy(word: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Normal form of s_j composed after ``word`` (i.e. s_j applied last).

    Uses the identity s_j s_i = s_{i+1} s_j for j <= i to push the new
    operator into its sorted slot.
    """
    if j < 0:
        raise SimplicialError(f"degeneracy index {j} out of range")
    bumped = [i + 1 for i in word if i >= j]
    kept = [i for i in word if i < j]
    return tuple(bumped) + (j,) + tuple(kept)


def degeneracy_words(base_dim: int, length: int) -> list[tuple[int, ...]]:
    """All valid normal-form words of the given length over a base of
    dimension ``base_dim``, in lexicographic order.

    These are the strictly decreasing tuples over 0..base_dim + length - 1;
    there are C(base_dim + length, length) of them.
    """
    return sorted(combinations(range(base_dim + length - 1, -1, -1), length))


@dataclass(frozen=True, order=True)
class FormalSimplex:
    """A (possibly degenerate) simplex: a degeneracy word applied to a
    non-degenerate generator.  Ordering is (base id, word), the canonical
    total order used everywhere for determinism.
    """
    base: int
    word: tuple[int, ...]
    dim: int

    @property
    def is_degenerate(self) -> bool:
        return bool(self.word)

    def degenerate(self, j: int) -> "FormalSimplex":
        """s_j applied to this simplex, in normal form."""
        if not 0 <= j <= self.dim:
            raise SimplicialError(f"degeneracy index {j} out of range")
        return FormalSimplex(self.base, compose_degeneracy(self.word, j),
                             self.dim + 1)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: tuple[int, int, int] | None = None  # (generator, i, j)

    def __bool__(self) -> bool:
        return self.ok


class SimplicialSet:
    """A finite simplicial set: non-degenerate generators with dense integer
    identifiers, and for each generator of positive dimension a face table of
    FormalSimplexes in normal form.

    Build with add_generator/set_faces, then treat as immutable.
    """

    def __init__(self) -> None:
        self.dim_of: list[int] = []
        self.faces: list[list[FormalSimplex] | None] = []
        self.labels: list[str] = []
        self.by_dim: list[list[int]] = []

    # -- construction ------------------------------------------------------

    def add_generator(self, dim: int, label: str | None = None) -> int:
        if dim < 0:
            raise SimplicialError("generator dimension must be >= 0")
        g = len(self.dim_of)
        self.dim_of.append(dim)
        self.faces.append(None)
        self.labels.append(label if label is not None else f"g{g}")
        while len(self.by_dim) <= dim:
            self.by_dim.append([])
        self.by_dim[dim].append(g)
        return g

    def set_faces(self, g: int, faces: list[FormalSimplex]) -> None:
        n = self.dim_of[g]
        if n == 0:
            raise SimplicialError("vertices have no faces")
        if len(faces) != n + 1:
            raise SimplicialError(
                f"generator {g} of dimension {n} needs {n + 1} faces")
        for f in faces:
            if not 0 <= f.base < len(self.dim_of):
                raise SimplicialError(f"face base {f.base} does not exist")
            if not word_is_valid(f.word, self.dim_of[f.base]):
                raise SimplicialError(f"face word {f.word} not in normal form")
            if f.dim != n - 1 or self.dim_of[f.base] + len(f.word) != n - 1:
                raise SimplicialError("face dimension mismatch")
        self.faces[g] = list(faces)

    # -- accessors ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.by_dim) - 1

    @property
    def n_generators(self) -> int:
        return len(self.dim_of)

    def generators(self, n: int) -> list[int]:
        return self.by_dim[n] if 0 <= n <= self.dim else []

    def f_vector(self) -> list[int]:
        return [len(gs) for gs in self.by_dim]

    def simplex(self, g: int) -> FormalSimplex:
        return FormalSimplex(g, (), self.dim_of[g])


def apply_face(x: FormalSimplex, i: int, S: SimplicialSet) -> FormalSimplex:
    """d_i applied to x, commuted through the degeneracy word.

    Identities used: d_i s_j = s_{j-1} d_i (i < j), = id (i in {j, j+1}),
    = s_j d_{i-1} (i > j + 1).  If d_i meets some s_j with i in {j, j+1},
    that operator cancels: the indices before it, each lowered by one, are
    larger than every index after it, so the two parts concatenate into a
    normal-form word.  If the face index survives to the base, the stored
    face of the generator is substituted and the remaining word is
    recomposed into normal form.
    """
    if x.dim < 1:
        raise SimplicialError("cannot take a face of a vertex")
    if not 0 <= i <= x.dim:
        raise SimplicialError(f"face index {i} out of range for dim {x.dim}")
    survivors: list[int] = []
    idx = i
    for pos, j in enumerate(x.word):
        if idx < j:
            survivors.append(j - 1)
        elif idx in (j, j + 1):
            return FormalSimplex(x.base, tuple(survivors) + x.word[pos + 1:],
                                 x.dim - 1)
        else:
            survivors.append(j)
            idx -= 1
    face_table = S.faces[x.base]
    if face_table is None:
        raise SimplicialError(f"generator {x.base} has no face table")
    f = face_table[idx]
    word = f.word
    for op in reversed(survivors):
        word = compose_degeneracy(word, op)
    return FormalSimplex(f.base, word, x.dim - 1)


def close_under_faces(S: SimplicialSet, gens: set[int]) -> set[int]:
    """Smallest generator-closed set containing gens: a set U is closed
    under faces exactly when close_under_faces(S, U) == U."""
    out = set(gens)
    stack = list(gens)
    while stack:
        g = stack.pop()
        if S.dim_of[g] >= 1:
            for f in S.faces[g]:
                if f.base not in out:
                    out.add(f.base)
                    stack.append(f.base)
    return out


def enumerate_level(S: SimplicialSet, n: int) -> list[FormalSimplex]:
    """All simplices of S in dimension n, degenerate ones included, in the
    canonical (base id, word) order."""
    if n < 0:
        raise SimplicialError("dimension must be >= 0")
    out: list[FormalSimplex] = []
    for g in range(S.n_generators):
        m = S.dim_of[g]
        if m <= n:
            out.extend(FormalSimplex(g, w, n)
                       for w in degeneracy_words(m, n - m))
    return out


def validate(S: SimplicialSet) -> ValidationReport:
    """Check the simplicial identity d_i d_j = d_{j-1} d_i (i < j) on every
    generator; report the first violation if any."""
    for g in range(S.n_generators):
        n = S.dim_of[g]
        if n < 1 and S.faces[g] is not None:
            return ValidationReport(False, (g, 0, 0))
        if n >= 1 and S.faces[g] is None:
            return ValidationReport(False, (g, 0, 0))
        if n < 2:
            continue
        x = S.simplex(g)
        for j in range(1, n + 1):
            dj = apply_face(x, j, S)
            for i in range(j):
                if apply_face(dj, i, S) != apply_face(apply_face(x, i, S),
                                                      j - 1, S):
                    return ValidationReport(False, (g, i, j))
    return ValidationReport(True)


# -- JSON ingestion ---------------------------------------------------------
#
# Format: {"generators": [["v"], ["e"]], "faces": {"e": ["v", "v"]}}
# where "generators" lists names per dimension (index 0 = vertices) and each
# face expression is "s_{i1} ... s_{ip} name" with i1 > ... > ip (the empty
# prefix is allowed).  Words not in normal form are rejected.

_DEGEN_TOKEN = re.compile(r"^s_(\d+)$")


def parse_face_expression(expr: str, name_to_id: dict[str, int],
                          dim_of: list[int]) -> FormalSimplex:
    tokens = expr.split()
    if not tokens:
        raise SimplicialError("empty face expression")
    name = tokens[-1]
    if name not in name_to_id:
        raise SimplicialError(f"unknown generator name {name!r}")
    word = []
    for tok in tokens[:-1]:
        m = _DEGEN_TOKEN.match(tok)
        if not m:
            raise SimplicialError(f"bad token {tok!r} in face expression")
        word.append(int(m.group(1)))
    base = name_to_id[name]
    if not word_is_valid(tuple(word), dim_of[base]):
        raise SimplicialError(
            f"word {tuple(word)} is not in normal form for {name!r}")
    return FormalSimplex(base, tuple(word), dim_of[base] + len(word))


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
    for dim, names in enumerate(gen_lists):
        for name in names:
            if name in name_to_id:
                raise SimplicialError(f"duplicate generator name {name!r}")
            name_to_id[name] = S.add_generator(dim, name)
    if not name_to_id:
        raise SimplicialError("'generators' names no generator")
    for name, exprs in face_map.items():
        if name not in name_to_id:
            raise SimplicialError(f"face table for unknown generator {name!r}")
        g = name_to_id[name]
        S.set_faces(g, [parse_face_expression(e, name_to_id, S.dim_of)
                        for e in exprs])
    for g in range(S.n_generators):
        if S.dim_of[g] >= 1 and S.faces[g] is None:
            raise SimplicialError(
                f"generator {S.labels[g]!r} has no face table")
    report = validate(S)
    if not report:
        g, i, j = report.violation
        raise SimplicialError(
            f"faces of generator {S.labels[g]!r} break d_i d_j = d_(j-1) d_i "
            f"at (i, j) = ({i}, {j})")
    return S


def load_simplicial_set(path: str) -> SimplicialSet:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise SimplicialError("JSON nesting is too deep") from None
    return simplicial_set_from_dict(doc)
