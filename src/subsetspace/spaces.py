"""Builders for the spaces quantified over in the verification suite:
minimal spheres, wedges of spheres, subdivided circles, and Segal's edgewise
subdivision of any finite simplicial set for triangulation-invariance
tests, and the quotient of a base by a contractible subcomplex."""

from __future__ import annotations

from collections import deque

from .simplicial import (SimplicialSet, SimplicialError, apply_face,
                         enumerate_level, quote, read_count)
from .expk import DEFAULT_MAX_CELLS, ResourceCapError, level_size


def wedge(dims: tuple[int, ...]) -> SimplicialSet:
    """Wedge of minimal spheres sharing a single vertex, one summand of
    dimension m >= 1 for each entry m of dims; wedge((m,)) is the minimal
    m-sphere, whose every face is the fully degenerate vertex."""
    S = SimplicialSet()
    v = S.add_generator(0)
    for m in dims:
        g = S.add_generator(m)
        # every face is s_{m-2} ... s_1 s_0 v, the vertex's one (m-1)-simplex
        S.set_faces(g, [(v, (1 << (m - 1)) - 1)] * (m + 1))
    return S


def subdivided_circle(v: int) -> SimplicialSet:
    """Boundary-of-polygon circle: v vertices, v edges, no degenerate faces.
    Edge i runs from vertex i (face d_1) to vertex i+1 mod v (face d_0)."""
    if v < 3:
        raise SimplicialError("subdivided circle needs at least 3 vertices")
    S = SimplicialSet()
    verts = [S.add_generator(0) for _ in range(v)]
    for i in range(v):
        e = S.add_generator(1)
        S.set_faces(e, [(verts[(i + 1) % v], 0), (verts[i], 0)])
    return S


def edgewise_subdivision(S: SimplicialSet,
                         max_cells: int = DEFAULT_MAX_CELLS) -> SimplicialSet:
    """Segal's edgewise subdivision esd S: (esd S)_n = S_{2n+1}, with
    d_i = d_i d_{2n+1-i} and s_i = s_i s_{2n+1-i}, and |esd S| = |S|.
    exp_k is levelwise, so exp_k esd S = esd exp_k S for every k.

    s_c s_{2n-1-c} = s_{2n-c} s_c, so x in S_{2n+1} is an esd s_c exactly
    when bits c and 2n - c of its word are set, c < n: those c are its esd
    word, and the x with none are the generators.  Then s_W g has at most
    n + 1 bits, and 2n + 1 - dim g of them, so n <= dim S.  A face drops its
    esd word C by following d_c (d_c s_c = id), highest c first.  Level n
    has level_size(S, 2n + 1) simplices, and every level is tested against
    ``max_cells`` before any is built.
    """
    for n in range(S.dim + 1):
        m = level_size(S, 2 * n + 1)
        if m > max_cells:
            raise ResourceCapError(n, m, m, max_cells)
    E = SimplicialSet()
    id_of: dict[tuple[int, int], int] = {}

    def esd_word(word: int, n: int) -> int:
        return sum(1 << c for c in range(n)
                   if word >> c & 1 and word >> (2 * n - c) & 1)

    def d(x: tuple[int, int], i: int, n: int) -> tuple[int, int]:
        return apply_face(apply_face(x, 2 * n + 1 - i, S), i, S)

    def face(x: tuple[int, int], i: int, n: int) -> tuple[int, int]:
        y, at = d(x, i, n), n - 1
        C = rest = esd_word(y[1], at)
        while rest:  # strip the highest esd index first
            c = rest.bit_length() - 1
            y, at = d(y, c, at), at - 1
            rest ^= 1 << c
        return id_of[y], C

    for n in range(S.dim + 1):
        for x in enumerate_level(S, 2 * n + 1):
            if not esd_word(x[1], n):
                g = id_of[x] = E.add_generator(n)
                if n:
                    E.set_faces(g, [face(x, i, n) for i in range(n + 1)])
    return E


def reduce_base(S: SimplicialSet) -> SimplicialSet:
    """S/K: each component's K, grown from its lowest-id vertex (the seed)
    by elementary expansions (tau, sigma) in id order on a FIFO worklist,
    collapsed to the seed; S itself when no expansion applies.
    sigma expands when all its faces but one, tau, have their base in K.
    Each face of d_i sigma is a face of a d_j sigma, j != i, so tau is
    non-degenerate, once among sigma's faces and with its faces in K:
    sigma meets K in a horn, and K stays contractible and closed under
    faces, so a sigma already in K has no face outside it and never
    expands again.  A face based in K becomes (seed, 1...1)."""
    cofaces: list[list[int]] = [[] for _ in S.dim_of]
    for s, fs in enumerate(S.faces):
        for b in {b for b, _ in fs or ()}:
            cofaces[b].append(s)
    seed_of: dict[int, int] = {}  # K: its generators' seeds
    for v, d in enumerate(S.dim_of):
        if d or v in seed_of:
            continue
        seed_of[v] = v
        work = deque([v])
        while work:
            for s in cofaces[work.popleft()]:
                out = [b for b, _ in S.faces[s] if b not in seed_of]
                if len(out) == 1:
                    seed_of[out[0]] = seed_of[s] = v
                    work += out[0], s
    if all(seed_of[g] == g for g in seed_of):
        return S
    R = SimplicialSet()
    new = {g: R.add_generator(d) for g, d in enumerate(S.dim_of)
           if seed_of.get(g, g) == g}
    for g, h in new.items():
        if n := S.dim_of[g]:
            R.set_faces(h, [(new[seed_of[b]], (1 << (n - 1)) - 1)
                            if b in seed_of else (new[b], w)
                            for b, w in S.faces[g]])
    return R


def parse_space(descriptor: str, max_cells: int = DEFAULT_MAX_CELLS
                ) -> tuple[str, SimplicialSet]:
    """Parse a CLI space descriptor: 's1', 's2', ..., 'wedge:1,1', 'circle:4'.
    Returns (canonical name, simplicial set).

    max_cells defaults to build_expk's cap.  A 'circle:V' whose V vertices
    alone exceed it is refused unbuilt, with the level-0 ResourceCapError
    that build_expk raises for every k: its projected count stops at the
    first partial sum, C(V, 1).  So is a sphere summand of dimension m
    whose m + 1 faces exceed it, with a level-m report that gives m + 1 as
    its size and projected count.
    """
    d = descriptor.strip().lower()
    if d[:1] == "s" and (m := read_count(d[1:])) is not None:
        dims = (m,)
    elif d.startswith(("wedge:", "circle:")):
        kind, _, body = d.partition(":")
        tokens = body.split(",") if kind == "wedge" else [body]
        counts = [read_count(t) for t in tokens]
        if None in counts:
            raise SimplicialError(f"bad {kind} descriptor {quote(descriptor)}")
        if kind == "circle":
            if counts[0] > max_cells:
                raise ResourceCapError(0, counts[0], counts[0], max_cells)
            return d, subdivided_circle(counts[0])
        dims = tuple(counts)
    else:
        raise SimplicialError(
            f"unrecognized space descriptor {quote(descriptor)}")
    if 0 in dims:  # counts are >= 0
        raise SimplicialError("sphere dimensions must be >= 1")
    for m in dims:
        if m + 1 > max_cells:
            raise ResourceCapError(m, m + 1, m + 1, max_cells)
    return d, wedge(dims)
