import random
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetspace.simplicial import (SimplicialError, SimplicialSet,
                                    simplicial_set_from_dict)
from subsetspace.spaces import (WedgeSpec, parse_space, sphere,
                                subdivided_circle, wedge)
from subsetspace.expk import build_expk
from subsetspace.homology import (ChainComplex, ChainComplexError,
                                  SparseIntMatrix, homology,
                                  normalized_chains, smith_normal_form)

from oracles import (betti_mod_p, chain_tables, expk_simplicial_set,
                     from_dense, homology_reference, minors_gcd,
                     random_model_complex, rank_over_q,
                     smith_normal_form_reference, sp2_sphere_reduced_homology,
                     dense_boundaries, to_dense)
from test_acceptance import MATRIX_CASES


def test_snf_single_entry():
    res = smith_normal_form(from_dense([[2]]))
    assert (res.rank, res.divisors) == (1, [2])


def test_snf_rank_one():
    res = smith_normal_form(from_dense([[1, 0], [0, 0]]))
    assert (res.rank, res.divisors) == (1, [1])


def test_snf_two_by_two():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    res = smith_normal_form(from_dense([[2, 4], [6, 8]]))
    assert (res.rank, res.divisors) == (2, [2, 4])


def test_snf_empty_and_zero():
    assert smith_normal_form(from_dense([])).rank == 0
    assert smith_normal_form(from_dense([[0, 0], [0, 0]])).rank == 0


def test_reduced_homology_without_vertices():
    """Reduced homology subtracts the augmentation only when degree 0 has
    a generator: the empty complex and one with no 0-cells keep theirs."""
    h = homology(ChainComplex([]), reduced=True)
    assert (h.betti, h.torsion, h.f_vector) == ([], [], [])
    C = ChainComplex([SparseIntMatrix(0), SparseIntMatrix(2)])
    assert homology(C, reduced=True).betti == [0, 2]


def test_snf_does_not_mutate_input():
    M = from_dense([[2, 4], [6, 8]])
    before = to_dense(M, 2)
    smith_normal_form(M)
    assert to_dense(M, 2) == before
    # a skipped column reads as zero and stays in the input
    res = smith_normal_form(M, {0})
    assert (res.rank, res.divisors) == (1, [4])
    assert to_dense(M, 2) == before


def test_snf_known_torsion():
    # boundary of the real projective plane's 2-cell picture
    res = smith_normal_form(from_dense([[2]]))
    assert res.divisors == [2]
    res = smith_normal_form(from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    assert res.divisors == [1, 1, 2]
    # coprime and non-dividing pivots: the gcd/lcm exchange makes the chain
    assert smith_normal_form(from_dense([[2, 0], [0, 3]])).divisors == [1, 6]
    assert smith_normal_form(from_dense([[4, 0], [0, 6]])).divisors == [2, 12]
    # a pivot that does not divide its row: the row is reduced modulo it
    assert smith_normal_form(from_dense([[2, 3]])).divisors == [1]
    # ... and the next pivot, the 2 of row 1, lies in another row, so
    # column 0 must go back on the sweep
    assert smith_normal_form(from_dense([[6, 2], [0, 2]])).divisors == [2, 6]


def _random_matrix(rng, max_side=5, bound=9):
    nrows = rng.randint(1, max_side)
    ncols = rng.randint(1, max_side)
    return [[rng.randint(-bound, bound) for _ in range(ncols)]
            for _ in range(nrows)]


@pytest.mark.parametrize("seed", range(5))
def test_snf_against_minor_oracle(seed):
    """Divisor chain, rank over Q, and the minor-gcd products, on 100 random
    matrices per seed (500 total across the parametrization)."""
    rng = random.Random(seed)
    for _ in range(100):
        m = _random_matrix(rng)
        res = smith_normal_form(from_dense(m))
        assert res.rank == rank_over_q(m)
        for a, b in zip(res.divisors, res.divisors[1:]):
            assert b % a == 0
        for r in range(1, res.rank + 1):
            assert prod(res.divisors[:r]) == abs(minors_gcd(m, r))


def _random_sparse_matrix(rng, max_side=40, min_side=0, entries=None):
    """Mostly +-1 entries with some +-2/+-3, or each entry drawn from
    entries when given, and some zero rows and columns."""
    nrows = rng.randint(min_side, max_side)
    ncols = rng.randint(min_side, max_side)
    zero_rows = set(rng.sample(range(nrows), rng.randint(0, nrows // 4)))
    zero_cols = set(rng.sample(range(ncols), rng.randint(0, ncols // 4)))
    density = rng.uniform(0.02, 0.3)
    M = SparseIntMatrix(ncols)
    for r in range(nrows):
        for c in range(ncols):
            if r in zero_rows or c in zero_cols or rng.random() > density:
                continue
            if entries:
                M.cols[c][r] = rng.choice(entries)
                continue
            v = rng.choice((2, 3)) if rng.random() < 0.1 else 1
            M.cols[c][r] = rng.choice((1, -1)) * v
    return M


def test_snf_matches_reference_on_random_sparse():
    """Rank and divisor list agree with the single-phase elimination on 400
    random sparse matrices up to 40 x 40, and on 4 from 30 x 30 to 60 x 60
    with no +-1 entry, whose pivots start with Euclid steps."""
    rng = random.Random(303)
    matrices = [_random_sparse_matrix(rng) for _ in range(400)]
    matrices += [_random_sparse_matrix(rng, 60, 30, (2, -2, 3, -3, 4))
                 for _ in range(4)]
    torsion = 0
    for M in matrices:
        res, ref = smith_normal_form(M), smith_normal_form_reference(M)
        assert (res.rank, res.divisors) == (ref.rank, ref.divisors)
        torsion += any(d > 1 for d in res.divisors)
    assert torsion >= 40  # non-unit pivots are exercised, not just units


def test_snf_reports_unit_phase_rows():
    """cleared lists the rows deleted as +-1 pivots before the first pivot
    step with |pv| != 1, and nothing after it."""
    assert smith_normal_form(from_dense([[1, 0], [0, 1]])).cleared in (
        [0, 1], [1, 0])
    assert smith_normal_form(from_dense([[2, 0], [0, 1]])).cleared == [1]
    # no +-1 entry: the unit phase is empty, though a 1 appears later
    res = smith_normal_form(from_dense([[2], [3]]))
    assert (res.rank, res.divisors, res.cleared) == (1, [1], [])


def test_snf_unit_pivots_of_every_kind_are_cleared():
    """A block-diagonal matrix with a +-1 alone in its row (block A, whose
    columns all hold 2 or more entries), +-1s alone in their columns (B), a
    +-1 block with no entry alone in its row or column (C, for the sweep)
    and a block with no +-1 (D).  Each +-1 block has full row rank and is
    unimodular, so every one of its rows is cleared whatever the pivot
    order; D's 1 appears only after a pivot of 2, so its row is not."""
    blocks = [
        [[1, 0, 0], [1, 1, 1], [1, 1, 2]],  # A: rows 0-2
        [[1, 1, 0], [0, 1, 1]],             # B: rows 3-4
        [[1, 1, 0], [0, 1, 1], [1, 1, 1]],  # C: rows 5-7
        [[2], [3]],                         # D: rows 8-9
    ]
    ncols = sum(len(b[0]) for b in blocks)
    dense, offset = [], 0
    for b in blocks:
        for row in b:
            dense.append([0] * offset + row
                         + [0] * (ncols - offset - len(row)))
        offset += len(b[0])
    res = smith_normal_form(from_dense(dense))
    ref = smith_normal_form_reference(dense)
    assert (res.rank, res.divisors) == (ref.rank, ref.divisors) == (9, [1] * 9)
    assert sorted(res.cleared) == list(range(8))


def _zero_columns(M, cols):
    Z = SparseIntMatrix(len(M.cols))
    Z.cols = [{} if c in cols else dict(col) for c, col in enumerate(M.cols)]
    return Z


def _clearing_replay(C):
    """(M, skip, SNF of M with skip) for each boundary, d_top first, with
    the skip sets that homology() hands smith_normal_form."""
    skip = set()
    for M in reversed(C.boundaries):
        res = smith_normal_form(M, skip)
        yield M, skip, res
        skip = set(res.cleared)


@pytest.mark.parametrize("desc,k", MATRIX_CASES)
def test_cleared_columns_keep_each_boundarys_snf(desc, k):
    """The clearing theorem, matrix by matrix: zeroing the columns of d_n
    that are cleared rows of d_{n+1} keeps the reference SNF of d_n."""
    C = build_expk(parse_space(desc)[1], k).result
    for M, skip, res in _clearing_replay(C):
        full = smith_normal_form_reference(M)
        cleared = smith_normal_form_reference(_zero_columns(M, skip))
        assert (cleared.rank, cleared.divisors) == (full.rank, full.divisors)
        assert (res.rank, res.divisors) == (full.rank, full.divisors)


def _moore_space():
    """M(Z/2, 2): one vertex v, a 2-cell c on s_0 v three times, and a
    3-cell e with faces (c, s_1 s_0 v, c, s_1 s_0 v), so d e = 2c."""
    return simplicial_set_from_dict({
        "generators": [["v"], [], ["c"], ["e"]],
        "faces": {"c": ["s_0 v"] * 3,
                  "e": ["c", "s_1 s_0 v", "c", "s_1 s_0 v"]}})


def test_exp2_of_moore_space_matches_reference():
    """A base with torsion of its own: exp_2 M(Z/2, 2) has 67 generators
    and torsion Z/2, Z/4, Z/2 in degrees 2, 4 and 5."""
    C = build_expk(_moore_space(), 2).result
    h = homology(C)
    assert sum(h.f_vector) == 67
    assert h == homology_reference(C)
    assert h.torsion == [[], [], [2], [], [4], [2], []]
    assert h.betti == [1, 0, 0, 0, 0, 0, 0]


def test_every_pivot_of_exp4_circle5_is_cleared():
    """Every pivot on the boundaries of exp_4 circle:5 is +-1, so each row
    deleted is cleared; a unit phase that ended early would lose some."""
    C = build_expk(parse_space("circle:5")[1], 4).result
    ranks = []
    for _, _, res in _clearing_replay(C):
        assert len(res.cleared) == res.rank
        ranks.append(res.rank)
    assert sum(ranks) > 1000


@st.composite
def _matrix_and_skip(draw):
    nrows, ncols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3))
    dense = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                          min_size=nrows, max_size=nrows))
    return dense, draw(st.sets(st.integers(0, ncols - 1)))


@given(_matrix_and_skip())
@settings(max_examples=200, derandomize=True)
def test_snf_with_skip_matches_reference_on_zeroed_columns(case):
    dense, skip = case
    M = from_dense(dense)
    res = smith_normal_form(M, skip)
    ref = smith_normal_form_reference(_zero_columns(M, skip))
    assert (res.rank, res.divisors) == (ref.rank, ref.divisors)
    assert to_dense(M, len(dense)) == dense


def test_homology_hands_smith_normal_form_the_boundaries(monkeypatch):
    """Clearing passes the cleared columns as skip: every matrix handed to
    smith_normal_form is one of the complex's boundaries, each once."""
    import subsetspace.homology as homology_module
    C = build_expk(sphere(3), 3).result
    calls = []

    def recording(M, skip=frozenset()):
        calls.append((M, set(skip)))
        return smith_normal_form(M, skip)

    monkeypatch.setattr(homology_module, "smith_normal_form", recording)
    homology(C)
    assert len(calls) == len(C.boundaries)
    for (M, _), B in zip(calls, reversed(C.boundaries)):
        assert M is B
    assert any(skip for _, skip in calls)  # clearing took place


def test_homology_on_random_complexes_of_known_homology():
    """homology() recovers the groups of 300 conjugated model complexes;
    some have several torsion pairs in one boundary, and some a +-1 pair in
    a boundary with no +-1 entry, whose units appear only after a torsion
    pivot."""
    rng = random.Random(808)
    several_torsion = late_units = 0
    for _ in range(300):
        C, betti, torsion, coefficients = random_model_complex(rng)
        h = homology(C)
        assert (h.betti, h.torsion) == (betti, torsion)
        several_torsion += any(sum(t > 1 for t in co) >= 2
                               for co in coefficients)
        late_units += any(
            1 in map(abs, co)
            and all(abs(v) > 1 for col in M.cols for v in col.values())
            for co, M in zip(coefficients, C.boundaries))
    assert several_torsion >= 50 and late_units >= 50


@pytest.mark.parametrize("desc,k", [("s3", 3), ("circle:5", 4), ("s2", 4),
                                    ("wedge:1,2", 4)])
def test_homology_matches_reference_without_clearing(desc, k):
    C = build_expk(parse_space(desc)[1], k).result
    assert homology(C) == homology_reference(C)


@pytest.mark.parametrize("desc,kmax", [("s1", 8), ("circle:3", 5),
                                       ("circle:4", 4)])
def test_tuffley_circle_oracle(desc, kmax):
    """exp_k S^1 is homotopy equivalent to S^(2 ceil(k/2) - 1) (Tuffley,
    "Finite subset spaces of S^1", Algebr. Geom. Topol. 2002)."""
    _, S = parse_space(desc)
    for k in range(1, kmax + 1):
        h = homology(build_expk(S, k).result, reduced=True)
        top = 2 * ((k + 1) // 2) - 1
        assert h.betti == [1 if n == top else 0 for n in range(len(h.betti))]
        assert all(not t for t in h.torsion)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sp2_sphere_oracle(n):
    """exp_2 S^n = SP^2 S^n, whose reduced homology follows from
    SP^2 S^n / S^n = Sigma^{n+1} RP^{n-1}."""
    h = homology(build_expk(sphere(n), 2).result, reduced=True)
    betti, torsion = sp2_sphere_reduced_homology(n)
    pad = len(betti) - len(h.betti)
    assert pad >= 0
    assert h.betti + [0] * pad == betti
    assert h.torsion + [[]] * pad == torsion


def test_chains_minimal_sphere_boundaries_vanish():
    C = normalized_chains(sphere(2))
    assert all(M.nnz() == 0 for M in C.boundaries)
    h = homology(C)
    assert h.betti == [1, 0, 1]


def test_chains_exp2_circle_boundary():
    C = build_expk(sphere(1), 2).result
    assert C.f_vector() == [1, 2, 1]
    # d(top cell) = 2b - a where a = {e} and b = {e, s_0 v}
    col = C.boundaries[2].cols[0]
    assert sorted(col.values()) == [-1, 2]
    assert C.boundaries[1].nnz() == 0


def test_chains_exp1_equal_base_chains():
    """The k = 1 build's chains are those of exp_1 S built through its
    subsets by the oracle, and those of S."""
    S = wedge(WedgeSpec((1, 1)))
    C_base = normalized_chains(expk_simplicial_set(S, 1))
    C_exp = build_expk(S, 1).result
    assert C_base.f_vector() == C_exp.f_vector() == [1, 2]
    assert dense_boundaries(C_base) == dense_boundaries(C_exp)
    assert chain_tables(C_exp) == chain_tables(normalized_chains(S))


def test_homology_exp2_circle_is_moebius():
    h = homology(build_expk(sphere(1), 2).result)
    assert h.betti == [1, 1, 0]
    assert h.torsion == [[], [], []]
    assert h.euler == 0


def test_homology_minimal_spheres():
    for m in (1, 2, 3):
        h = homology(normalized_chains(sphere(m)), reduced=True)
        assert h.betti == [0] * m + [1]
        assert all(not t for t in h.torsion)


def test_homology_figure_eight():
    h = homology(normalized_chains(wedge(WedgeSpec((1, 1)))))
    assert h.betti == [1, 2]


def test_homology_rejects_broken_complex():
    bad = ChainComplex([SparseIntMatrix(1), from_dense([[1]])])
    # d.d = 0 trivially here; break it with a second boundary
    bad2 = ChainComplex([SparseIntMatrix(1),
                         from_dense([[1]]),
                         from_dense([[1]])])
    homology(bad)
    with pytest.raises(ChainComplexError):
        homology(bad2)


def test_euler_identity_everywhere():
    spaces = [sphere(1), sphere(2), wedge(WedgeSpec((1, 1, 1))),
              subdivided_circle(4)]
    complexes = [normalized_chains(S) for S in spaces] + [
        build_expk(sphere(1), 3).result,
        build_expk(wedge(WedgeSpec((1, 1))), 2).result]
    for C in complexes:
        h = homology(C)
        assert h.euler == sum((-1) ** n * f for n, f in enumerate(h.f_vector))
        assert h.euler == sum((-1) ** n * b for n, b in enumerate(h.betti))


def test_direct_sum_is_degreewise_sum():
    """Block-diagonal assembly of two complexes adds betti and concatenates
    torsion degree-wise."""
    A = build_expk(sphere(1), 2).result
    B = normalized_chains(sphere(2))
    top = max(len(A.boundaries), len(B.boundaries)) - 1

    def mat(C, n):
        if n < len(C.boundaries):
            return C.boundaries[n]
        return SparseIntMatrix(0)

    boundaries = []
    for n in range(top + 1):
        MA, MB = mat(A, n), mat(B, n)
        M = SparseIntMatrix(len(MA.cols) + len(MB.cols))
        for c, col in enumerate(MA.cols):
            M.cols[c].update(col)
        off_r = len(mat(A, n - 1).cols) if n else 0  # f_{n-1} of A
        off_c = len(MA.cols)
        for c, col in enumerate(MB.cols):
            for r, v in col.items():
                M.cols[c + off_c][r + off_r] = v
        boundaries.append(M)
    h = homology(ChainComplex(boundaries))
    ha = homology(A)
    hb = homology(B)
    for n in range(top + 1):
        ba = ha.betti[n] if n < len(ha.betti) else 0
        bb = hb.betti[n] if n < len(hb.betti) else 0
        assert h.betti[n] == ba + bb


def test_normalized_chains_requires_closure():
    S = subdivided_circle(3)
    with pytest.raises(SimplicialError):
        normalized_chains(S, {3})  # an edge without its vertices


def test_chains_of_a_base_whose_ids_are_not_in_dimension_order():
    """A circle of two edges, ids 1 and 3, on the vertices 0 and 2: its
    chains number each degree's generators in ascending id order, which its
    boundary rows show, and so does a closed subset's, up to the largest
    dimension in it.  wedge((2, 1, 2)) has generators of dimension 0, 2, 1,
    2 in id order; it and its exp_2 have the homology of wedge((1, 2, 2)),
    and its closed subsets have the chains of the wedges they are."""
    O = SimplicialSet()
    for dim in (0, 1, 0, 1):
        O.add_generator(dim)
    O.set_faces(1, [(2, 0), (0, 0)])  # from vertex 0 to vertex 2
    O.set_faces(3, [(0, 0), (2, 0)])  # and back
    assert O.dim_of == [0, 1, 0, 1]
    for gens, d1 in [(None, [[-1, 1], [1, -1]]), ({0, 1, 2}, [[-1], [1]]),
                     ({0, 2, 3}, [[1], [-1]]), ({0, 2}, None)]:
        C = normalized_chains(O, gens)
        assert dense_boundaries(C)[1:] == ([d1] if d1 else [])
    assert homology(normalized_chains(O)).betti == [1, 1]
    S = wedge(WedgeSpec((2, 1, 2)))
    T = wedge(WedgeSpec((1, 2, 2)))
    assert S.dim_of == [0, 2, 1, 2]
    assert normalized_chains(S).f_vector() == [1, 1, 2]
    for k in (1, 2):
        assert homology(build_expk(S, k).result).groups_equal(
            homology(build_expk(T, k).result))
    for gens, f_vector, summands in [({0, 2, 3}, [1, 1, 1], (1, 2)),
                                     ({0, 1, 3}, [1, 0, 2], (2, 2)),
                                     ({0, 2}, [1, 1], (1,))]:
        sub = normalized_chains(S, gens)
        assert sub.f_vector() == f_vector
        whole = normalized_chains(wedge(WedgeSpec(summands)))
        assert dense_boundaries(sub) == dense_boundaries(whole)
        assert homology(sub).groups_equal(homology(whole))


def test_a_chain_complex_is_its_boundaries():
    """A degree's size is its boundary's column count, stored nowhere
    else: a column appended to d_n adds one generator in degree n."""
    assert ChainComplex._fields == ("boundaries",)
    C = build_expk(sphere(1), 2).result
    f = C.f_vector()
    for n in range(len(C.boundaries)):
        size = C.n_generators
        C.boundaries[n].cols.append({})
        f[n] += 1
        assert C.f_vector() == f
        assert C.n_generators == size + 1


def test_a_sparse_matrix_stores_its_columns_only():
    """A boundary's row count is the size of the degree below, stored once
    as that degree's column count."""
    M = SparseIntMatrix(2)
    assert not hasattr(M, "__dict__")
    assert SparseIntMatrix.__slots__ == ("cols",)
    assert M.cols == [{}, {}]
    M.cols.append({0: 1})
    assert len(M.cols) == 3 and M.nnz() == 1 and to_dense(M, 3) == [
        [0, 0, 1], [0, 0, 0], [0, 0, 0]]
    for name in ("nrows", "ncols"):
        with pytest.raises(AttributeError):
            setattr(M, name, 3)


def _mod_p_mismatches() -> list[tuple[str, int, int]]:
    """The (space, k, p) of the MATRIX_CASES whose F_p homology, by
    betti_mod_p, is not the universal-coefficient count of the reported
    groups: dim H_n(X; F_p) = betti_n + t_p(n) + t_p(n - 1), t_p(n) the
    number of torsion divisors of H_n that p divides.  p runs over 2, 3
    and every prime dividing a reported divisor."""
    bad = []
    for desc, k in MATRIX_CASES:
        C = build_expk(parse_space(desc)[1], k).result
        h = homology(C)
        primes = {2, 3} | {q for ds in h.torsion for d in ds
                           for q in range(2, d + 1)
                           if d % q == 0 and all(q % r for r in range(2, q))}
        for p in sorted(primes):
            t = [sum(d % p == 0 for d in ds) for ds in h.torsion] + [0]
            if betti_mod_p(C, p) != [b + t[n] + t[n - 1]
                                     for n, b in enumerate(h.betti)]:
                bad.append((desc, k, p))
    return bad


def test_homology_agrees_with_an_independent_mod_p_count():
    """The reported groups predict every F_p Betti number (p = 2, 3 and the
    primes of the divisors), computed by an elimination that shares no code
    with homology.py.  It checks betti and which primes divide the torsion,
    but not the exponents: Z/2 and Z/4 have the same F_2 homology."""
    assert _mod_p_mismatches() == []


def test_the_mod_p_count_catches_a_dropped_divisor(monkeypatch):
    """An SNF that loses one non-unit divisor, and the rank it adds, makes
    the mod-p check fail: with it, H gains a Z where a Z/2 was, which the
    F_3 count sees."""
    import subsetspace.homology as homology_module

    def dropping(M, skip=frozenset()):
        res = smith_normal_form(M, skip)
        if res.divisors and res.divisors[-1] > 1:
            res = res._replace(rank=res.rank - 1, divisors=res.divisors[:-1])
        return res

    monkeypatch.setattr(homology_module, "smith_normal_form", dropping)
    assert _mod_p_mismatches() == [("wedge:2", 3, 3), ("wedge:3", 2, 3)]
