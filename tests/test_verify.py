import json
import random

import pytest

from subsetspace.simplicial import (SimplicialError, SimplicialSet,
                                    simplicial_set_from_dict)
from subsetspace.spaces import subdivided_circle, wedge
from subsetspace.expk import ResourceCapError, build_expk
from subsetspace.homology import homology, normalized_chains
from subsetspace import cli
from subsetspace import verify as V

from oracles import expk_simplicial_set, moore_space_z2


def two_edge_path():
    S = SimplicialSet()
    p0 = S.add_generator(0)
    p1 = S.add_generator(0)
    p2 = S.add_generator(0)
    e0 = S.add_generator(1)
    e1 = S.add_generator(1)
    S.set_faces(e0, [(p1, 0), (p0, 0)])
    S.set_faces(e1, [(p2, 0), (p1, 0)])
    return S, (p0, p1, p2, e0, e1)


def test_theorem1_graph_k3():
    claim = V.theorem1_check(wedge((1, 1)), 3)
    assert claim.verdict == V.PASS


def test_theorem1_sphere_k2():
    claim = V.theorem1_check(wedge((2,)), 2)
    assert claim.verdict == V.PASS


def test_theorem1_circle_k2_moebius():
    claim = V.theorem1_check(wedge((1,)), 2)
    assert claim.verdict == V.PASS
    assert claim.homology.betti[1] == 1  # informational degree above bound


def test_theorem1_requires_homogeneous_wedge():
    with pytest.raises(ValueError):
        V.theorem1_check(wedge((1, 2)), 2)
    # one vertex with generators in dimensions 1 and 2
    mixed = SimplicialSet()
    v = mixed.add_generator(0)
    e, c = mixed.add_generator(1), mixed.add_generator(2)
    mixed.set_faces(e, [(v, 0)] * 2)
    mixed.set_faces(c, [(e, 0)] * 3)
    for S in (subdivided_circle(4), mixed, SimplicialSet()):
        with pytest.raises(ValueError, match="homogeneous wedge"):
            V.theorem1_check(S, 2)


def test_theorem1_reads_m_off_the_space():
    # the README's minimal 2-sphere, with JSON names of its own
    S = simplicial_set_from_dict({"generators": [["v"], [], ["c"]],
                                  "faces": {"c": ["s_0 v"] * 3}})
    for k in (2, 3):
        got = V.theorem1_check(S, k)
        want = V.theorem1_check(wedge((2,)), k)
        assert got.verdict == want.verdict
        assert got.homology == want.homology
        assert got.cells_enumerated == want.cells_enumerated


def test_every_check_returns_an_outcome():
    """The five checks give the CLI one record: verdict, homology (None
    without one) and cells_enumerated."""
    for which in ("theorem1", "tuffley", "lemma1", "invariance", "oracle"):
        args = cli.build_parser().parse_args(
            ["verify", which, "--space", "s1", "--k", "2", "--seed", "0"])
        res = cli.cmd_verify(which, args, wedge((1,)))
        assert type(res) is V.Outcome, which
        assert res.verdict == V.PASS
        assert (res.homology is None) == (which in ("lemma1", "oracle"))
    assert V.Outcome._fields == ("verdict", "homology", "cells_enumerated")


def test_tuffley_is_the_m0_case_of_theorem1():
    S = wedge((1, 1))
    assert V.tuffley_check(S, 3) == V.theorem1_check(S, 3)
    # one dimension, but not one vertex: tuffley_check refuses it itself
    with pytest.raises(ValueError, match="tuffley_check needs a wedge of"):
        V.tuffley_check(subdivided_circle(4), 2)


def test_tuffley_circle_k3():
    res = V.tuffley_check(wedge((1,)), 3)
    assert res.verdict == V.PASS
    assert res.homology.betti[3] == 1
    assert res.homology.vanishes_through(2)


def test_tuffley_figure_eight_k2():
    assert V.tuffley_check(wedge((1, 1)), 2).verdict == V.PASS


def test_tuffley_k1_circle():
    res = V.tuffley_check(wedge((1,)), 1)
    assert res.verdict == V.PASS
    assert res.homology.betti == [0, 1]


def test_tuffley_rejects_higher_spheres():
    with pytest.raises(ValueError, match="wedge of circles"):
        V.tuffley_check(wedge((2,)), 2)  # the minimal 2-sphere


def test_lemma1_path_cover_passes():
    S, (p0, p1, p2, e0, e1) = two_edge_path()
    res = V.lemma1_check(S, [{p0, p1, e0}, {p1, p2, e1}], 1)
    assert res == V.PASS


def test_lemma1_circle_cover_hypotheses_not_met():
    S = subdivided_circle(3)
    # two arcs whose intersection is two points
    arc1 = {0, 1, 3}          # p0, p1, e0
    arc2 = {1, 2, 0, 4, 5}    # p1, p2, p0, e1, e2
    res = V.lemma1_check(S, [arc1, arc2], 1)
    assert res == V.HYPOTHESES_NOT_MET


def test_torsion_keeps_the_homology_from_vanishing():
    """M(Z/2, 1) has no reduced betti numbers but H_1 = Z/2, so its
    homology vanishes through degree 0 only, and a cover by itself does not
    meet lemma1's hypotheses at j = 1."""
    moore = moore_space_z2()
    h = homology(normalized_chains(moore), reduced=True)
    assert (h.betti, h.torsion) == ([0, 0, 0], [[], [2], []])
    assert h.vanishes_through(0) and not h.vanishes_through(1)
    assert V.lemma1_check(moore, [{0, 1, 2}], 0) == V.PASS
    assert V.lemma1_check(moore, [{0, 1, 2}], 1) == V.HYPOTHESES_NOT_MET


def test_lemma1_rejects_non_closed_cover():
    S, (p0, p1, p2, e0, e1) = two_edge_path()
    with pytest.raises(ValueError):
        V.lemma1_check(S, [{e0, p0}, {p1, p2, e1, p0}], 0)


def test_lemma1_rejects_incomplete_cover():
    S, (p0, p1, p2, e0, e1) = two_edge_path()
    with pytest.raises(ValueError):
        V.lemma1_check(S, [{p0, p1, e0}], 0)


def test_lemma1_randomized_implication_holds():
    rng = random.Random(11)
    spaces = [wedge((1, 1)), wedge((2,)),
              expk_simplicial_set(wedge((1,)), 2),
              expk_simplicial_set(wedge((1, 1)), 2)]
    for _ in range(60):
        Y = rng.choice(spaces)
        res = V.lemma1_check(Y, *V.random_lemma1_instance(Y, rng))
        assert res != V.FAIL


def test_theorem1_two_sphere_wedge_k3_stretch():
    claim = V.theorem1_check(wedge((2, 2)), 3)
    assert claim.verdict == V.PASS
    # exact arithmetic matters here: 2-torsion appears above the bound
    assert claim.homology.torsion[4] == [2, 2]


def test_invariance_curated_pairs():
    for v in (3, 4):
        res = V.invariance_check(wedge((1,)), subdivided_circle(v), 2)
        assert res.verdict == V.PASS


def test_invariance_identity():
    S = wedge((1, 1))
    assert V.invariance_check(S, S, 2).verdict == V.PASS


def test_invariance_detects_different_types():
    assert V.invariance_check(wedge((1,)), wedge((1, 1)),
                              2).verdict == V.FAIL


def test_level_count_fails_on_a_broken_build(monkeypatch, capsys):
    """The check reads the build: with its last, top-dimensional generator
    removed from its chains, exp_2 S^1 fails at levels >= 2 and at every
    level, and the CLI exits 1; a level below that generator's dimension
    still passes."""
    def broken(S, k, max_cells):
        space = build_expk(S, k, max_cells)
        space.result.boundaries[-1].cols.pop()
        return space

    monkeypatch.setattr(V, "build_expk", broken)
    S = wedge((1,))
    assert build_expk(S, 2).result.f_vector() == [1, 2, 1]
    for level in (0, 1):
        assert V.level_count_check(S, 2, level)[0] == V.PASS
    for level in (2, 3, None):
        assert V.level_count_check(S, 2, level)[0] == V.FAIL
    assert cli.main(["verify", "oracle", "--space", "s1", "--k", "2",
                     "--seed", "0"]) == 1
    assert '"verdict": "fail"' in capsys.readouterr().out


def test_level_count_at_k1_builds_nothing(monkeypatch, capsys):
    """exp_1 S is S, so at k = 1 the check reads S's own f-vector and cap
    count and builds no chains: it passes with the cells of exp_1 S, tests
    the cap before it refuses a negative level, and the CLI exits 0."""
    cases = [(S, build_expk(S, 1).cells_enumerated)
             for S in (wedge((2,)), subdivided_circle(3), two_edge_path()[0])]

    def no_build(*args, **kwargs):
        raise AssertionError("chains built at k = 1")

    monkeypatch.setattr(V, "build_expk", no_build)
    monkeypatch.setattr(V, "normalized_chains", no_build)
    for S, cells in cases:
        for level in (0, 1, 2, 5, None):
            assert V.level_count_check(S, 1, level) == (V.PASS, None, cells)
    with pytest.raises(ResourceCapError):
        V.level_count_check(wedge((1,) * 9), 1, -1, max_cells=5)
    with pytest.raises(SimplicialError, match="dimension must be >= 0"):
        V.level_count_check(wedge((2,)), 1, -1)
    assert cli.main(["verify", "oracle", "--space", "s150", "--k", "1",
                     "--seed", "0"]) == 0
    assert '"verdict": "pass"' in capsys.readouterr().out


def test_lemma1_fails_when_only_the_whole_space_has_homology(monkeypatch,
                                                            capsys):
    """Negative control: with an extra reduced H_0 on the whole space alone,
    a cover whose hypotheses hold violates the conclusion, and the CLI's
    loop reports it with exit 1."""
    chains, homology = V.normalized_chains, V.homology

    def tagged_chains(Y, gens=None):
        return chains(Y, gens), gens is None

    def bumped_homology(tagged, reduced=False):
        C, whole = tagged
        h = homology(C, reduced=reduced)
        return h._replace(betti=[h.betti[0] + whole, *h.betti[1:]])

    monkeypatch.setattr(V, "normalized_chains", tagged_chains)
    monkeypatch.setattr(V, "homology", bumped_homology)
    S = wedge((1, 1))  # generators v, a, b
    res = V.lemma1_check(S, [{0, 1}, {0, 2}], 0)
    assert res == V.FAIL
    assert cli.main(["verify", "lemma1", "--space", "wedge:1,1", "--k", "2",
                     "--seed", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"
