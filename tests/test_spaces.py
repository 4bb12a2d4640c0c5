import pytest

from subsetspace.cli import main
from subsetspace.simplicial import (SimplicialError,
                                    simplicial_set_from_dict, validate)
from subsetspace.spaces import (edgewise_subdivision, parse_space,
                                subdivided_circle, wedge)
from subsetspace.homology import homology, normalized_chains

from oracles import find_isomorphism, word_mask
from test_acceptance import MATRIX_CASES


def test_sphere_one():
    S = wedge((1,))
    assert S.f_vector() == [1, 1]
    assert S.faces[1] == [(0, 0), (0, 0)]


def test_sphere_two_f_vector():
    assert wedge((2,)).f_vector() == [1, 0, 1]


def test_sphere_three_faces_fully_degenerate():
    S = wedge((3,))
    assert validate(S) is None
    assert all(f == (0, word_mask((1, 0)))
               for f in S.faces[1])


def test_wedge_figure_eight():
    S = wedge((1, 1))
    assert S.f_vector() == [1, 2]


def test_wedge_two_spheres_count():
    assert len(wedge((2, 2)).dim_of) == 3


def test_single_wedge_is_sphere():
    # the minimal circle and 2-sphere, written out by hand in JSON
    for m, faces in ((1, ["v", "v"]), (2, ["s_0 v"] * 3)):
        S = simplicial_set_from_dict({"generators": [["v"]] + [[]] * (m - 1)
                                      + [["c"]], "faces": {"c": faces}})
        assert find_isomorphism(wedge((m,)), S) is not None


def test_wedge_is_symmetric():
    A = wedge((1, 2, 2))
    B = wedge((2, 1, 2))
    assert find_isomorphism(A, B) is not None


def test_sphere_rejects_dimension_zero():
    with pytest.raises(SimplicialError,
                       match="^sphere dimensions must be >= 1$"):
        parse_space("s0")


def test_wedge_spec_validation():
    # an empty wedge is a malformed descriptor; a 0 summand is refused
    with pytest.raises(SimplicialError, match="^bad wedge descriptor"):
        parse_space("wedge:")
    with pytest.raises(SimplicialError,
                       match="^sphere dimensions must be >= 1$"):
        parse_space("wedge:0,1")


def test_parse_space_refuses_dimension_zero_before_the_cap(capsys):
    """parse_space, where a descriptor arrives, refuses a sphere of
    dimension 0 before it tests any summand against the cap: the 300000
    summand is over the default cap, yet the call exits 2, not 3."""
    with pytest.raises(SimplicialError,
                       match="^sphere dimensions must be >= 1$"):
        parse_space("wedge:1,0,300000")
    assert main(["homology", "--space", "wedge:1,0,300000", "--k", "1"]) == 2
    assert capsys.readouterr() == ("", "error: sphere dimensions must be "
                                       ">= 1\n")


def test_subdivided_circle_homology():
    S = subdivided_circle(3)
    assert S.f_vector() == [3, 3]
    h = homology(normalized_chains(S))
    assert h.betti == [1, 1]
    assert h.torsion == [[], []]


def test_subdivided_circle_euler():
    assert homology(normalized_chains(subdivided_circle(4))).euler == 0


def test_subdivided_circle_minimum_size():
    with pytest.raises(SimplicialError):
        subdivided_circle(2)


def test_all_builders_validate():
    for S in [wedge((1,)), wedge((2,)), wedge((4,)), wedge((1, 1, 1)),
              wedge((2, 3)), subdivided_circle(5)]:
        assert validate(S) is None


def test_parse_space_descriptors():
    for desc, fvec in [("s1", [1, 1]), ("s2", [1, 0, 1]),
                       ("wedge:1,1", [1, 2]), ("circle:4", [4, 4])]:
        name, S = parse_space(desc)
        assert name == desc
        assert S.f_vector() == fvec


def test_parse_space_strips_and_lower_cases_descriptors():
    for raw, canon in [(" S2 ", "s2"), ("WEDGE:1,1", "wedge:1,1"),
                       ("Circle:4", "circle:4")]:
        name, S = parse_space(raw)
        T = parse_space(canon)[1]
        assert name == canon
        assert (S.dim_of, S.faces) == (T.dim_of, T.faces)


def test_parse_space_rejects_garbage():
    # a count is 0 or [1-9][0-9]* in ASCII: no sign, '_', space, leading
    # zero or other decimal digit ('\u0663' is ARABIC-INDIC DIGIT THREE)
    for desc in ["nope", "wedge:", "circle:x", "s", "s\u00b2", "circle:+3",
                 "circle:1_0", "wedge:+1,2", "wedge: 1,2", "s\u0663", "s01"]:
        with pytest.raises(SimplicialError):
            parse_space(desc)


@pytest.mark.parametrize("count", ["00", "01", "\u0663", "0\u0660", "+1",
                                   "1_0", " 1",
                                   pytest.param("9" * 640, id="640-digits"),
                                   pytest.param("9" * 641, id="641-digits"),
                                   pytest.param("9" * 5000, id="5000-digits")])
def test_both_readers_refuse_a_malformed_count(count):
    """Descriptor counts and face-expression indices share one reader, so
    every count it refuses is refused by both readers ('\u0663' is an
    ARABIC-INDIC DIGIT THREE and '\u0660' its zero).  A count has at most
    639 digits, so it and its successor convert under CPython's least int
    <-> str limit, 640, and a longer one is refused like any other, not
    with int's own ValueError.  A refusal quotes at most 40 characters of
    its input, so its message stays short: the quote is at most 45
    characters, with its two quote marks and '...'."""
    for desc, refusal in ((f"s{count}", "unrecognized space descriptor"),
                          (f"circle:{count}", "bad circle descriptor")):
        with pytest.raises(SimplicialError, match=refusal) as refused:
            parse_space(desc)
        assert len(str(refused.value)) <= len(f"{refusal} ") + 45
    with pytest.raises(SimplicialError, match="bad token") as refused:
        simplicial_set_from_dict({
            "generators": [["v"], [], ["c"]],
            "faces": {"c": [f"s_{count} v", "s_0 v", "s_0 v"]},
        })
    assert len(str(refused.value)) <= len("bad token  in face expression") + 45


def test_edgewise_subdivision_keeps_the_homology():
    for desc in sorted({desc for desc, _ in MATRIX_CASES}):
        S = parse_space(desc)[1]
        E = edgewise_subdivision(S)
        assert validate(E) is None, desc
        h, he = (homology(normalized_chains(X)) for X in (S, E))
        assert he.groups_equal(h), desc
        assert he.euler == h.euler, desc


def test_edgewise_subdivision_f_vectors():
    # (esd S)_n = S_{2n+1}, less the simplices in the image of an esd s_c
    for desc, fvec in [("s2", [1, 3, 4]), ("s3", [1, 1, 8, 8]),
                       ("wedge:1,2", [2, 5, 4])]:
        assert edgewise_subdivision(parse_space(desc)[1]).f_vector() == fvec
    for v in (3, 4, 5):
        assert edgewise_subdivision(subdivided_circle(v)).f_vector() == [
            2 * v, 2 * v]
