from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetspace.simplicial import (SimplicialError, SimplicialSet,
                                    apply_face, compose_degeneracy,
                                    degeneracy_words, enumerate_level,
                                    simplicial_set_from_dict, validate,
                                    word_is_valid)
from subsetspace.spaces import subdivided_circle, wedge

from oracles import (all_degenerate_tuples, compose_tuple, d_on_tuple,
                     degenerate, eval_word, find_isomorphism, s_on_tuple,
                     simplex_dim, word_mask, word_tuple)


def compose(word: tuple[int, ...], j: int) -> tuple[int, ...]:
    """compose_degeneracy on a word spelled as its decreasing indices."""
    return word_tuple(compose_degeneracy(word_mask(word), j))


def test_compose_identity_word():
    assert compose((), 0) == (0,)


def test_compose_s0_s0():
    assert compose((0,), 0) == (1, 0)


def test_compose_into_longer_word():
    # checked below against the standard-simplex action as well
    assert compose((2, 0), 1) == (3, 1, 0)


def test_compose_matches_standard_simplex_action():
    # s_j after (2,0) over a base of dimension 1
    for base_dim, word, j in [(1, (2, 0), 1), (0, (0,), 0), (2, (), 0),
                              (1, (1, 0), 2), (2, (3, 1), 0)]:
        word = word_mask(word)
        expected = s_on_tuple(eval_word(word, base_dim), j)
        assert eval_word(compose_degeneracy(word, j), base_dim) == expected


def test_compose_rejects_bad_index():
    with pytest.raises(SimplicialError):
        compose_degeneracy(0, -1)
    assert not word_is_valid(compose_degeneracy(0, 1), 0)  # s_1 of a vertex


@given(st.lists(st.integers(0, 6), max_size=6), st.integers(0, 3))
@settings(max_examples=300)
def test_compose_normal_form_confluence(ops, base_dim):
    """Composing any operator sequence in order yields a valid normal form
    matching the brute-force standard-simplex action and the tuple model's
    composition."""
    word = 0
    tword: tuple[int, ...] = ()
    t = tuple(range(base_dim + 1))
    for j in ops:
        if j > base_dim + word.bit_count():
            j = j % (base_dim + word.bit_count() + 1)
        word = compose_degeneracy(word, j)
        tword = compose_tuple(tword, j)
        t = s_on_tuple(t, j)
    assert word_is_valid(word, base_dim)
    assert eval_word(word, base_dim) == t
    assert word_tuple(word) == tword


def test_apply_face_d0_s0_vertex():
    S = wedge((1,))
    v = (0, 0)
    x = degenerate(v, 0)
    assert apply_face(x, 0, S) == v


def test_apply_face_d2_s1_edge():
    S = wedge((1,))
    e = (1, 0)
    assert apply_face(degenerate(e, 1), 2, S) == e


def test_apply_face_through_word_to_base():
    # minimal circle: d_0(s_1 e) = s_0(d_0 e) = s_0 v
    S = wedge((1,))
    x = degenerate((1, 0), 1)
    assert apply_face(x, 0, S) == (0, word_mask((0,)))


def test_apply_face_on_a_deep_degenerate_vertex():
    """d_i of s_{n-1} ... s_0 v is s_{n-2} ... s_0 v for every i, at n = 300:
    each d_i cancels one operator."""
    S = wedge((1,))
    n = 300
    x = (0, word_mask(tuple(range(n - 1, -1, -1))))
    for i in range(n + 1):
        y = base, word = apply_face(x, i, S)
        assert (base, word_tuple(word), simplex_dim(S, y)) == (
            0, tuple(range(n - 2, -1, -1)), n - 1)


def test_apply_face_matches_tuple_model():
    """d_i of s_W g, for every normal-form word W of length 1..6 over a
    generator g of dimension 0..3, and every i.  When the deleted entry
    leaves the tuple model onto (0, ..., m), the face is a degeneracy of g
    itself, and its word evaluates to that tuple.  Otherwise the tuple
    misses one value v: the face is a degeneracy of g's face d_v, whose word
    evaluates to the tuple with the values above v lowered by one."""
    S = SimplicialSet()
    checked = through_base = 0
    for m in range(4):
        g = S.add_generator(m)
        if m:  # distinct faces, so the face index used can be read back
            sides = [S.add_generator(m - 1) for _ in range(m + 1)]
            S.set_faces(g, [(h, 0) for h in sides])
        for length in range(1, 7):
            for word in degeneracy_words(m, length):
                t = eval_word(word, m)
                for i in range(len(t)):
                    face = d_on_tuple(t, i)
                    y = base, w = apply_face((g, word), i, S)
                    missing = set(range(m + 1)) - set(face)
                    if missing:
                        (v,) = missing
                        assert base == sides[v]
                        assert simplex_dim(S, y) == m + length - 1
                        assert eval_word(w, m - 1) == tuple(
                            a - (a > v) for a in face)
                        through_base += 1
                        continue
                    assert base == g
                    assert simplex_dim(S, y) == m + length - 1
                    assert eval_word(w, m) == face
                    checked += 1
    assert checked == 2239
    assert through_base == 425


def test_face_indices_out_of_range():
    S = wedge((1,))
    # refused before the face table is read, which a vertex lacks
    with pytest.raises(SimplicialError,
                       match="^cannot take a face of a vertex$"):
        apply_face((0, 0), 0, S)
    with pytest.raises(SimplicialError):
        apply_face((1, 0), 2, S)


@pytest.mark.parametrize("space", [wedge((1,)), wedge((2,)), wedge((3,)),
                                   wedge((1, 2)),
                                   subdivided_circle(3)])
def test_simplicial_identity_on_all_levels(space):
    for n in range(1, space.dim + 3):
        for x in enumerate_level(space, n):
            if n < 2:
                continue
            for j in range(1, n + 1):
                for i in range(j):
                    lhs = apply_face(apply_face(x, j, space), i, space)
                    rhs = apply_face(apply_face(x, i, space), j - 1, space)
                    assert lhs == rhs


def test_enumerate_level_circle():
    S = wedge((1,))
    lvl1 = enumerate_level(S, 1)
    assert [(g, word_tuple(w)) for g, w in lvl1] == [(0, (0,)), (1, ())]
    lvl2 = enumerate_level(S, 2)
    assert [(g, word_tuple(w)) for g, w in lvl2] == [(0, (1, 0)),
                                                     (1, (0,)), (1, (1,))]


def test_enumerate_level_two_sphere():
    assert len(enumerate_level(wedge((2,)), 2)) == 2


def test_enumerate_level_counts_closed_form():
    # wedge (2, 1) has its 2-cell's id below its 1-cell's
    for space in [wedge((1,)), wedge((3,)), wedge((1, 1, 2)),
                  wedge((2, 1))]:
        for n in range(0, 6):
            expected = sum(comb(n, n - space.dim_of[g])
                           for g in range(space.n_generators)
                           if space.dim_of[g] <= n)
            level = enumerate_level(space, n)
            assert len(level) == expected
            assert level == sorted(level)


def test_enumerate_level_matches_degeneracy_closure():
    """Independent oracle: the words of a level correspond one-to-one with
    the tuples reachable by repeated degeneracy applications.  Their integer
    order is the lexicographic order of their decreasing index tuples."""
    for base_dim in range(0, 3):
        for length in range(0, 4):
            words = degeneracy_words(base_dim, length)
            assert words == sorted(words)
            assert words == sorted(words, key=word_tuple)
            tuples = all_degenerate_tuples(base_dim, length)
            images = {eval_word(w, base_dim) for w in words}
            assert images == tuples
            assert len(words) == len(images)  # words act faithfully


def test_set_faces_refusals_keep_their_messages_and_order():
    """Each rule refuses with its own message, checked face by face in the
    order: base exists, word in normal form, dimension matches; a face
    that breaks two rules reports the first, and nothing is stored."""
    S = SimplicialSet()
    v = S.add_generator(0)
    e = S.add_generator(1)
    t = S.add_generator(2)
    ok = (v, 1)  # s_0 v
    cases = [
        (e, [(5, 0), (v, 0)], "face base 5 does not exist"),
        (e, [(-1, 0)] * 2, "face base -1 does not exist"),
        (t, [ok, (v, 0b10), ok],
         "face word 0b10 not in normal form"),
        (t, [ok, ok, (v, -1)],
         "face word -0b1 not in normal form"),
        (t, [ok, ok, (v, 0)], "face dimension mismatch"),
        (e, [(v, 1), (v, 0)], "face dimension mismatch"),
        (t, [ok, (v, 0b11), ok], "face dimension mismatch"),
        # two rules broken: the earlier rule, or the earlier face, wins
        (t, [ok, (9, 0b10), ok], "face base 9 does not exist"),
        (t, [ok, (v, 0b100), ok],
         "face word 0b100 not in normal form"),
        (t, [(v, 0), (9, 0), ok], "face dimension mismatch"),
        (v, [], "vertices have no faces"),
        (t, [(9, 0)], "dimension 2 needs 3 faces"),
    ]
    for g, faces, message in cases:
        with pytest.raises(SimplicialError) as refused:
            S.set_faces(g, faces)
        assert str(refused.value) == message
    assert S.faces == [None, None, None]
    S.set_faces(t, [ok] * 3)
    assert S.faces[t] == [ok] * 3


def test_validate_builders_pass():
    for space in [wedge((1,)), wedge((2,)), wedge((3,)), subdivided_circle(4)]:
        assert validate(space) is None


def test_validate_reports_corrupted_face_table():
    S = subdivided_circle(3)
    t = S.add_generator(2)
    e0, e1 = (3, 0), (4, 0)  # the first two edges, after the 3 vertices
    # faces violating d_0 d_1 = d_0 d_0 compatibility on purpose
    S.set_faces(t, [e0, e1, e0])
    violation = validate(S)
    assert violation is not None and violation[0] == t


def test_json_ingestion_minimal_circle():
    S = simplicial_set_from_dict({
        "generators": [["v"], ["e"]],
        "faces": {"e": ["v", "v"]},
    })
    assert validate(S) is None
    assert S.f_vector() == [1, 1]
    assert find_isomorphism(S, wedge((1,))) is not None


def test_json_ingestion_degenerate_faces():
    S = simplicial_set_from_dict({
        "generators": [["v"], [], ["c"]],
        "faces": {"c": ["s_0 v", "s_0 v", "s_0 v"]},
    })
    assert find_isomorphism(S, wedge((2,))) is not None


def test_json_ingestion_rejects_non_normal_words():
    with pytest.raises(SimplicialError):
        simplicial_set_from_dict({
            "generators": [["v"], [], ["c"]],
            "faces": {"c": ["s_0 s_1 v", "s_0 v", "s_0 v"]},
        })
    # a repeated index, whose bitmask would read s_2; and an index too high
    # for the word's length
    for bad, word in [("s_1 s_1 v", "'s_1 s_1'"),
                      ("s_3 s_0 v", "'s_3 s_0'")]:
        with pytest.raises(SimplicialError,
                           match=rf"word {word} is not in normal form"):
            simplicial_set_from_dict({
                "generators": [["v"], [], [], ["c"]],
                "faces": {"c": [bad] + ["s_1 s_0 v"] * 3},
            })
    # the refusal quotes at most 40 characters of a long word, so its
    # message stays short: the quote is at most 45 characters, with its two
    # quote marks and '...'
    long_word = " ".join(f"s_{i}" for i in range(2000))
    with pytest.raises(SimplicialError, match="not in normal form") as refused:
        simplicial_set_from_dict({
            "generators": [["v"], [], ["c"]],
            "faces": {"c": [f"{long_word} v", "s_0 v", "s_0 v"]},
        })
    assert len(str(refused.value)) <= len(
        "word  is not in normal form for 'v'") + 45


def test_json_ingestion_rejects_missing_faces():
    with pytest.raises(SimplicialError):
        simplicial_set_from_dict({"generators": [["v"], ["e"]], "faces": {}})


def test_isomorphism_distinguishes_spaces():
    assert find_isomorphism(wedge((1,)), wedge((2,))) is None
    assert find_isomorphism(wedge((1, 1)), wedge((1,))) is None
