import random
from itertools import permutations

import pytest

from oridial.trees import (
    LEAF,
    LeafOrientation,
    ResourceLimitError,
    Tree,
    catalan,
    degeneracy,
    enumerate_trees,
    face,
    face_table,
    graft,
    leaf_orientation,
    mirror,
    tree_from_word,
    tree_index,
)

LEFT, RIGHT = LeafOrientation.LEFT, LeafOrientation.RIGHT


def recursive_count(n, _memo={0: 1}):
    # independent oracle: |Y(n)| = sum over splits of |Y(p)| * |Y(q)|
    if n not in _memo:
        _memo[n] = sum(recursive_count(p) * recursive_count(n - 1 - p) for p in range(n))
    return _memo[n]


def test_counts_match_catalan_and_recursive_oracle():
    expected = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for n, c in enumerate(expected):
        assert catalan(n) == c
        assert recursive_count(n) == c
        assert len(enumerate_trees(n)) == c


def test_level_zero_and_low_levels():
    assert enumerate_trees(0) == (LEAF,)
    assert [t.word for t in enumerate_trees(1)] == [(1,)]
    assert {t.word for t in enumerate_trees(2)} == {(1, 2), (2, 1)}
    words3 = {t.word for t in enumerate_trees(3)}
    assert words3 == {(1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1)}


def test_canonical_order_is_lexicographic():
    for n in range(7):
        words = [t.word for t in enumerate_trees(n)]
        assert words == sorted(words)


def test_graft_bracket_convention():
    assert graft(LEAF, LEAF).word == (1,)
    y1 = graft(LEAF, LEAF)
    # the root label sits between the subtree labels and is maximal
    assert graft(LEAF, y1).word == (2, 1)
    assert graft(y1, LEAF).word == (1, 2)
    assert graft(y1, y1).word == (1, 3, 2)
    for n in range(6):
        for p in range(n):
            for a in enumerate_trees(p):
                for b in enumerate_trees(n - 1 - p):
                    expected = a.word + (n,) + tuple(x + p for x in b.word)
                    assert graft(a, b).word == expected


def test_grafting_partition():
    for n in range(1, 7):
        grafted = set()
        total = 0
        for p in range(n):
            for a in enumerate_trees(p):
                for b in enumerate_trees(n - 1 - p):
                    grafted.add(graft(a, b).word)
                    total += 1
        assert total == len(grafted) == catalan(n)
        assert grafted == {t.word for t in enumerate_trees(n)}


def test_word_roundtrip():
    for n in range(7):
        for t in enumerate_trees(n):
            assert tree_from_word(t.word) == t


def test_bad_words_rejected():
    for bad in ([1, 1], [2], [0], [1, 3], [2, 3, 1]):
        with pytest.raises(ValueError):
            tree_from_word(bad)
    with pytest.raises(ValueError) as exc:
        Tree(LEAF, None)
    assert str(exc.value) == "a tree has either two subtrees or none"


def test_every_permutation_round_trips_or_is_refused_by_name():
    # a permutation of 1..n is either a tree's word or refused as the whole input
    for n in range(7):
        words = {t.word for t in enumerate_trees(n)}
        for perm in permutations(range(1, n + 1)):
            if perm in words:
                assert tree_from_word(perm).word == perm
            else:
                with pytest.raises(ValueError) as exc:
                    tree_from_word(perm)
                assert str(exc.value) == f"not a valid tree word: {list(perm)}"


def test_resource_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_trees(13)
    with pytest.raises(ValueError):
        enumerate_trees(-1)


def test_face_examples():
    y1 = tree_from_word((1,))
    for i in (0, 1):
        assert face(i, y1) == LEAF
    assert face(1, tree_from_word((2, 1))) == y1
    with pytest.raises(ValueError):
        face(0, LEAF)
    with pytest.raises(IndexError):
        face(3, tree_from_word((2, 1)))


def test_face_commutation_relations():
    # face(i) after face(j) = face(j-1) after face(i) for i < j
    for n in range(2, 6):
        for y in enumerate_trees(n):
            for j in range(1, n + 1):
                for i in range(j):
                    assert face(i, face(j, y)) == face(j - 1, face(i, y))


def test_degeneracy_examples_and_relations():
    assert degeneracy(0, LEAF).word == (1,)
    for i in (-1, 3):   # a tree of size n has the leaves 0..n
        with pytest.raises(IndexError) as exc:
            degeneracy(i, tree_from_word((2, 1)))
        assert str(exc.value) == f"leaf index {i} out of range for an 2-tree"
    for y in enumerate_trees(3):
        for i in range(4):
            s = degeneracy(i, y)
            assert s.size == 4
            assert face(i, s) == y
            assert face(i + 1, s) == y
    # the remaining simplicial face/degeneracy exchange rules
    for y in enumerate_trees(3):
        for j in range(4):
            s = degeneracy(j, y)
            for i in range(5):
                if i < j:
                    assert face(i, s) == degeneracy(j - 1, face(i, y))
                elif i > j + 1:
                    assert face(i, s) == degeneracy(j, face(i - 1, y))


def test_degeneracy_square_rule_fails():
    # s_i s_i and s_{i+1} s_i genuinely differ somewhere
    witnessed = False
    for y in enumerate_trees(2):
        for i in range(3):
            if degeneracy(i, degeneracy(i, y)) != degeneracy(i + 1, degeneracy(i, y)):
                witnessed = True
    assert witnessed


def _points_left(i: int, y: Tree) -> bool:
    """Geometric reading: is leaf i the left child of its vertex?"""
    p = y.left.size
    if i <= p:
        return y.left.is_leaf() or _points_left(i, y.left)
    return (not y.right.is_leaf()) and _points_left(i - p - 1, y.right)


def test_orientation_examples():
    t21 = tree_from_word((2, 1))
    t12 = tree_from_word((1, 2))
    assert leaf_orientation(1, t21) is LEFT     # word 2 > 1
    assert leaf_orientation(1, t12) is RIGHT
    # (2,1) = leaf ∨ y1 and (1,2) = y1 ∨ leaf, so the boundary rules give:
    assert leaf_orientation(0, t21) is LEFT
    assert leaf_orientation(0, t12) is RIGHT
    assert leaf_orientation(2, t12) is RIGHT
    assert leaf_orientation(2, t21) is LEFT


def test_inner_orientation_matches_geometry():
    for n in range(1, 6):
        for y in enumerate_trees(n):
            for i in range(1, n):
                expected = LEFT if _points_left(i, y) else RIGHT
                assert leaf_orientation(i, y) is expected


def test_orientation_bounds():
    with pytest.raises(IndexError):
        leaf_orientation(2, tree_from_word((1,)))
    with pytest.raises(ValueError):
        leaf_orientation(0, LEAF)


def test_mirror_is_an_involution():
    rng = random.Random(5)

    def random_tree(n):
        if n == 0:
            return LEAF
        p = rng.randrange(n)
        return graft(random_tree(p), random_tree(n - 1 - p))

    for _ in range(50):
        y = random_tree(rng.randrange(0, 7))
        assert mirror(mirror(y)) == y
        assert mirror(y).size == y.size
    for n in range(6):
        assert {mirror(t).word for t in enumerate_trees(n)} == {t.word for t in enumerate_trees(n)}


def test_face_table_matches_face_and_leaf_orientation():
    for n in range(1, 6):
        below = tree_index(n - 1)
        assert face_table(n) == tuple(
            tuple((below[face(i, y).word], leaf_orientation(i, y)) for i in range(n + 1))
            for y in enumerate_trees(n))
    assert sum(map(len, face_table(4))) == 70   # (3 + 2)·C(4) pairs for δ at level 3
    with pytest.raises(ValueError):
        face_table(0)
