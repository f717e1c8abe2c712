"""Planar binary trees with faces, degeneracies and leaf orientations.

A planar binary n-tree has n internal (trivalent) vertices and n+1 leaves,
labelled 0..n from left to right.  Y(n) denotes the set of all such trees;
its cardinality is the Catalan number.  Trees drive the index combinatorics
of the whole engine: cochain spaces are graded by them, and coboundary maps
are built from the face maps ``face(i, y)`` together with the leaf
orientation maps ``leaf_orientation(i, y)``.

Every tree is either the unique 0-tree (a single leaf) or the graft
``a ∨ b`` of two smaller trees under a new root.  A tree in Y(n) is encoded
by its *word*, a permutation-like tuple of n distinct labels: the empty
word for the leaf, and

    word(a ∨ b) = word(a) + (p+q+1,) + (word(b) shifted up by p)

for a in Y(p), b in Y(q).  The label of the root is always the maximum, so
words decode uniquely.  Examples: Y(1) = {(1,)}, Y(2) = {(1,2), (2,1)} with
(2,1) = leaf ∨ Y(1) and (1,2) = Y(1) ∨ leaf, and
Y(3) = {(1,2,3), (2,1,3), (1,3,2), (3,1,2), (3,2,1)}.

Trees are immutable and compared and hashed by their word; all functions here
are pure.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from math import factorial

MAX_LEVEL = 12


class ResourceLimitError(Exception):
    """Raised when a request would exceed the configured combinatorial caps."""


def check_level(n: int) -> None:
    """Refuse a tree level above MAX_LEVEL, in constant time."""
    if n > MAX_LEVEL:
        raise ResourceLimitError(f"tree level {n} exceeds cap {MAX_LEVEL}")


class LeafOrientation(enum.Enum):
    """Which of the two products a leaf position selects."""

    LEFT = "left"    # the ⊣ product
    RIGHT = "right"  # the ⊢ product


class Tree:
    """An immutable planar binary tree.

    ``left`` and ``right`` are both None exactly for the unique 0-tree.
    ``word`` is the label tuple described in the module docstring and
    ``size`` the number of internal vertices (the level n).
    """

    __slots__ = ("left", "right", "word", "size")

    def __init__(self, left: "Tree | None" = None, right: "Tree | None" = None):
        if (left is None) != (right is None):
            raise ValueError("a tree has either two subtrees or none")
        self.left = left
        self.right = right
        if left is None:
            self.word: tuple[int, ...] = ()
            self.size = 0
        else:
            p = left.size
            self.word = left.word + (p + right.size + 1,) + tuple(x + p for x in right.word)
            self.size = p + right.size + 1

    def is_leaf(self) -> bool:
        return self.left is None

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __repr__(self) -> str:
        return f"Tree{list(self.word)}"


LEAF = Tree()


def graft(a: Tree, b: Tree) -> Tree:
    """Join two trees under a new root: Y(p) x Y(q) -> Y(p+q+1)."""
    return Tree(a, b)


def catalan(n: int) -> int:
    return factorial(2 * n) // (factorial(n) * factorial(n + 1))


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[Tree, ...]:
    """All trees of Y(n), in ascending lexicographic word order.

    The order is the canonical one used for every matrix layout in the
    engine, so it must never change.
    """
    if n < 0:
        raise ValueError("tree level must be non-negative")
    check_level(n)
    if n == 0:
        return (LEAF,)
    trees = [
        graft(a, b)
        for p in range(n)
        for a in enumerate_trees(p)
        for b in enumerate_trees(n - 1 - p)
    ]
    trees.sort(key=lambda t: t.word)
    return tuple(trees)


@lru_cache(maxsize=None)
def tree_index(n: int) -> dict[tuple[int, ...], int]:
    """word -> position in the canonical order of Y(n)."""
    return {t.word: i for i, t in enumerate(enumerate_trees(n))}


@lru_cache(maxsize=None)
def face_table(n: int) -> tuple[tuple[tuple[int, LeafOrientation], ...], ...]:
    """For each tree y of Y(n) and each leaf i of y: (position of face(i, y)
    in Y(n-1), leaf_orientation(i, y)), in canonical order."""
    if n < 1:
        raise ValueError("the 0-tree has no faces")
    below = tree_index(n - 1)
    return tuple(tuple((below[face(i, y).word], leaf_orientation(i, y)) for i in range(n + 1))
                 for y in enumerate_trees(n))


def tree_from_word(word) -> Tree:
    """Decode a word back into a tree; inverse of ``Tree.word``."""
    word = tuple(word)
    n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"word must contain each of 1..{n} exactly once: {list(word)}")
    tree = _decode(word)
    if tree.word != word:   # some left subword is not a permutation of 1..p
        raise ValueError(f"not a valid tree word: {list(word)}")
    return tree


def _decode(word: tuple[int, ...]) -> Tree:
    """The tree rooted at the largest label, with the parts on either side as subtrees."""
    if not word:
        return LEAF
    pos = word.index(max(word))
    return Tree(_decode(word[:pos]), _decode(word[pos + 1:]))


def mirror(y: Tree) -> Tree:
    """Left-right reflection of a tree (an involution on each Y(n))."""
    if y.is_leaf():
        return y
    return Tree(mirror(y.right), mirror(y.left))


def face(i: int, y: Tree) -> Tree:
    """Remove leaf i (and its parent vertex): Y(n) -> Y(n-1).

    Faces satisfy face(i, face(j, y)) = face(j-1, face(i, y)) for i < j.
    """
    n = y.size
    if n < 1:
        raise ValueError("the 0-tree has no faces")
    if not 0 <= i <= n:
        raise IndexError(f"leaf index {i} out of range for an {n}-tree")
    return _face(i, y)


def _face(i: int, y: Tree) -> Tree:
    p = y.left.size
    if i <= p:
        if y.left.is_leaf():  # i == 0: drop the root as well
            return y.right
        return Tree(_face(i, y.left), y.right)
    if y.right.is_leaf():  # i == n: rightmost leaf hangs off the root
        return y.left
    return Tree(y.left, _face(i - p - 1, y.right))


def degeneracy(i: int, y: Tree) -> Tree:
    """Bifurcate leaf i into a cherry: Y(n) -> Y(n+1)."""
    n = y.size
    if not 0 <= i <= n:
        raise IndexError(f"leaf index {i} out of range for an {n}-tree")
    if y.is_leaf():
        return Tree(LEAF, LEAF)
    p = y.left.size
    if i <= p:
        return Tree(degeneracy(i, y.left), y.right)
    return Tree(y.left, degeneracy(i - p - 1, y.right))


def leaf_orientation(i: int, y: Tree) -> LeafOrientation:
    """Orientation of leaf i of y, selecting ⊣ (LEFT) or ⊢ (RIGHT).

    For an inner leaf (0 < i < n) the orientation records which way the
    leaf points from its vertex: LEFT exactly when word[i-1] > word[i].
    The boundary leaves always point outward, so there the root decides:
    leaf 0 is LEFT exactly when the left subtree of the root is a leaf,
    and leaf n is RIGHT exactly when the right subtree is a leaf.  This
    pair of boundary rules is the unique one under which the coboundary
    squares to zero.
    """
    n = y.size
    if n < 1:
        raise ValueError("the 0-tree has no oriented leaves")
    if not 0 <= i <= n:
        raise IndexError(f"leaf index {i} out of range for an {n}-tree")
    if i == 0:
        return LeafOrientation.LEFT if y.left.is_leaf() else LeafOrientation.RIGHT
    if i == n:
        return LeafOrientation.RIGHT if y.right.is_leaf() else LeafOrientation.LEFT
    w = y.word
    return LeafOrientation.LEFT if w[i - 1] > w[i] else LeafOrientation.RIGHT
