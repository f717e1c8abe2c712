"""Finite oriented groups and their actions on dialgebras.

An oriented group is a finite group G together with a sign homomorphism
ε: G -> {±1}.  Groups are handled purely by multiplication table, with the
identity fixed at index 0.  An oriented dialgebra is a dialgebra carrying
a G-module structure (one invertible matrix per element) whose
compatibility with the products is twisted by ε: elements of sign +1 act
by product-preserving maps, elements of sign -1 reverse the arguments of
both products:

    g(x ⊣ y) = gx ⊣ gy          if ε(g) = +1
    g(x ⊣ y) = gy ⊣ gx          if ε(g) = -1

and the same for ⊢.  With ε identically +1 this is the plain equivariant
condition.
"""

from __future__ import annotations

from itertools import permutations, product

from .dialgebra import (
    Check,
    Dialgebra,
    Report,
    _differing,
    _identity,
    _intertwining,
    _matmul,
    _scaled_maps,
    _scaled_products,
    _side_by_side,
)
from .linalg import ShapeMismatchError, rank


class NoInverseError(ValueError):
    """A group element has no inverse in the multiplication table."""

    def __init__(self, element):
        self.witness = element
        super().__init__(f"group element {element} has no inverse")


class OrientedGroup:
    """A finite group by multiplication table plus a sign character.

    ``table[a][b]`` is the index of the product ab; index 0 is the
    identity.  ``epsilon`` lists the sign of each element.  ``inverse[a]``
    is the first b with ab = 0, or -1 when the table has none; ``inv``
    refuses such an element.
    """

    __slots__ = ("order", "table", "epsilon", "inverse")

    def __init__(self, table, epsilon):
        self.order = len(table)
        self.table = [list(row) for row in table]
        if any(len(row) != self.order for row in self.table):
            raise ShapeMismatchError(f"table must be {self.order}x{self.order}")
        self.epsilon = list(epsilon)
        if len(self.epsilon) != self.order:
            raise ValueError("epsilon must assign a sign to every element")
        self.inverse = [-1] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.table[a][b] == 0:
                    self.inverse[a] = b
                    break

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        b = self.inverse[a]
        if b < 0:
            raise NoInverseError(a)
        return b

    def sign(self, a: int) -> int:
        return self.epsilon[a]

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self):
        return f"OrientedGroup(order={self.order})"


def trivial_group() -> OrientedGroup:
    return OrientedGroup([[0]], [1])


def sign_group() -> OrientedGroup:
    """The two-element group {+1, -1} with ε the identity character."""
    return OrientedGroup([[0, 1], [1, 0]], [1, -1])


def symmetric_group(n: int) -> OrientedGroup:
    """S_n with ε the sign of the permutation; identity first."""
    elems = sorted(permutations(range(n)))  # identity is lexicographically first
    index = {p: i for i, p in enumerate(elems)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in elems]
        for p in elems
    ]
    eps = [_perm_sign(p) for p in elems]
    return OrientedGroup(table, eps)


def _perm_sign(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def check_oriented_group(G: OrientedGroup) -> Report:
    """Group axioms plus the homomorphism property of ε, with witnesses.

    Witnesses are elements or tuples of elements.  When a table entry is
    not an element index, only that check is reported.
    """
    n, T, eps = G.order, G.table, G.epsilon
    pairs = list(product(range(n), repeat=2))
    closure = Check.first("table entries are element indices",
                          ((a, b) for a, b in pairs if not 0 <= T[a][b] < n))
    if not closure.ok:
        return Report([closure])
    values = Check.first("epsilon takes values in {+1, -1}",
                         (a for a in range(n) if eps[a] not in (1, -1)))
    return Report([
        closure,
        Check.first("index 0 is a two-sided identity",
                    (a for a in range(n) if T[0][a] != a or T[a][0] != a)),
        Check.first("multiplication is associative",
                    ((a, b, c) for a, b, c in product(range(n), repeat=3)
                     if T[T[a][b]][c] != T[a][T[b][c]])),
        Check.first("every element has an inverse",
                    (a for a, b in enumerate(G.inverse) if b < 0 or T[a][b] != 0 or T[b][a] != 0)),
        values,
        Check.first("epsilon is a homomorphism",
                    ((a, b) for a, b in pairs if values.ok and eps[T[a][b]] != eps[a] * eps[b])),
    ])


class OrientedDialgebra:
    """A dialgebra with an oriented group acting on it.

    ``action[g]`` is the matrix of the action of element g.  Use
    ``check_oriented_dialgebra`` to verify the module and twisted
    compatibility laws; the constructor only checks shapes.
    """

    __slots__ = ("base", "group", "action")

    def __init__(self, base: Dialgebra, group: OrientedGroup, action):
        self.base = base
        self.group = group
        self.action = list(action)
        if len(self.action) != group.order:
            raise ShapeMismatchError("one action matrix per group element required")
        for m in self.action:
            if m.shape() != (base.dim, base.dim):
                raise ShapeMismatchError(f"action matrices must be {base.dim}x{base.dim}")

    @property
    def dim(self) -> int:
        return self.base.dim

    def sign(self, g: int) -> int:
        return self.group.sign(g)

    def __repr__(self):
        return f"OrientedDialgebra(dim={self.dim}, group_order={self.group.order})"


def _law_sides(G: OrientedGroup, left: list, right: list, Phi: list, nP: int, powers) -> list:
    """Both sides of the group laws of an oriented dialgebra, at the given powers of t.

    ``left`` and ``right`` are integer tensor series over one common
    denominator nL, and ``Phi[g]`` is an integer matrix series for each
    element g, over one common denominator nP; a structure is a series of
    length one.  Returns (lhs, rhs) per law, each side a list over
    ``powers`` of flat tables, in this order:

    * the composition law nP·Φ(gh) against Φ(g)Φ(h), over
      (g, h, row, column), over nP²;
    * the ε-twisted law of ⊣ and then of ⊢: nP·Φ(g)(x ∘ y) against
      Φ(g)x ∘ Φ(g)y, or Φ(g)y ∘ Φ(g)x when ε(g) = -1, over
      (g, x, y, output), over nL·nP².

    The Cauchy sums run over ``powers`` only, so power 0 checks a
    structure, powers 0..N a deformation of order N, and power 1 alone the
    degree-1 cocycle equations (``cohomology.degree1_residuals``).  The
    five dialgebra axioms are ``dialgebra._axiom_sides``; the callers that
    check them as well put them first.
    """
    elements, d = G.elements(), len(left[0])
    composition = ([], [])
    for n in powers:
        # row block i holds every Φ_(n-i)(h) side by side, so that one product
        # per g gives Σ_i Φ_i(g)Φ_(n-i)(h) for every h
        below = [[x for h in elements for x in Phi[h][n - i][k]]
                 for i in range(n + 1) for k in range(d)]
        rhs = []
        for g in elements:
            wide = _matmul([[x for i in range(n + 1) for x in Phi[g][i][k]] for k in range(d)],
                           below)
            rhs += [x for h in elements for row in wide for x in row[h * d:(h + 1) * d]]
        composition[0].append([nP * x for g in elements for h in elements
                               for row in Phi[G.mul(g, h)][n] for x in row])
        composition[1].append(rhs)
    sides = [composition]
    both = _side_by_side(left, right)   # one pass moves ⊣ and ⊢
    twisted = [_intertwining(Phi[g], both, both, G.sign(g) != 1, nP, powers) for g in elements]

    def half(table: list, f: int) -> list:
        # the ⊣ (f = 0) or ⊢ (f = 1) part of every output
        return [x for c in range(f * d, len(table), 2 * d) for x in table[c:c + d]]

    for f in (0, 1):
        sides.append(tuple([[x for per_g in twisted for x in half(per_g[s][p], f)]
                            for p in range(len(powers))] for s in (0, 1)))
    return sides


def check_oriented_dialgebra(OD: OrientedDialgebra) -> Report:
    """G-module axioms and the ε-twisted product compatibility, with witnesses.

    Witnesses are group elements, pairs (g, h), or (g, i, j) for the basis
    pair (e_i, e_j) on which g breaks a product.  The composition and
    twisted laws are power 0 of ``_law_sides``, in integers: nL is the
    common denominator of the products and nP of the action matrices.
    """
    G = OD.group
    D = OD.base
    d = D.dim
    _, (left, right) = _scaled_products(D)
    P, nP = _scaled_maps(OD.action)
    composition, *twisted = _law_sides(G, [left], [right], [[p] for p in P], nP, [0])
    ident = P[0] == [[nP * x for x in row] for row in _identity(d)]
    return Report([
        Check("identity acts as the identity matrix", ident, None if ident else 0),
        Check.first("action is a group homomorphism",
                    _differing(composition[0][0], composition[1][0], G.order, G.order)),
        Check.first("action matrices are invertible",
                    (g for g in G.elements() if rank(OD.action[g]) != D.dim)),
        *(Check.first(f"twisted compatibility of the {name} product",
                      _differing(lhs[0], rhs[0], G.order, d, d))
          for name, (lhs, rhs) in zip(("left", "right"), twisted)),
    ])
