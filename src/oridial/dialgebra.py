"""Finite-dimensional dialgebras given by structure constants.

A dialgebra is a vector space with two associative products, written ⊣
(left) and ⊢ (right), tied together by three mixed axioms:

    (x ⊣ y) ⊣ z = x ⊣ (y ⊢ z)
    (x ⊢ y) ⊣ z = x ⊢ (y ⊣ z)
    (x ⊣ y) ⊢ z = (x ⊢ y) ⊢ z

Products are stored as d x d x d structure-constant tensors indexed
``T[i][j][k]`` = coefficient of e_k in e_i ∘ e_j; this ordering is part of
the JSON file format.  All five axioms are multilinear, so checking them
on basis triples is exhaustive.

``check_axioms`` evaluates them in integers: both products are scaled once
by their common denominator nL, each side of an axiom is an integer table
of compositions over basis triples, and both sides are over nL².  The
integer helpers below are the one arithmetic of the engine outside
elimination.  They serve every structure checker, here and in
``oriented``, ``extensions`` and ``deformations``, the ``from_*``
constructors and ``is_morphism``, the explicit degree-1 equations of
``cohomology``, extraction and the transports.  A
computed structure becomes rational only when it leaves (``linalg._rational``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm, prod
from operator import add

from .linalg import Matrix, ShapeMismatchError, _rational, normalize_scalar


class NotAssociativeError(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"product is not associative at basis triple {witness}")


class NotDerivationError(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"map is not a derivation at basis pair {witness}")


class NotSquareZeroError(ValueError):
    def __init__(self):
        super().__init__("differential does not square to zero")


class NotBimoduleError(ValueError):
    def __init__(self, law, witness):
        self.law = law
        self.witness = witness
        super().__init__(f"bimodule law {law!r} fails at {witness}")


class NotBimoduleMapError(ValueError):
    def __init__(self, law, witness):
        self.law = law
        self.witness = witness
        super().__init__(f"bimodule-map law {law!r} fails at {witness}")


class AxiomFailureError(ValueError):
    def __init__(self, report):
        self.report = report
        first = report.failures()[0]
        super().__init__(f"dialgebra axiom {first.name!r} fails at {first.witness}")


def validated_tensor(dim: int, data) -> list[list[list]]:
    """Normalize a d x d x d structure-constant tensor."""
    if len(data) != dim:
        raise ShapeMismatchError(f"tensor must have {dim} slices")
    out = []
    for plane in data:
        if len(plane) != dim:
            raise ShapeMismatchError(f"tensor slice must have {dim} rows")
        new_plane = []
        for row in plane:
            if len(row) != dim:
                raise ShapeMismatchError(f"tensor rows must have length {dim}")
            new_plane.append([normalize_scalar(x) for x in row])
        out.append(new_plane)
    return out


def zero_tensor(dim: int) -> list[list[list]]:
    return [[[0] * dim for _ in range(dim)] for _ in range(dim)]


@dataclass(frozen=True)
class Check:
    """One clause of a definition: whether it holds and, if not, a witness.

    A witness names where the clause fails, as basis indices, group
    elements or labelled residuals, in the form its checker documents.
    """

    name: str
    ok: bool
    witness: object = None

    @classmethod
    def first(cls, name: str, failing) -> "Check":
        """Fails at the first witness ``failing`` yields; holds if it yields none.

        ``failing`` is iterated lazily, so a generator stops at its first
        witness.
        """
        for witness in failing:
            return cls(name, False, witness)
        return cls(name, True)


@dataclass(frozen=True)
class Report:
    """The checks of one checker, in a fixed order."""

    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]


class Dialgebra:
    """Structure constants for the two products of a dialgebra.

    The constructor does not verify the axioms (checkers need to be able
    to build broken candidates); use ``check_axioms`` or the ``from_*``
    constructors, which do.
    """

    __slots__ = ("dim", "left", "right")

    def __init__(self, dim: int, left, right):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self.left = validated_tensor(dim, left)
        self.right = validated_tensor(dim, right)

    def __eq__(self, other):
        return (
            isinstance(other, Dialgebra)
            and self.dim == other.dim
            and self.left == other.left   # exact scalars compare exactly
            and self.right == other.right
        )

    def __repr__(self):
        return f"Dialgebra(dim={self.dim})"


# ---------------------------------------------------------------------------
# integer evaluation
#
# Every structure checker evaluates its laws in Python ints.  It scales each
# input once by the least common denominator of its entries (``_scaled``),
# builds both sides of each law as integer tables over basis tuples, and
# compares the numerators over one denominator per law.  A valid structure
# is therefore checked without building a Fraction.  The constructors,
# transports and coboundaries that compute a structure do the same and
# divide each numerator by its denominator last.  A tensor or a table of
# a bilinear map on basis pairs is nested [x][y][output], a matrix a list of
# rows, and a flat table lists its cells in lexicographic order, each cell
# an output vector.


def _denominator(scalars) -> int:
    """The least common denominator of exact scalars."""
    return lcm(*{x.denominator for x in scalars})


def _scaled_rows(rows, n: int) -> list:
    """Rows of scalars times their common denominator n, as ints."""
    return [[x.numerator * (n // x.denominator) for x in row] for row in rows]


def _scaled(T, n: int) -> list:
    """A d×d×d tensor times its common denominator n, as ints."""
    return [_scaled_rows(plane, n) for plane in T]


def _scaled_products(*algebras) -> tuple:
    """nL, the common denominator of the products of ``algebras``, then each
    algebra's [⊣, ⊢] times nL, as ints."""
    n = _denominator(_flat([T for A in algebras for T in (*A.left, *A.right)]))
    return n, *([_scaled(A.left, n), _scaled(A.right, n)] for A in algebras)


def _scaled_maps(matrices) -> tuple:
    """``Matrix`` values times their common denominator n, as (integer rows, n)."""
    n = _denominator(x for m in matrices for x in m.entries)
    return [_scaled_rows(m.to_rows(), n) for m in matrices], n


def _rows(flat: list, w: int) -> list:
    """A flat list cut into rows of width w."""
    return [flat[c:c + w] for c in range(0, len(flat), w)]


def _tensor(flat: list, d: int, den: int) -> list:
    """A flat integer table over (x, y, output) over den, as a d×d×d tensor."""
    return _rows(_rows([_rational(x, den) for x in flat], d), d)


def _identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(X, Y) -> list:
    """X·Y on integer matrices given by rows, skipping the zero entries of X."""
    width = len(Y[0]) if Y else 0
    out = []
    for row in X:
        acc = None
        for a, y in zip(row, Y):
            if a:
                acc = [a * v for v in y] if acc is None else [s + a * v for s, v in zip(acc, y)]
        out.append(acc or [0] * width)
    return out


def _flat(blocks) -> list:
    """The entries of a list of matrices, block by block, row by row."""
    return [x for block in blocks for row in block for x in row]


def _pairs(T) -> list:
    """A d×d×d tensor as the d²×d matrix with rows T[i][j], i major."""
    return [row for plane in T for row in plane]


def _last_two(T) -> list:
    """A d×d×d tensor as the d×d² matrix whose row i is T[i] flattened."""
    return [[x for row in plane for x in row] for plane in T]


def _x_yz(outer: list, inner: list) -> list:
    """outer(x, inner(y, z)) on basis triples, flat over (x, y, z, output)."""
    return _flat(_matmul(_pairs(inner), plane) for plane in outer)


def _xy_z(outer: list, inner: list) -> list:
    """outer(inner(x, y), z) on basis triples, flat over (x, y, z, output)."""
    return _flat([_matmul(_pairs(inner), _last_two(outer))])


def _on_first(T: list, Q) -> list:
    """T(Qx, e_b), flat over (x, b, output); x runs over Q's columns."""
    return _flat([_matmul(list(zip(*Q)), _last_two(T))])


def _on_second(first: list, R, w: int) -> list:
    """T(Qx, Ry) from ``_on_first``'s T(Qx, e_b), nested [x][y][output].

    y runs over R's columns, and an output vector has width w.
    """
    Rt = list(zip(*R))
    step = len(R) * w
    return [_matmul(Rt, [first[c:c + w] for c in range(x, x + step, w)])
            for x in range(0, len(first), step)]


def _on_inputs(T: list, Q, R) -> list:
    """T(Qx, Ry) on basis pairs (x, y), nested [x][y][output]."""
    return _on_second(_on_first(T, Q), R, len(T[0][0]))


def _valued(M, table: list) -> list:
    """M applied to every output vector of a nested table."""
    Mt = list(zip(*M))
    return [_matmul(block, Mt) for block in table]


def _interleaved(tables: list, cells: int) -> list:
    """Flat tables of ``cells`` cells each, merged cell by cell."""
    w = len(tables[0]) // cells
    return [x for c in range(0, cells * w, w) for t in tables for x in t[c:c + w]]


def _differing(lhs: list, rhs: list, *shape):
    """The cells, as index tuples over ``shape``, where two flat tables differ, in order."""
    if lhs == rhs:
        return
    w = len(lhs) // prod(shape)
    for c, idx in enumerate(product(*map(range, shape))):
        if lhs[c * w:(c + 1) * w] != rhs[c * w:(c + 1) * w]:
            yield idx


def _cauchy(compose, A: list, B: list, powers=None) -> list:
    """Σ_{i+j=n} compose(A_i, B_j) per power n of two series; compose returns flat tables.

    ``powers`` lists the powers n to sum, by default every power of A.
    """
    out = []
    for n in range(len(A)) if powers is None else powers:
        acc = compose(A[0], B[n])
        for i in range(1, n + 1):
            acc = list(map(add, acc, compose(A[i], B[n - i])))
        out.append(acc)
    return out


def _on_both(T: list, P: list, swap: bool = False, powers=None) -> list:
    """T(Px, Py) per power of t, for a tensor series T and a matrix series P.

    Each power in ``powers`` (by default every power) is a flat table over
    (x, y, output); x and y run over P's columns.  With ``swap`` the table
    holds T(Py, Px).
    """
    w = len(T[0][0][0])
    powers = range(len(T)) if powers is None else powers
    # T_i(P_j x, e_b) summed over i + j, then the second argument moved too
    first = _cauchy(_on_first, T, P, range(max(powers, default=-1) + 1))

    def second(f, p):
        moved = _on_second(f, p, w)
        return _flat(zip(*moved) if swap else moved)
    return _cauchy(second, first, P, powers)


def _side_by_side(left: list, right: list) -> list:
    """Two tensor series as one whose every output holds the ⊣ vector, then the ⊢ one."""
    return [[[a + b for a, b in zip(pl, pr)] for pl, pr in zip(L, R)] for L, R in zip(left, right)]


def _intertwining(P: list, inner: list, outer: list, swap: bool, nP: int, powers=None):
    """Both sides of P(inner(x, y)) = outer(Px, Py) per power of t.

    P is an integer matrix series with common denominator nP, inner and
    outer are integer tensor series with one common denominator.  P may
    map between spaces of different dimensions, and an output of inner or
    outer may hold several vectors side by side (P moves each).  Each side
    is a list over ``powers`` (by default every power) of flat tables over
    (x, y, output); the left one is multiplied by nP, so that both are over
    the same denominator.  With ``swap`` the right side is outer(Py, Px).
    A structure is a series of length one.
    """
    w = len(P[0][0])

    def moved(p, T):
        return [nP * x for x in _flat([_matmul(_rows(_flat(T), w), list(zip(*p)))])]
    return _cauchy(moved, P, inner, powers), _on_both(outer, P, swap, powers)


# The five defining axioms as (name, lhs, rhs).  A side is a composition
# (_xy_z or _x_yz, outer, inner) of the products 0 = ⊣ and 1 = ⊢;
# deformations run the same sides over power series.
_AXIOMS = [
    ("left-associativity: (x<y)<z = x<(y<z)", (_xy_z, 0, 0), (_x_yz, 0, 0)),
    ("right-associativity: (x>y)>z = x>(y>z)", (_xy_z, 1, 1), (_x_yz, 1, 1)),
    ("mixed: (x<y)<z = x<(y>z)", (_xy_z, 0, 0), (_x_yz, 0, 1)),
    ("mixed: (x>y)<z = x>(y<z)", (_xy_z, 0, 1), (_x_yz, 1, 0)),
    ("mixed: (x<y)>z = (x>y)>z", (_xy_z, 1, 0), (_xy_z, 1, 1)),
]


def _axiom_sides(left: list, right: list, powers=None) -> list:
    """(lhs, rhs) of every axiom for two series of integer product tensors.

    Each side is a list over ``powers`` of t (by default every power) of
    flat tables over (x, y, z, output): the truncated Cauchy sum of the
    compositions of the outer coefficients with the inner ones.  A pair of
    tensors is a series of length one.
    """
    series = (left, right)
    sides = {}

    def side(spec):
        if spec not in sides:
            compose, outer, inner = spec
            sides[spec] = _cauchy(compose, series[outer], series[inner], powers)
        return sides[spec]
    return [(side(lhs), side(rhs)) for _, lhs, rhs in _AXIOMS]


def check_axioms(D: Dialgebra) -> Report:
    """Evaluate all five axioms on every basis triple.

    A failing axiom's witness is its first bad triple (i, j, k);
    multilinearity makes the basis check exhaustive.  Both sides of every
    axiom are over nL², nL the common denominator of the two products.
    """
    d = D.dim
    _, (left, right) = _scaled_products(D)
    sides = _axiom_sides([left], [right])
    return Report([Check.first(name, _differing(lhs[0], rhs[0], d, d, d))
                   for (name, _, _), (lhs, rhs) in zip(_AXIOMS, sides)])


def _check_associative(dim: int, mult) -> None:
    T = _scaled(mult, _denominator(_flat(mult)))
    for witness in _differing(_xy_z(T, T), _x_yz(T, T), dim, dim, dim):
        raise NotAssociativeError(witness)


def _checked(D: Dialgebra) -> Dialgebra:
    """D itself once all five axioms hold."""
    report = check_axioms(D)
    if not report.ok:
        raise AxiomFailureError(report)
    return D


def from_associative(mult) -> Dialgebra:
    """Dialgebra with both products equal to one associative product."""
    dim = len(mult)
    mult = validated_tensor(dim, mult)
    _check_associative(dim, mult)
    return _checked(Dialgebra(dim, mult, mult))


def from_differential(mult, diff: Matrix) -> Dialgebra:
    """Dialgebra x ⊣ y = x·d(y), x ⊢ y = d(x)·y from a square-zero derivation d.

    With the product over nM and d over nD, every table is over nM·nD.
    """
    dim = len(mult)
    mult = validated_tensor(dim, mult)
    _check_associative(dim, mult)
    if diff.shape() != (dim, dim):
        raise ShapeMismatchError(f"differential must be {dim}x{dim}")
    nM, ((dm,), nD) = _denominator(_flat(mult)), _scaled_maps([diff])
    T, one = _scaled(mult, nM), _identity(dim)
    left = _flat(_on_inputs(T, one, dm))     # x·dy
    right = _flat(_on_inputs(T, dm, one))    # dx·y
    # d(x·y) = dx·y + x·dy on basis pairs
    for witness in _differing(_flat(_valued(dm, T)), [a + b for a, b in zip(left, right)],
                              dim, dim):
        raise NotDerivationError(witness)
    if any(_flat([_matmul(dm, dm)])):
        raise NotSquareZeroError()
    return _checked(Dialgebra(dim, _tensor(left, dim, nM * nD), _tensor(right, dim, nM * nD)))


def _has_shape(T, *shape) -> bool:
    """Is T nested lists of the given lengths, outermost first?"""
    return not shape or (len(T) == shape[0] and all(_has_shape(x, *shape[1:]) for x in T))


def from_bimodule_map(a_mult, m_actions, f: Matrix) -> Dialgebra:
    """Dialgebra on a bimodule M via a bimodule map f: M -> A.

    ``m_actions`` is the pair (left action tensor dA x dM x dM, right
    action tensor dM x dA x dM); the products are x ⊣ y = x·f(y) and
    x ⊢ y = f(x)·y.  All bimodule laws and the map laws are verified on
    basis elements first.  A failing law's witness is the first basis
    tuple in the order (a, b, m) for the bimodule laws and (a, m) for the
    map laws, each written in the order of its law's variables; at one
    tuple the laws are tried in the order listed.  The product and both
    actions share one common denominator nT, and f has its own nF.
    """
    da = len(a_mult)
    a_mult = validated_tensor(da, a_mult)
    _check_associative(da, a_mult)
    act_l, act_r = m_actions
    dm = len(act_l[0])
    if f.shape() != (da, dm):
        raise ShapeMismatchError(f"bimodule map must be {da}x{dm}")
    if not (_has_shape(act_l, da, dm, dm) and _has_shape(act_r, dm, da, dm)):
        raise ShapeMismatchError(f"actions must be {da}x{dm}x{dm} and {dm}x{da}x{dm}")
    nT = _denominator(_flat([*a_mult, *act_l, *act_r]))
    A, L, R = (_scaled(T, nT) for T in (a_mult, act_l, act_r))
    ((F,), nF), ia, im = _scaled_maps([f]), _identity(da), _identity(dm)

    def first(laws):
        # (law, witness) at the least loop key, the earlier law on a tie
        bad = [(key(w), n, law, w) for n, (law, key, lhs, rhs, shape) in enumerate(laws)
               for w in _differing(lhs, rhs, *shape)]
        return min(bad)[2:] if bad else None

    failure = first([
        ("(ab)m = a(bm)", lambda w: w, _xy_z(L, A), _x_yz(L, L), (da, da, dm)),
        ("(am)b = a(mb)", lambda w: (w[0], w[2], w[1]), _xy_z(R, L), _x_yz(L, R), (da, dm, da)),
        ("(ma)b = m(ab)", lambda w: (w[1], w[2], w[0]), _xy_z(R, R), _x_yz(R, A), (dm, da, da)),
    ])
    if failure:
        raise NotBimoduleError(*failure)
    failure = first([
        ("f(am) = a f(m)", lambda w: w, _flat(_valued(F, L)), _flat(_on_inputs(A, ia, F)),
         (da, dm)),
        ("f(ma) = f(m) a", lambda w: w[::-1], _flat(_valued(F, R)), _flat(_on_inputs(A, F, ia)),
         (dm, da)),
    ])
    if failure:
        raise NotBimoduleMapError(*failure)
    left = _flat(_on_inputs(R, im, F))     # x·f(y)
    right = _flat(_on_inputs(L, F, im))    # f(x)·y
    return _checked(Dialgebra(dm, _tensor(left, dm, nT * nF), _tensor(right, dm, nT * nF)))


def is_morphism(src: Dialgebra, dst: Dialgebra, f: Matrix) -> bool:
    """Does f preserve both products on all basis pairs?"""
    if f.shape() != (dst.dim, src.dim):
        raise ShapeMismatchError(f"morphism matrix must be {dst.dim}x{src.dim}")
    (_, *products), (F, nF) = _scaled_products(src, dst), _scaled_maps([f])
    inner, outer = (_side_by_side([left], [right]) for left, right in products)
    lhs, rhs = _intertwining(F, inner, outer, False, nF)
    return lhs == rhs
