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
integer helpers below serve every structure checker, here and in
``oriented``, ``extensions``, ``deformations`` and the explicit degree-1
equations of ``cohomology``.  ``bilinear`` evaluates a product on
coordinate vectors, for the ``from_*`` constructors, transport and
extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod

from .linalg import Matrix, normalize_scalar


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
        raise ValueError(f"tensor must have {dim} slices")
    out = []
    for plane in data:
        if len(plane) != dim:
            raise ValueError(f"tensor slice must have {dim} rows")
        new_plane = []
        for row in plane:
            if len(row) != dim:
                raise ValueError(f"tensor rows must have length {dim}")
            new_plane.append([normalize_scalar(x) for x in row])
        out.append(new_plane)
    return out


def zero_tensor(dim: int) -> list[list[list]]:
    return [[[0] * dim for _ in range(dim)] for _ in range(dim)]


def bilinear(tensor, x: list, y: list) -> list:
    """Apply a structure-constant tensor to two coordinate vectors."""
    out = {}
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        plane = tensor[i]
        for j, yj in ys:
            # a Fraction operand goes on the left: int op Fraction would go through
            # Fraction's reverse operator, an ABC instance check and a conversion
            coeff = yj if xi == 1 else xi if yj == 1 else (
                xi * yj if type(xi) is Fraction else yj * xi)
            for k, t in enumerate(plane[j]):
                if t:
                    if coeff != 1:
                        t = t * coeff if type(t) is Fraction else coeff * t
                    if k in out:
                        acc = out[k]
                        t = acc + t if type(acc) is Fraction else t + acc
                    out[k] = t
    return [normalize_scalar(out[k]) if k in out else 0 for k in range(len(tensor))]


def basis_vector(dim: int, i: int) -> list:
    v = [0] * dim
    v[i] = 1
    return v


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

    def lmul(self, x: list, y: list) -> list:
        """x ⊣ y on coordinate vectors."""
        return bilinear(self.left, x, y)

    def rmul(self, x: list, y: list) -> list:
        """x ⊢ y on coordinate vectors."""
        return bilinear(self.right, x, y)

    def basis(self) -> list[list]:
        return [basis_vector(self.dim, i) for i in range(self.dim)]

    def __eq__(self, other):
        return (
            isinstance(other, Dialgebra)
            and self.dim == other.dim
            and _tensor_eq(self.left, other.left)
            and _tensor_eq(self.right, other.right)
        )

    def __repr__(self):
        return f"Dialgebra(dim={self.dim})"


def _tensor_eq(a, b) -> bool:
    return all(
        Fraction(x) == Fraction(y)
        for pa, pb in zip(a, b)
        for ra, rb in zip(pa, pb)
        for x, y in zip(ra, rb)
    )


# ---------------------------------------------------------------------------
# integer evaluation
#
# Every structure checker evaluates its laws in Python ints.  It scales each
# input once by the least common denominator of its entries (``_scaled``),
# builds both sides of each law as integer tables over basis tuples, and
# compares the numerators over one denominator per law.  A valid structure
# is therefore checked without building a Fraction.  A tensor or a table of
# a bilinear map on basis pairs is nested [x][y][output], a matrix a list of
# rows, and a flat table lists its cells in lexicographic order, each cell
# an output vector.


def _denominator(scalars) -> int:
    """The least common denominator of exact scalars."""
    n = 1
    for x in scalars:
        if x.denominator != 1:
            n = lcm(n, x.denominator)
    return n


def _scaled_rows(rows, n: int) -> list:
    """Rows of scalars times their common denominator n, as ints."""
    return [[x.numerator * (n // x.denominator) for x in row] for row in rows]


def _scaled(T, n: int) -> list:
    """A d×d×d tensor times its common denominator n, as ints."""
    return [_scaled_rows(plane, n) for plane in T]


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


def _on_second(first: list, R, d: int) -> list:
    """T(Qx, Ry) from ``_on_first``'s T(Qx, e_b), nested [x][y][output]; y runs over R's columns."""
    Rt = list(zip(*R))
    return [_matmul(Rt, [first[c:c + d] for c in range(x, x + d * d, d)])
            for x in range(0, len(first), d * d)]


def _on_inputs(T: list, Q, R) -> list:
    """T(Qx, Ry) on basis pairs (x, y), nested [x][y][output]."""
    return _on_second(_on_first(T, Q), R, len(T))


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


def _cauchy(compose, A: list, B: list) -> list:
    """Σ_{i+j=n} compose(A_i, B_j) per power n of two series; compose returns flat tables."""
    out = []
    for n in range(len(A)):
        tables = [compose(A[i], B[n - i]) for i in range(n + 1)]
        out.append(tables[0] if n == 0 else [sum(col) for col in zip(*tables)])
    return out


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


def _axiom_sides(left: list, right: list) -> list:
    """(lhs, rhs) of every axiom for two series of integer product tensors.

    Each side is a list over powers of t of flat tables over (x, y, z,
    output): the truncated Cauchy sum of the compositions of the outer
    coefficients with the inner ones.  A pair of tensors is a series of
    length one.
    """
    series = (left, right)
    sides = {}

    def side(spec):
        if spec not in sides:
            compose, outer, inner = spec
            sides[spec] = _cauchy(compose, series[outer], series[inner])
        return sides[spec]
    return [(side(lhs), side(rhs)) for _, lhs, rhs in _AXIOMS]


def check_axioms(D: Dialgebra) -> Report:
    """Evaluate all five axioms on every basis triple.

    A failing axiom's witness is its first bad triple (i, j, k);
    multilinearity makes the basis check exhaustive.  Both sides of every
    axiom are over nL², nL the common denominator of the two products.
    """
    d = D.dim
    n = _denominator(_flat([*D.left, *D.right]))
    sides = _axiom_sides([_scaled(D.left, n)], [_scaled(D.right, n)])
    return Report([Check.first(name, _differing(lhs[0], rhs[0], d, d, d))
                   for (name, _, _), (lhs, rhs) in zip(_AXIOMS, sides)])


def _check_associative(dim: int, mult) -> None:
    T = _scaled(mult, _denominator(_flat(mult)))
    for witness in _differing(_xy_z(T, T), _x_yz(T, T), dim, dim, dim):
        raise NotAssociativeError(witness)


def from_associative(mult) -> Dialgebra:
    """Dialgebra with both products equal to one associative product."""
    dim = len(mult)
    mult = validated_tensor(dim, mult)
    _check_associative(dim, mult)
    D = Dialgebra(dim, mult, mult)
    report = check_axioms(D)
    if not report.ok:
        raise AxiomFailureError(report)
    return D


def from_differential(mult, diff: Matrix) -> Dialgebra:
    """Dialgebra x ⊣ y = x·d(y), x ⊢ y = d(x)·y from a square-zero derivation d."""
    dim = len(mult)
    mult = validated_tensor(dim, mult)
    _check_associative(dim, mult)
    if diff.shape() != (dim, dim):
        raise ValueError(f"differential must be {dim}x{dim}")
    basis = [basis_vector(dim, i) for i in range(dim)]
    for i, x in enumerate(basis):
        dx = diff.matvec(x)
        for j, y in enumerate(basis):
            dy = diff.matvec(y)
            lhs = diff.matvec(bilinear(mult, x, y))
            rhs = [normalize_scalar(a + b)
                   for a, b in zip(bilinear(mult, dx, y), bilinear(mult, x, dy))]
            if lhs != rhs:
                raise NotDerivationError((i, j))
    if not diff.mul(diff).is_zero():
        raise NotSquareZeroError()
    left = [[bilinear(mult, basis[i], diff.matvec(basis[j])) for j in range(dim)]
            for i in range(dim)]
    right = [[bilinear(mult, diff.matvec(basis[i]), basis[j]) for j in range(dim)]
             for i in range(dim)]
    D = Dialgebra(dim, left, right)
    report = check_axioms(D)
    if not report.ok:
        raise AxiomFailureError(report)
    return D


def from_bimodule_map(a_mult, m_actions, f: Matrix) -> Dialgebra:
    """Dialgebra on a bimodule M via a bimodule map f: M -> A.

    ``m_actions`` is the pair (left action tensor dA x dM x dM, right
    action tensor dM x dA x dM); the products are x ⊣ y = x·f(y) and
    x ⊢ y = f(x)·y.  All bimodule laws and the map laws are verified on
    basis elements first.
    """
    da = len(a_mult)
    a_mult = validated_tensor(da, a_mult)
    _check_associative(da, a_mult)
    act_l, act_r = m_actions
    dm = len(act_l[0])
    if f.shape() != (da, dm):
        raise ValueError(f"bimodule map must be {da}x{dm}")

    def lact(a, m):
        return bilinear(act_l, a, m)

    def ract(m, a):
        return bilinear(act_r, m, a)

    abasis = [basis_vector(da, i) for i in range(da)]
    mbasis = [basis_vector(dm, i) for i in range(dm)]
    for i, a in enumerate(abasis):
        for j, b in enumerate(abasis):
            ab = bilinear(a_mult, a, b)
            for k, m in enumerate(mbasis):
                if lact(ab, m) != lact(a, lact(b, m)):
                    raise NotBimoduleError("(ab)m = a(bm)", (i, j, k))
                if ract(lact(a, m), b) != lact(a, ract(m, b)):
                    raise NotBimoduleError("(am)b = a(mb)", (i, k, j))
                if ract(ract(m, a), b) != ract(m, ab):
                    raise NotBimoduleError("(ma)b = m(ab)", (k, i, j))
    for i, a in enumerate(abasis):
        for k, m in enumerate(mbasis):
            if f.matvec(lact(a, m)) != bilinear(a_mult, a, f.matvec(m)):
                raise NotBimoduleMapError("f(am) = a f(m)", (i, k))
            if f.matvec(ract(m, a)) != bilinear(a_mult, f.matvec(m), a):
                raise NotBimoduleMapError("f(ma) = f(m) a", (k, i))
    left = [[ract(mbasis[i], f.matvec(mbasis[j])) for j in range(dm)] for i in range(dm)]
    right = [[lact(f.matvec(mbasis[i]), mbasis[j]) for j in range(dm)] for i in range(dm)]
    D = Dialgebra(dm, left, right)
    report = check_axioms(D)
    if not report.ok:
        raise AxiomFailureError(report)
    return D


def is_morphism(src: Dialgebra, dst: Dialgebra, f: Matrix) -> bool:
    """Does f preserve both products on all basis pairs?"""
    if f.shape() != (dst.dim, src.dim):
        raise ValueError(f"morphism matrix must be {dst.dim}x{src.dim}")
    for x in src.basis():
        fx = f.matvec(x)
        for y in src.basis():
            fy = f.matvec(y)
            if f.matvec(src.lmul(x, y)) != dst.lmul(fx, fy):
                return False
            if f.matvec(src.rmul(x, y)) != dst.rmul(fx, fy):
                return False
    return True
