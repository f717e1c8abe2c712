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
"""

from __future__ import annotations

from fractions import Fraction

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
        first = next(c for c in report.checks if not c.ok)
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


class AxiomCheck:
    """Outcome of one axiom: ok flag plus a failing basis triple if any."""

    __slots__ = ("name", "ok", "witness", "lhs", "rhs")

    def __init__(self, name, ok, witness=None, lhs=None, rhs=None):
        self.name = name
        self.ok = ok
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        status = "ok" if self.ok else f"FAIL at {self.witness}"
        return f"AxiomCheck({self.name}: {status})"


class AxiomReport:
    __slots__ = ("checks",)

    def __init__(self, checks):
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
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


# The five defining axioms as (name, lhs, rhs) on vectors; ``l`` and ``r``
# close over the dialgebra products.
def _axiom_table(D: Dialgebra):
    l, r = D.lmul, D.rmul
    return [
        ("left-associativity: (x<y)<z = x<(y<z)",
         lambda x, y, z: l(l(x, y), z), lambda x, y, z: l(x, l(y, z))),
        ("right-associativity: (x>y)>z = x>(y>z)",
         lambda x, y, z: r(r(x, y), z), lambda x, y, z: r(x, r(y, z))),
        ("mixed: (x<y)<z = x<(y>z)",
         lambda x, y, z: l(l(x, y), z), lambda x, y, z: l(x, r(y, z))),
        ("mixed: (x>y)<z = x>(y<z)",
         lambda x, y, z: l(r(x, y), z), lambda x, y, z: r(x, l(y, z))),
        ("mixed: (x<y)>z = (x>y)>z",
         lambda x, y, z: r(l(x, y), z), lambda x, y, z: r(r(x, y), z)),
    ]


def check_axioms(D: Dialgebra) -> AxiomReport:
    """Evaluate all five axioms on every basis triple.

    Each failing axiom reports the first bad triple (i, j, k) together
    with both sides; multilinearity makes the basis check exhaustive.
    """
    basis = D.basis()
    checks = []
    for name, lhs_fn, rhs_fn in _axiom_table(D):
        ok, witness, lhs, rhs = True, None, None, None
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                for k, z in enumerate(basis):
                    a, b = lhs_fn(x, y, z), rhs_fn(x, y, z)
                    if a != b:
                        ok, witness, lhs, rhs = False, (i, j, k), a, b
                        break
                if not ok:
                    break
            if not ok:
                break
        checks.append(AxiomCheck(name, ok, witness, lhs, rhs))
    return AxiomReport(checks)


def _check_associative(dim: int, mult) -> None:
    for i in range(dim):
        ei = basis_vector(dim, i)
        for j in range(dim):
            ej = basis_vector(dim, j)
            ij = bilinear(mult, ei, ej)
            for k in range(dim):
                ek = basis_vector(dim, k)
                if bilinear(mult, ij, ek) != bilinear(mult, ei, bilinear(mult, ej, ek)):
                    raise NotAssociativeError((i, j, k))


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
