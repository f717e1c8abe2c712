"""Tree-indexed cochain complexes and the equivariant bicomplex.

The n-cochain space CY(n) of a dialgebra D consists of linear maps from
(trees in Y(n)) x D^(tensor n) to D.  Its coboundary has one term per leaf
of each (n+1)-tree: the outer terms multiply by the first or last argument
through the boundary leaf orientation, the inner term i contracts
arguments i and i+1 through the product selected by leaf i.  Coordinates
are dense vectors in tree-major order (canonical Y(n) order, then the
lexicographic input multi-index, then the output basis index).

For an oriented group action the cochain spaces become G-modules:

    (g.f)(y; x_1..x_n) = g f(y; g^-1 x_1, ..., g^-1 x_n)      ε(g) = +1
    (g.f)(y; x_1..x_n) = (-1)^σ(n) g f(ŷ; g^-1 x_n, ..., g^-1 x_1)
                                                              ε(g) = -1

with σ(n) = (n-1)(n-2)/2 and ŷ the left-right mirror of y.  Two details
here are deliberate corrections of their commonly written forms, both
pinned by the equivariance property test (the coboundary must commute
with every g as a matrix identity):

* the exponent (n-1)(n-2)/2, not n(n-1)/2;
* the mirrored tree ŷ in the ε = -1 branch.  Reversing the arguments
  reverses which leaf meets which argument slot, so the indexing tree has
  to flip with them; keeping y fixed breaks commutation from level 2 up.

Stacking group cochains on top of these spaces gives a bicomplex (group
direction ∂'', tree direction ∂'); dropping the q = 0 column and taking
the total complex with D = ∂' + (-1)^q ∂'' yields the reduced equivariant
cohomology.  Degree-1 cocycles are pairs (α, β); their explicit defining
equations (group 1-cocycle law, twisted derivation defect law, and the
five product-compatibility linearizations of β) are coded separately in
``degree1_residuals`` as an independent cross-check of the matrix
machinery — note that those explicit equations evaluate β at the
unmirrored tree, which agrees with the kernel of the total differential
on every fixture whose cocycles satisfy β([2 1]) = β([1 2]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm

from .dialgebra import Dialgebra, bilinear
from .linalg import (
    Matrix,
    NonComplexError,
    ShapeMismatchError,
    column_space_complement,
    format_rational,
    normalize_scalar,
    nullspace,
    parse_rational,
    rank,
)
from .oriented import OrientedDialgebra
from .trees import (
    LeafOrientation,
    ResourceLimitError,
    catalan,
    enumerate_trees,
    face,
    leaf_orientation,
    mirror,
    tree_index,
)


@dataclass(frozen=True)
class EngineConfig:
    """Resource caps; requests beyond them raise ResourceLimitError."""

    max_level: int = 6          # highest tree level handled anywhere
    max_degree: int = 3         # highest assembled total degree
    max_group: int = 24
    max_dim: int = 4
    max_dense_cells: int = 4_000_000


DEFAULT_CONFIG = EngineConfig()


def sign_exponent_default(n: int) -> int:
    return (n - 1) * (n - 2) // 2


# ---------------------------------------------------------------------------
# sparse matrices
#
# Every coboundary, action and total differential is assembled as a
# SparseMap, and cohomology eliminates these maps directly: the functions of
# ``linalg`` accept them as they are.  Only the ``*_matrix`` and
# ``*_differential`` helpers densify, through ``to_matrix``, and only they
# are bound by ``EngineConfig.max_dense_cells``.


class SparseMap:
    """A sparse linear map, dict of (row, col) -> exact scalar."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.entries: dict = {}

    def add(self, r: int, c: int, v) -> None:
        """Add v at (r, c); the first write stores v as given, a zero sum drops the key."""
        if v:
            key = (r, c)
            entries = self.entries
            cur = entries.get(key)
            if cur is None:
                entries[key] = v
            else:
                # a Fraction operand on the left, as in dialgebra.bilinear
                cur = cur + v if type(cur) is Fraction else v + cur
                if cur:
                    entries[key] = cur
                else:
                    del entries[key]

    def add_block(self, other: "SparseMap", row_off: int, col_off: int, scale=1) -> None:
        """Add scale·other at the offset; a scale of ±1 copies or negates."""
        add = self.add
        items = other.entries.items()
        if scale == 1:
            for (r, c), v in items:
                add(r + row_off, c + col_off, v)
        elif scale == -1:
            for (r, c), v in items:
                add(r + row_off, c + col_off, -v)
        else:
            for (r, c), v in items:
                add(r + row_off, c + col_off, scale * v)

    def mul(self, other: "SparseMap") -> "SparseMap":
        if self.cols != other.rows:
            raise ShapeMismatchError(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        left: dict[int, list] = {}
        for (i, k), a in self.entries.items():
            left.setdefault(i, []).append((k, a))
        right: dict[int, list] = {}
        for (k, j), b in other.entries.items():
            right.setdefault(k, []).append((j, b))
        out = SparseMap(self.rows, other.cols)
        for i, terms in left.items():
            acc: dict = {}
            for k, a in terms:
                for j, b in right.get(k, ()):
                    acc[j] = acc.get(j, 0) + a * b
            for j, v in acc.items():
                if v:
                    out.entries[(i, j)] = v
        return out

    def matvec(self, v: list) -> list:
        out = [0] * self.rows
        for (r, c), val in self.entries.items():
            x = v[c]
            if x:
                out[r] += val * x
        return [normalize_scalar(x) for x in out]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries.values())

    def integral(self, axis: int) -> "SparseMap":
        """A copy with each row (axis 0) or column (axis 1) scaled to integers.

        Scaling the rows of d_out and the columns of d_in keeps whether
        d_out·d_in is zero, and lets the product run on integers.
        """
        denoms: dict = {}
        for key, v in self.entries.items():
            if v.denominator != 1:
                denoms[key[axis]] = lcm(denoms.get(key[axis], 1), v.denominator)
        out = SparseMap(self.rows, self.cols)
        out.entries = {key: v.numerator * (denoms.get(key[axis], 1) // v.denominator)
                       for key, v in self.entries.items()}
        return out

    def equals(self, other: "SparseMap") -> bool:
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        keys = set(self.entries) | set(other.entries)
        return all(
            Fraction(self.entries.get(k, 0)) == Fraction(other.entries.get(k, 0)) for k in keys
        )

    def to_matrix(self, config: EngineConfig = DEFAULT_CONFIG) -> Matrix:
        if self.rows * self.cols > config.max_dense_cells:
            raise ResourceLimitError(
                f"dense {self.rows}x{self.cols} matrix exceeds the configured cell cap"
            )
        data = [0] * (self.rows * self.cols)
        for (r, c), v in self.entries.items():
            data[r * self.cols + c] = v
        return Matrix(self.rows, self.cols, data)


# ---------------------------------------------------------------------------
# cochain coordinates


def cochain_dim(d: int, n: int) -> int:
    """dim CY(n) = |Y(n)| * d^n * d (for n = 0 this is just d)."""
    return catalan(n) * d ** n * d


def multi_index(multi: tuple, d: int) -> int:
    m = 0
    for i in multi:
        m = m * d + i
    return m


def cochain_pos(d: int, n: int, t_idx: int, multi: tuple, k: int) -> int:
    return (t_idx * d ** n + multi_index(multi, d)) * d + k


@dataclass
class Cochain:
    """An element of CY(n), as a dense coefficient vector."""

    level: int
    coeffs: list


@dataclass
class BicochainElement:
    """An element of the (p, q) spot: maps G^p -> CY(q)."""

    p: int
    q: int
    coeffs: list


@dataclass
class TotalDegreeElement:
    """One block per (p, q) with p + q = degree + 1, q >= 1."""

    degree: int
    blocks: dict = field(default_factory=dict)


def _check_dialgebra_size(d: int, config: EngineConfig) -> None:
    if d > config.max_dim:
        raise ResourceLimitError(f"dimension {d} exceeds cap {config.max_dim}")


# ---------------------------------------------------------------------------
# the tree-direction coboundary


def delta_entries(D: Dialgebra, n: int, config: EngineConfig = DEFAULT_CONFIG) -> SparseMap:
    """Sparse matrix of the coboundary CY(n) -> CY(n+1)."""
    if n < 0:
        raise ValueError("cochain level must be non-negative")
    if n + 1 > config.max_level:
        raise ResourceLimitError(f"coboundary to level {n + 1} exceeds cap {config.max_level}")
    _check_dialgebra_size(D.dim, config)
    d = D.dim
    sm = SparseMap(cochain_dim(d, n + 1), cochain_dim(d, n))
    add = sm.add
    t_in = tree_index(n)
    dn = d ** n
    # each leaf's product with the leaf's sign already applied
    signed = {
        (LeafOrientation.LEFT, 1): D.left,
        (LeafOrientation.RIGHT, 1): D.right,
        (LeafOrientation.LEFT, -1): _negated(D.left),
        (LeafOrientation.RIGHT, -1): _negated(D.right),
    }
    for ti, y in enumerate(enumerate_trees(n + 1)):
        spots = [(t_in[face(i, y).word], signed[leaf_orientation(i, y), -1 if i % 2 else 1])
                 for i in range(n + 2)]
        for I in product(range(d), repeat=n + 1):
            row_base = (ti * d ** (n + 1) + multi_index(I, d)) * d

            t_idx, tensor = spots[0]  # multiply by the first argument
            col_base = (t_idx * dn + multi_index(I[1:], d)) * d
            plane = tensor[I[0]]
            for m in range(d):
                for k, x in enumerate(plane[m]):
                    if x:
                        add(row_base + k, col_base + m, x)

            for i in range(1, n + 1):  # contract arguments i and i+1
                t_idx, tensor = spots[i]
                for m, x in enumerate(tensor[I[i - 1]][I[i]]):
                    if x:
                        sub = I[:i - 1] + (m,) + I[i + 1:]
                        col_base = (t_idx * dn + multi_index(sub, d)) * d
                        for k in range(d):
                            add(row_base + k, col_base + k, x)

            t_idx, tensor = spots[n + 1]  # multiply by the last argument
            col_base = (t_idx * dn + multi_index(I[:n], d)) * d
            b = I[n]
            for m in range(d):
                for k, x in enumerate(tensor[m][b]):
                    if x:
                        add(row_base + k, col_base + m, x)
    return sm


def _negated(tensor: list) -> list:
    return [[[-x for x in row] for row in plane] for plane in tensor]


def delta_matrix(D: Dialgebra, n: int, config: EngineConfig = DEFAULT_CONFIG) -> Matrix:
    """Dense coboundary matrix CY(n) -> CY(n+1) in the canonical bases."""
    return delta_entries(D, n, config).to_matrix(config)


# ---------------------------------------------------------------------------
# the group action on cochains


def _mirror_perm(n: int) -> list[int]:
    """Index permutation of Y(n) induced by the mirror involution."""
    idx = tree_index(n)
    return [idx[mirror(y).word] for y in enumerate_trees(n)]


def act_entries(
    OD: OrientedDialgebra,
    g: int,
    n: int,
    config: EngineConfig = DEFAULT_CONFIG,
    sign_exponent=sign_exponent_default,
) -> SparseMap:
    """Sparse matrix of the action of g on CY(n)."""
    if n > config.max_level:
        raise ResourceLimitError(f"level {n} exceeds cap {config.max_level}")
    d = OD.dim
    dim = cochain_dim(d, n)
    sm = SparseMap(dim, dim)
    eps = OD.sign(g)
    rho = OD.action[g]
    rho_inv = OD.action[OD.group.inv(g)]
    add = sm.add
    # the nonzero entries of each row of rho
    rho_rows = [[(kp, w) for kp, w in enumerate(rho.row(k)) if w] for k in range(d)]
    if n == 0:
        sign = (-1) ** sign_exponent(0) if eps == -1 else 1
        for k, row in enumerate(rho_rows):
            for j, v in row:
                add(k, j, v if sign == 1 else -v)
        return sm
    # nonzero rows of each column of rho_inv, for pruning the J-sum
    inv_cols = [[(j, rho_inv.at(j, i)) for j in range(d) if rho_inv.at(j, i)] for i in range(d)]
    sign = 1
    perm = list(range(catalan(n)))
    if eps == -1:
        sign = (-1) ** sign_exponent(n)
        perm = _mirror_perm(n)
    dn = d ** n
    for ti in range(catalan(n)):
        src_tree = perm[ti]
        for I in product(range(d), repeat=n):
            row_base = (ti * dn + multi_index(I, d)) * d
            slots = I if eps == 1 else I[::-1]
            for J_parts in product(*(inv_cols[i] for i in slots)):
                # signs by negation; a Fraction operand on the left, as in bilinear
                coeff = J_parts[0][1] if sign == 1 else -J_parts[0][1]
                for _, v in J_parts[1:]:
                    coeff = coeff * v if type(coeff) is Fraction else v * coeff
                J = tuple(j for j, _ in J_parts)
                col_base = (src_tree * dn + multi_index(J, d)) * d
                for k, row in enumerate(rho_rows):
                    for kp, w in row:
                        add(row_base + k, col_base + kp,
                            coeff if w == 1 else -coeff if w == -1 else
                            coeff * w if type(coeff) is Fraction else w * coeff)
    return sm


def act_on_cochain(
    OD: OrientedDialgebra,
    g: int,
    f: Cochain,
    config: EngineConfig = DEFAULT_CONFIG,
    sign_exponent=sign_exponent_default,
) -> Cochain:
    """Apply the twisted action of group element g to a cochain."""
    sm = act_entries(OD, g, f.level, config, sign_exponent)
    if len(f.coeffs) != sm.cols:
        raise ShapeMismatchError("cochain length does not match its level")
    return Cochain(f.level, sm.matvec(f.coeffs))


# ---------------------------------------------------------------------------
# the bicomplex


def bicochain_dim(OD: OrientedDialgebra, p: int, q: int) -> int:
    return OD.group.order ** p * cochain_dim(OD.dim, q)


def _tuples(m: int, p: int):
    return product(range(m), repeat=p)


def _tuple_pos(t: tuple, m: int) -> int:
    pos = 0
    for g in t:
        pos = pos * m + g
    return pos


def vertical_entries(
    OD: OrientedDialgebra, p: int, q: int, config: EngineConfig = DEFAULT_CONFIG
) -> SparseMap:
    """Group-direction coboundary (p, q) -> (p+1, q).

    The first face acts by g1 on the cochain, the middle faces merge
    adjacent group arguments, the last face forgets the final argument.
    """
    if q < 1:
        raise ValueError("the reduced bicomplex keeps only q >= 1")
    m = OD.group.order
    if m > config.max_group:
        raise ResourceLimitError(f"group order {m} exceeds cap {config.max_group}")
    cd = cochain_dim(OD.dim, q)
    sm = SparseMap(m ** (p + 1) * cd, m ** p * cd)
    acts = [act_entries(OD, g, q, config) for g in range(m)]
    for gt in _tuples(m, p + 1):
        row_off = _tuple_pos(gt, m) * cd
        sm.add_block(acts[gt[0]], row_off, _tuple_pos(gt[1:], m) * cd)
        for i in range(1, p + 1):
            merged = gt[:i - 1] + (OD.group.mul(gt[i - 1], gt[i]),) + gt[i + 1:]
            col_off = _tuple_pos(merged, m) * cd
            sgn = -1 if i % 2 else 1
            for c in range(cd):
                sm.add(row_off + c, col_off + c, sgn)
        col_off = _tuple_pos(gt[:p], m) * cd
        sgn = -1 if (p + 1) % 2 else 1
        for c in range(cd):
            sm.add(row_off + c, col_off + c, sgn)
    return sm


def horizontal_entries(
    OD: OrientedDialgebra, p: int, q: int, config: EngineConfig = DEFAULT_CONFIG
) -> SparseMap:
    """Tree-direction coboundary (p, q) -> (p, q+1): delta in each group slot."""
    if q < 1:
        raise ValueError("the reduced bicomplex keeps only q >= 1")
    m = OD.group.order
    delta = delta_entries(OD.base, q, config)
    sm = SparseMap(m ** p * delta.rows, m ** p * delta.cols)
    for t in range(m ** p):
        sm.add_block(delta, t * delta.rows, t * delta.cols)
    return sm


def vertical_differential(
    OD: OrientedDialgebra, p: int, q: int, config: EngineConfig = DEFAULT_CONFIG
) -> Matrix:
    return vertical_entries(OD, p, q, config).to_matrix(config)


def horizontal_differential(
    OD: OrientedDialgebra, p: int, q: int, config: EngineConfig = DEFAULT_CONFIG
) -> Matrix:
    return horizontal_entries(OD, p, q, config).to_matrix(config)


def total_blocks(OD: OrientedDialgebra, n: int) -> list[tuple[int, int]]:
    """The (p, q) blocks of total degree n, ordered by ascending p."""
    return [(p, n + 1 - p) for p in range(n + 1)]


def total_dim(OD: OrientedDialgebra, n: int) -> int:
    return sum(bicochain_dim(OD, p, q) for p, q in total_blocks(OD, n))


def _block_offsets(OD: OrientedDialgebra, n: int) -> dict[tuple[int, int], int]:
    offsets = {}
    pos = 0
    for p, q in total_blocks(OD, n):
        offsets[(p, q)] = pos
        pos += bicochain_dim(OD, p, q)
    return offsets


def total_entries(
    OD: OrientedDialgebra, n: int, config: EngineConfig = DEFAULT_CONFIG
) -> SparseMap:
    """Total differential Tot(n) -> Tot(n+1): D = ∂' + (-1)^q ∂'' blockwise."""
    if n < 0:
        raise ValueError("total degree must be non-negative")
    src = _block_offsets(OD, n)
    dst = _block_offsets(OD, n + 1)
    sm = SparseMap(total_dim(OD, n + 1), total_dim(OD, n))
    for p, q in total_blocks(OD, n):
        col = src[(p, q)]
        sm.add_block(horizontal_entries(OD, p, q, config), dst[(p, q + 1)], col)
        sm.add_block(vertical_entries(OD, p, q, config), dst[(p + 1, q)], col,
                     scale=(-1) ** q)
    return sm


def total_differential(
    OD: OrientedDialgebra, n: int, config: EngineConfig = DEFAULT_CONFIG
) -> Matrix:
    return total_entries(OD, n, config).to_matrix(config)


def pack_total(OD: OrientedDialgebra, element: TotalDegreeElement) -> list:
    offsets = _block_offsets(OD, element.degree)
    vec = [0] * total_dim(OD, element.degree)
    for (p, q), block in element.blocks.items():
        off = offsets[(p, q)]
        for i, v in enumerate(block.coeffs):
            vec[off + i] = v
    return vec


def unpack_total(OD: OrientedDialgebra, n: int, vec: list) -> TotalDegreeElement:
    element = TotalDegreeElement(n)
    pos = 0
    for p, q in total_blocks(OD, n):
        size = bicochain_dim(OD, p, q)
        element.blocks[(p, q)] = BicochainElement(p, q, list(vec[pos:pos + size]))
        pos += size
    return element


# ---------------------------------------------------------------------------
# cohomology


@dataclass
class CohomologyResult:
    dim: int
    representatives: list
    kernel_dim: int
    image_rank: int


def _normalize_rep(v: list) -> list:
    """v scaled to a leading 1; v's entries are canonical scalars."""
    for x in v:
        if x:
            if x == 1:
                return list(v)
            inv = Fraction(1, 1) / Fraction(x)
            return [normalize_scalar(inv * y) if y else 0 for y in v]
    return list(v)


def _quotient(
    d_out: SparseMap, d_in: SparseMap, fault: str = "coboundaries do not compose to zero"
) -> CohomologyResult:
    """Kernel of d_out modulo image of d_in, with canonical representatives.

    The square d_out·d_in is checked to vanish exactly, as an integer
    sparse product, before any elimination; ``fault`` names the failure.
    The eliminations then run on the same integer maps: scaling the rows
    of d_out keeps its row space, hence its RREF and canonical kernel
    basis, and scaling the columns of d_in keeps its rank and column space.
    """
    d_out, d_in = d_out.integral(0), d_in.integral(1)
    if not d_out.mul(d_in).is_zero():
        raise NonComplexError(fault)
    kernel = nullspace(d_out)
    image_rank = rank(d_in)
    keep = column_space_complement(d_in, kernel)
    reps = [_normalize_rep(kernel[i]) for i in keep]
    dim = len(kernel) - image_rank
    assert len(reps) == dim, "rank-nullity bookkeeping broke"
    return CohomologyResult(dim, reps, len(kernel), image_rank)


def dialgebra_cohomology(
    D: Dialgebra, n: int, config: EngineConfig = DEFAULT_CONFIG
) -> CohomologyResult:
    """HY(n): kernel of the level-n coboundary modulo the image below."""
    d_out = delta_entries(D, n, config)
    if n == 0:
        d_in = SparseMap(cochain_dim(D.dim, 0), 0)
    else:
        d_in = delta_entries(D, n - 1, config)
    return _quotient(d_out, d_in)


def equivariant_cohomology(
    OD: OrientedDialgebra, n: int, config: EngineConfig = DEFAULT_CONFIG
) -> CohomologyResult:
    """Reduced equivariant cohomology at total degree n.

    The square of the total differential is verified to vanish before any
    rank is taken; a nonzero square signals a sign-convention bug.
    """
    if n + 1 > config.max_degree:
        raise ResourceLimitError(
            f"total degree {n} needs degree {n + 1} blocks; cap is {config.max_degree}"
        )
    d_out = total_entries(OD, n, config)
    if n == 0:
        d_in = SparseMap(total_dim(OD, 0), 0)
    else:
        d_in = total_entries(OD, n - 1, config)
    return _quotient(d_out, d_in, "total differential does not square to zero")


# ---------------------------------------------------------------------------
# the explicit degree-1 layer

# In degree 1 a cocycle is a pair (α, β): α assigns to each group element
# a linear endomorphism, β is a pair of bilinear defect maps (one per
# level-2 tree).  α is carried as one Matrix per group element and β as
# the tensor pair (β at tree [2 1], β at tree [1 2]) — the ⊣ and ⊢ defects
# respectively.


def degree1_zero(OD: OrientedDialgebra):
    d = OD.dim
    from .dialgebra import zero_tensor

    alpha = [Matrix.zeros(d, d) for _ in OD.group.elements()]
    return alpha, (zero_tensor(d), zero_tensor(d))


def degree1_pack(OD: OrientedDialgebra, alpha, beta) -> list:
    """Flatten (α, β) into the canonical Tot(1) coordinate vector."""
    d = OD.dim
    beta_l, beta_r = beta
    t2 = {t.word: i for i, t in enumerate(enumerate_trees(2))}
    vec = [0] * total_dim(OD, 1)
    off_02 = _block_offsets(OD, 1)[(0, 2)]
    for (word, tensor) in (((2, 1), beta_l), ((1, 2), beta_r)):
        ti = t2[word]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    vec[off_02 + cochain_pos(d, 2, ti, (i, j), k)] = tensor[i][j][k]
    off_11 = _block_offsets(OD, 1)[(1, 1)]
    cd = cochain_dim(d, 1)
    for g in OD.group.elements():
        for i in range(d):
            for k in range(d):
                vec[off_11 + g * cd + cochain_pos(d, 1, 0, (i,), k)] = alpha[g].at(k, i)
    return vec


def degree1_unpack(OD: OrientedDialgebra, vec: list):
    """Inverse of ``degree1_pack``."""
    d = OD.dim
    t2 = {t.word: i for i, t in enumerate(enumerate_trees(2))}
    offs = _block_offsets(OD, 1)
    off_02, off_11 = offs[(0, 2)], offs[(1, 1)]
    tensors = {}
    for word in ((2, 1), (1, 2)):
        ti = t2[word]
        tensors[word] = [
            [[vec[off_02 + cochain_pos(d, 2, ti, (i, j), k)] for k in range(d)]
             for j in range(d)]
            for i in range(d)
        ]
    cd = cochain_dim(d, 1)
    alpha = []
    for g in OD.group.elements():
        alpha.append(Matrix.from_rows(
            [[vec[off_11 + g * cd + cochain_pos(d, 1, 0, (i,), k)] for i in range(d)]
             for k in range(d)]
        ))
    return alpha, (tensors[(2, 1)], tensors[(1, 2)])


def _sub(u: list, v: list) -> list:
    return [normalize_scalar(a - b) for a, b in zip(u, v)]


def _add3(u: list, v: list, w: list) -> list:
    return [normalize_scalar(a + b + c) for a, b, c in zip(u, v, w)]


def degree1_residuals(OD: OrientedDialgebra, alpha, beta):
    """Residuals of the explicit degree-1 cocycle equations, with labels.

    Evaluated directly from the displayed equations (group 1-cocycle law,
    the two twisted defect equations, and the five compatibility
    linearizations of β); shares no code with the differential matrices.
    """
    D = OD.base
    d = D.dim
    beta_l, beta_r = beta
    basis = D.basis()
    residuals = []

    def emit(label, vec):
        for k, v in enumerate(vec):
            residuals.append((label + (k,), v))

    def bl(x, y):
        return bilinear(beta_l, x, y)

    def br(x, y):
        return bilinear(beta_r, x, y)

    for g in OD.group.elements():
        for h in OD.group.elements():
            gh = OD.group.mul(g, h)
            for i, x in enumerate(basis):
                lhs = alpha[gh].matvec(x)
                rhs = [
                    normalize_scalar(a + b)
                    for a, b in zip(
                        OD.act(g, alpha[h].matvec(OD.act(OD.group.inv(g), x))),
                        alpha[g].matvec(x),
                    )
                ]
                emit(("group-cocycle", g, h, i), _sub(lhs, rhs))

    ginv = OD.group.inv
    for g in OD.group.elements():
        eps = OD.sign(g)
        ag = alpha[g]
        for i, x1 in enumerate(basis):
            gi_x1 = OD.act(ginv(g), x1)
            for j, x2 in enumerate(basis):
                gi_x2 = OD.act(ginv(g), x2)
                for name, prod, defect in (
                    ("left-defect", D.lmul, bl),
                    ("right-defect", D.rmul, br),
                ):
                    lhs = _add3(
                        prod(x1, ag.matvec(x2)),
                        [-v for v in ag.matvec(prod(x1, x2))],
                        prod(ag.matvec(x1), x2),
                    )
                    moved = defect(gi_x1, gi_x2) if eps == 1 else defect(gi_x2, gi_x1)
                    rhs = _sub(defect(x1, x2), OD.act(g, moved))
                    emit((name, g, i, j), _sub(lhs, rhs))

    l, r = D.lmul, D.rmul
    compat = [
        ("beta-ll", lambda x, y, z: _sub(_add3(l(x, bl(y, z)), [-v for v in bl(l(x, y), z)],
                                               bl(x, l(y, z))), l(bl(x, y), z))),
        ("beta-lr", lambda x, y, z: _sub(_add3(l(x, br(y, z)), [-v for v in bl(l(x, y), z)],
                                               bl(x, r(y, z))), l(bl(x, y), z))),
        ("beta-ml", lambda x, y, z: _sub(_add3(r(x, bl(y, z)), [-v for v in bl(r(x, y), z)],
                                               br(x, l(y, z))), l(br(x, y), z))),
        ("beta-rr", lambda x, y, z: _sub(_add3(r(x, br(y, z)), [-v for v in br(r(x, y), z)],
                                               br(x, r(y, z))), r(br(x, y), z))),
        ("beta-outer", lambda x, y, z: _sub([normalize_scalar(a + b) for a, b in
                                             zip(br(l(x, y), z), r(bl(x, y), z))],
                                            [normalize_scalar(a + b) for a, b in
                                             zip(br(r(x, y), z), r(br(x, y), z))])),
    ]
    for name, fn in compat:
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                for k, z in enumerate(basis):
                    emit((name, i, j, k), fn(x, y, z))
    return residuals


@dataclass
class CocycleReport:
    ok: bool
    residuals: list

    def __bool__(self):
        return self.ok


def is_degree1_cocycle(OD: OrientedDialgebra, alpha, beta) -> CocycleReport:
    """Do (α, β) satisfy the explicit degree-1 cocycle equations exactly?"""
    residuals = degree1_residuals(OD, alpha, beta)
    bad = [(label, v) for label, v in residuals if v]
    return CocycleReport(not bad, bad)


def degree1_system(OD: OrientedDialgebra) -> Matrix:
    """The explicit equations as one linear system on packed (α, β) vectors.

    The residual map is linear, so evaluating it on each coordinate unit
    vector yields the matrix; its nullspace is the explicit solution set,
    used as the independent cross-check of the total-differential kernel.
    """
    dim = total_dim(OD, 1)
    cols = []
    for j in range(dim):
        unit = [0] * dim
        unit[j] = 1
        alpha, beta = degree1_unpack(OD, unit)
        cols.append([v for _, v in degree1_residuals(OD, alpha, beta)])
    rows = len(cols[0]) if cols else 0
    return Matrix(rows, dim, [cols[j][i] for i in range(rows) for j in range(dim)])


def degree1_coboundary(OD: OrientedDialgebra, gamma: Matrix):
    """The degree-0 coboundary of a linear map γ, as an (α, β) pair.

    α(g) = γ - g∘γ∘g⁻¹ (the group coboundary, with the sign it acquires
    inside the total differential) and β is the product defect of γ.
    """
    D = OD.base
    d = D.dim
    basis = D.basis()
    alpha = []
    for g in OD.group.elements():
        cols = []
        for i, x in enumerate(basis):
            gx = OD.act(g, gamma.matvec(OD.act(OD.group.inv(g), x)))
            cols.append(_sub(gamma.matvec(x), gx))
        alpha.append(Matrix.from_rows([[cols[i][k] for i in range(d)] for k in range(d)]))
    beta_l = [[_add3(D.lmul(x, gamma.matvec(y)),
                     [-v for v in gamma.matvec(D.lmul(x, y))],
                     D.lmul(gamma.matvec(x), y))
               for y in basis] for x in basis]
    beta_r = [[_add3(D.rmul(x, gamma.matvec(y)),
                     [-v for v in gamma.matvec(D.rmul(x, y))],
                     D.rmul(gamma.matvec(x), y))
               for y in basis] for x in basis]
    return alpha, (beta_l, beta_r)


def degree1_coboundary_matrix(OD: OrientedDialgebra) -> Matrix:
    """Matrix of γ -> packed (α, β); columns are indexed like level-1 cochains."""
    d = OD.dim
    cols = []
    for i in range(d):
        for k in range(d):
            gamma = Matrix(d, d, [1 if (r == k and c == i) else 0
                                  for r in range(d) for c in range(d)])
            alpha, beta = degree1_coboundary(OD, gamma)
            cols.append(degree1_pack(OD, alpha, beta))
    rows = total_dim(OD, 1)
    return Matrix(rows, d * d, [cols[j][i] for i in range(rows) for j in range(d * d)])


# ---------------------------------------------------------------------------
# serialization (flat coefficient arrays in the canonical index order)


def cochain_to_json(f: Cochain) -> dict:
    return {"level": f.level, "coeffs": [format_rational(x) for x in f.coeffs]}


def cochain_from_json(data: dict, d: int) -> Cochain:
    level = int(data["level"])
    coeffs = [normalize_scalar(parse_rational(x)) for x in data["coeffs"]]
    if len(coeffs) != cochain_dim(d, level):
        raise ValueError(f"level-{level} cochain needs {cochain_dim(d, level)} coefficients")
    return Cochain(level, coeffs)


def total_element_to_json(element: TotalDegreeElement) -> dict:
    blocks = {
        f"{p},{q}": [format_rational(x) for x in block.coeffs]
        for (p, q), block in sorted(element.blocks.items())
    }
    return {"degree": element.degree, "blocks": blocks}


def total_element_from_json(OD: OrientedDialgebra, data: dict) -> TotalDegreeElement:
    degree = int(data["degree"])
    element = TotalDegreeElement(degree)
    for p, q in total_blocks(OD, degree):
        coeffs = [normalize_scalar(parse_rational(x)) for x in data["blocks"][f"{p},{q}"]]
        if len(coeffs) != bicochain_dim(OD, p, q):
            raise ValueError(f"block ({p},{q}) needs {bicochain_dim(OD, p, q)} coefficients")
        element.blocks[(p, q)] = BicochainElement(p, q, coeffs)
    return element
