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
cohomology.  Degree-1 cocycles are pairs (α, β).  Their explicit
equations, the t¹ part of the deformation laws, are evaluated apart from
the matrix machinery as a cross-check (``degree1_residuals``).  Their group
laws are written once, in ``oriented._law_sides``, and for ε(g) = -1 they read
g(x ⊣ y) = gy ⊣ gx, while the cochain action, which mirrors the tree,
encodes g(x ⊣ y) = gy ⊢ gx (g maps D to its opposite dialgebra).  The two
routes agree where β⊣ and β⊢ of the cocycles coincide; on zero products
with the swap action (zero-sign) they give kernels of equal dimension but
different subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product, repeat
from math import lcm
from operator import mul, sub

from .dialgebra import (
    Check,
    Dialgebra,
    Report,
    _axiom_sides,
    _denominator,
    _flat,
    _interleaved,
    _matmul,
    _rows,
    _scaled,
    _scaled_maps,
    _scaled_products,
    validated_tensor,
)
from .linalg import (
    Matrix,
    NonComplexError,
    ShapeMismatchError,
    SparseMap,
    _apply,
    _rational,
    column_space_complement,
    normalize_scalar,
    nullspace,
    rank,
    reduced_row,
    scaled_vector,
)
from .oriented import OrientedDialgebra, _law_sides
from .trees import (
    LeafOrientation,
    ResourceLimitError,
    catalan,
    check_level,
    enumerate_trees,
    face_table,
    mirror,
    tree_index,
)


@dataclass(frozen=True)
class EngineConfig:
    """Resource caps; requests beyond them raise ResourceLimitError."""

    max_group: int = 24
    max_dim: int = 4
    max_cochain_dim: int = 32_768   # dim of the largest space a map lands in


DEFAULT_CONFIG = EngineConfig()


def sign_exponent(n: int) -> int:
    """σ(n): an element with ε = -1 acts on CY(n) with the sign (-1)^σ(n)."""
    return (n - 1) * (n - 2) // 2


# ---------------------------------------------------------------------------
# sparse matrices
#
# Every coboundary, action and total differential is a ``linalg.SparseMap``,
# and cohomology eliminates these maps directly: the functions of ``linalg``
# read them by columns, and nothing in the engine densifies.  A SparseMap
# is stored as its columns, the layout the kernel elimination consumes: a
# list of ``cols`` dicts {row: value} with int keys and no zero values;
# its product and densification work on those columns too.
# ``entries``, a (row, col)-keyed dict, is built on demand for the tests
# and the benchmark's checks.  Two builders make every entry, ``_delta``
# and ``_act``, straight into column dicts; ``_delta`` reads its faces and
# leaf orientations from ``trees.face_table``.
# ``_write_horizontal`` and ``_write_vertical`` copy each source column to
# its block offset with one C-level ``dict.update`` over the shifted rows,
# and add the ±1 identities of the group direction.
#
# Every builder runs in integers.  δ is linear in the structure constants,
# so δ built from the products scaled by their common denominator nL is
# nL·δ.  The action on CY(q) is multilinear of degree q + 1 in the action
# matrices, so built from them scaled by their common denominator nR it is
# nR^(q+1)·act(g, q).  A total differential Tot(n) -> Tot(n+1) carries one
# factor L = lcm(nL, nR^(n+2)) in all of its blocks: δ blocks times L/nL,
# action blocks times L/nR^(q+1) and the identities times L.  A map times a
# nonzero constant has the same kernel, rank and column space, so the
# quotient eliminates these maps as they are.  ``delta_entries``,
# ``act_entries`` and ``total_entries`` divide the same integer maps once
# by their scale (``_divided``), so every public map is the exact rational
# map in canonical scalars; ``vertical_entries`` and ``horizontal_entries``
# copy those public maps into their blocks.
#
# The one size cap is ``EngineConfig.max_cochain_dim``: every assembly
# checks the dimension of its target space before it writes an entry, and
# both cohomology entry points check their outgoing map first.
# ``to_matrix`` has no cap; tests use it to compare a map with a dense one.


# ---------------------------------------------------------------------------
# cochain coordinates


def cochain_dim(d: int, n: int) -> int:
    """dim CY(n) = |Y(n)| * d^n * d; a level above ``trees.MAX_LEVEL`` is refused before |Y(n)|."""
    check_level(n)
    return catalan(n) * d ** n * d


def _check_dialgebra_size(d: int, config: EngineConfig) -> None:
    if d > config.max_dim:
        raise ResourceLimitError(f"dimension {d} exceeds cap {config.max_dim}")


def _check_target_size(space: str, dim: int, config: EngineConfig) -> None:
    """Refuse, before any entry is written, a map into a space above the cap."""
    if dim > config.max_cochain_dim:
        raise ResourceLimitError(
            f"{space} has dimension {dim}, above the cap {config.max_cochain_dim}"
        )


# ---------------------------------------------------------------------------
# the tree-direction coboundary


def _check_delta(D: Dialgebra, n: int, config: EngineConfig) -> None:
    if n < 0:
        raise ValueError("cochain level must be non-negative")
    _check_dialgebra_size(D.dim, config)
    _check_target_size(f"CY({n + 1})", cochain_dim(D.dim, n + 1), config)


def _divided(sm: SparseMap, scale: int) -> SparseMap:
    """An integer map divided by ``scale``, each entry once, in canonical scalars."""
    if scale == 1:
        return sm
    return SparseMap(sm.rows, sm.cols, columns=[{r: _rational(x, scale) for r, x in col.items()}
                                                for col in sm.columns])


def _delta_maps(D: Dialgebra, levels) -> list[tuple[SparseMap, int]]:
    """(nL·δ_n, nL) for each n in ``levels``; the caps are the caller's."""
    nL, (left, right) = _scaled_products(D)
    d = D.dim
    return [(SparseMap(cochain_dim(d, n + 1), cochain_dim(d, n), columns=_delta(left, right, d, n)),
             nL) for n in levels]


def delta_entries(D: Dialgebra, n: int, config: EngineConfig = DEFAULT_CONFIG) -> SparseMap:
    """Sparse matrix of the coboundary CY(n) -> CY(n+1)."""
    _check_delta(D, n, config)
    return _divided(*_delta_maps(D, [n])[0])


def _leaf_terms(T: list, sign: int, d: int) -> tuple[list, list, list]:
    """The nonzero entries of sign·T, grouped for the three kinds of leaf term.

    ``first[a]`` lists (m, k, x) with x = sign·T[a][m][k], ``inner[a][b]``
    lists (m, x) with x = sign·T[a][b][m] and ``last[b]`` lists (m, k, x)
    with x = sign·T[m][b][k].
    """
    rd = range(d)
    first = [[(m, k, sign * T[a][m][k]) for m in rd for k in rd if T[a][m][k]] for a in rd]
    inner = [[[(m, sign * x) for m, x in enumerate(T[a][b]) if x] for b in rd] for a in rd]
    last = [[(m, k, sign * T[m][b][k]) for m in rd for k in rd if T[m][b][k]] for b in rd]
    return first, inner, last


def _delta(left: list, right: list, d: int, n: int) -> list[dict]:
    """The columns of δ: CY(n) -> CY(n+1) built from the product tensors given."""
    cols: list[dict] = [{} for _ in range(cochain_dim(d, n))]
    dn = d ** n
    # each leaf's product with the leaf's sign already applied
    terms = {(o, s): _leaf_terms(T, s, d)
             for o, T in ((LeafOrientation.LEFT, left), (LeafOrientation.RIGHT, right))
             for s in (1, -1)}
    for ti, leaves in enumerate(face_table(n + 1)):
        spots = [(t_in * dn, terms[o, -1 if i % 2 else 1]) for i, (t_in, o) in enumerate(leaves)]
        first_tree, first = spots[0][0], spots[0][1][0]
        last_tree, last = spots[n + 1][0], spots[n + 1][1][2]
        for mi, I in enumerate(product(range(d), repeat=n + 1)):
            row_base = (ti * d ** (n + 1) + mi) * d

            col_base = (first_tree + mi % dn) * d  # multiply by the first argument
            for m, k, x in first[I[0]]:
                col, r = cols[col_base + m], row_base + k
                col[r] = col.get(r, 0) + x

            for i in range(1, n + 1):  # contract arguments i and i+1
                t_off, (_, inner, _) = spots[i]
                low = d ** (n - i)
                # the index of I[:i-1] + (m,) + I[i+1:] is hi + m·low + lo
                hi, lo = mi // (low * d * d) * (low * d), mi % low
                for m, x in inner[I[i - 1]][I[i]]:
                    col_base = (t_off + hi + m * low + lo) * d
                    for k in range(d):
                        col, r = cols[col_base + k], row_base + k
                        col[r] = col.get(r, 0) + x

            col_base = (last_tree + mi // d) * d  # multiply by the last argument
            for m, k, x in last[I[n]]:
                col, r = cols[col_base + m], row_base + k
                col[r] = col.get(r, 0) + x
    return [col if all(col.values()) else {r: x for r, x in col.items() if x} for col in cols]


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
) -> SparseMap:
    """Sparse matrix of the action of g on CY(n)."""
    d = OD.dim
    _check_dialgebra_size(d, config)
    dim = cochain_dim(d, n)
    _check_target_size(f"CY({n})", dim, config)
    (rho, rho_inv), nR = _scaled_maps([OD.action[g], OD.action[OD.group.inv(g)]])
    return _divided(SparseMap(dim, dim, columns=_act(rho, rho_inv, OD.sign(g), d, n)),
                    nR ** (n + 1))


def _act(rho: list, rho_inv: list, eps: int, d: int, n: int) -> list[dict]:
    """The columns of the action on CY(n) of an element of sign ``eps``.

    ``rho`` and ``rho_inv`` are the rows of the matrices of the element and
    of its inverse.  Distinct terms land on distinct entries, so each entry
    is written once, and a product of nonzero factors is never 0.
    """
    cols: list[dict] = [{} for _ in range(cochain_dim(d, n))]
    # the nonzero entries of each row of rho
    rho_rows = [[(kp, w) for kp, w in enumerate(row) if w] for row in rho]
    # nonzero rows of each column of rho_inv, for pruning the J-sum
    inv_cols = [[(j, rho_inv[j][i]) for j in range(d) if rho_inv[j][i]] for i in range(d)]
    sign = 1
    perm = list(range(catalan(n)))
    if eps == -1:
        sign = (-1) ** sign_exponent(n)
        perm = _mirror_perm(n)
    dn = d ** n
    for ti in range(catalan(n)):
        src_base = perm[ti] * dn
        for mi, I in enumerate(product(range(d), repeat=n)):
            row_base = (ti * dn + mi) * d
            slots = I if eps == 1 else I[::-1]
            for J_parts in product(*(inv_cols[i] for i in slots)):
                coeff, pos = sign, 0
                for j, v in J_parts:
                    coeff *= v
                    pos = pos * d + j
                col_base = (src_base + pos) * d
                for k, row in enumerate(rho_rows):
                    r = row_base + k
                    for kp, w in row:
                        cols[col_base + kp][r] = coeff * w
    return cols


# ---------------------------------------------------------------------------
# the bicomplex


def bicochain_dim(OD: OrientedDialgebra, p: int, q: int) -> int:
    return OD.group.order ** p * cochain_dim(OD.dim, q)


def _check_group_order(OD: OrientedDialgebra, config: EngineConfig) -> None:
    if OD.group.order > config.max_group:
        raise ResourceLimitError(f"group order {OD.group.order} exceeds cap {config.max_group}")


def _check_group_degree(OD: OrientedDialgebra, p: int, config: EngineConfig) -> None:
    """Refuse a negative group degree, and one whose blocks are too big, before any |G|^p.

    A block next to degree p has at least |G|^p group slots, so with
    |G| >= 2 and p >= L, the bit length of the cap, it has at least 2^L
    rows and is refused without computing the power.
    """
    if p < 0:
        raise ValueError("group degree must be non-negative")
    cap = config.max_cochain_dim.bit_length() - 1
    if OD.group.order >= 2 and p > cap:
        raise ResourceLimitError(f"group degree {p} exceeds cap {cap}")


def _tuple_pos(t: tuple, m: int) -> int:
    pos = 0
    for g in t:
        pos = pos * m + g
    return pos


def _scaled_values(cols: list[dict], scale: int) -> list:
    """The values of each column times ``scale``, in the column's order."""
    if scale == 1:
        return [col.values() for col in cols]
    return [list(map(mul, col.values(), repeat(scale))) for col in cols]


def _write_horizontal(out: list, delta: list, slots: int, rows: int, cols: int,
                      row_off: int, col_off: int, scale: int) -> None:
    """Write scale·δ into each of ``slots`` group slots of a block at the offset."""
    values = _scaled_values(delta, scale)
    for t in range(slots):
        ro, co = row_off + t * rows, col_off + t * cols
        for col, target, vals in zip(delta, out[co:co + cols], values):
            target.update(zip(map(ro.__add__, col), vals))


def _write_vertical(out: list, acts: list, G, p: int, cd: int,
                    row_off: int, col_off: int, act_scale: int, id_scale: int) -> None:
    """Write the group-direction block (p, q) -> (p+1, q) at the offset.

    The first face acts by g1 on the cochain (``acts[g1]`` times
    ``act_scale``), the middle faces merge adjacent group arguments and
    the last face forgets the final argument (±``id_scale`` identities).
    """
    m = G.order
    values = [_scaled_values(a, act_scale) for a in acts]
    for gt in product(range(m), repeat=p + 1):
        ro = row_off + _tuple_pos(gt, m) * cd
        ident: dict = {}  # column slot -> coefficient of the identity there
        for i in range(1, p + 1):
            merged = _tuple_pos(gt[:i - 1] + (G.mul(gt[i - 1], gt[i]),) + gt[i + 1:], m)
            ident[merged] = ident.get(merged, 0) + (-1 if i % 2 else 1)
        last = _tuple_pos(gt[:p], m)
        ident[last] = ident.get(last, 0) + (-1 if (p + 1) % 2 else 1)
        slot = _tuple_pos(gt[1:], m)
        co = col_off + slot * cd
        block = out[co:co + cd]
        for col, target, vals in zip(acts[gt[0]], block, values[gt[0]]):
            target.update(zip(map(ro.__add__, col), vals))
        x = ident.pop(slot, 0) * id_scale
        if x:  # the identity shares its slot with the action: add, and drop zero sums
            for i, target in enumerate(block, ro):
                v = target.get(i, 0) + x
                if v:
                    target[i] = v
                else:
                    del target[i]
        for slot, x in ident.items():
            if x:
                co = col_off + slot * cd
                x *= id_scale
                for i, target in enumerate(out[co:co + cd], ro):
                    target[i] = x


def vertical_entries(
    OD: OrientedDialgebra, p: int, q: int, config: EngineConfig = DEFAULT_CONFIG
) -> SparseMap:
    """Group-direction coboundary (p, q) -> (p+1, q)."""
    if q < 1:
        raise ValueError("the reduced bicomplex keeps only q >= 1")
    _check_group_order(OD, config)
    _check_group_degree(OD, p, config)
    m = OD.group.order
    _check_target_size(f"block ({p + 1}, {q})", bicochain_dim(OD, p + 1, q), config)
    cd = cochain_dim(OD.dim, q)
    sm = SparseMap(m ** (p + 1) * cd, m ** p * cd)
    acts = [act_entries(OD, g, q, config).columns for g in range(m)]
    _write_vertical(sm.columns, acts, OD.group, p, cd, 0, 0, 1, 1)
    return sm


def horizontal_entries(
    OD: OrientedDialgebra, p: int, q: int, config: EngineConfig = DEFAULT_CONFIG
) -> SparseMap:
    """Tree-direction coboundary (p, q) -> (p, q+1): delta in each group slot."""
    if q < 1:
        raise ValueError("the reduced bicomplex keeps only q >= 1")
    _check_group_degree(OD, p, config)
    _check_target_size(f"block ({p}, {q + 1})", bicochain_dim(OD, p, q + 1), config)
    slots = OD.group.order ** p
    delta = delta_entries(OD.base, q, config)
    sm = SparseMap(slots * delta.rows, slots * delta.cols)
    _write_horizontal(sm.columns, delta.columns, slots, delta.rows, delta.cols, 0, 0, 1)
    return sm


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


def _check_total(OD: OrientedDialgebra, n: int, config: EngineConfig) -> None:
    """The caps of Tot(n) -> Tot(n+1): the size of Tot(n+1) bounds every space the map
    touches, block (0, n+2), the target of the δ out of (0, n+1), included."""
    if n < 0:
        raise ValueError("total degree must be non-negative")
    _check_target_size(f"Tot({n + 1})", total_dim(OD, n + 1), config)
    _check_dialgebra_size(OD.dim, config)
    _check_group_order(OD, config)


def _total_maps(OD: OrientedDialgebra, degrees) -> list[tuple[SparseMap, int]]:
    """(L·Tot(n), L) for each n in ``degrees``; the caps are the caller's.

    The maps are built from the products times nL and the action matrices
    times nR, their common denominators, so L = lcm(nL, nR^(n+2)) and the
    map is L times D = ∂' + (-1)^q ∂'', blockwise, in integers.  Each δ_q
    and each action of an element on CY(q) is built once, for all the maps.
    """
    G, d, m = OD.group, OD.dim, OD.group.order
    nL, (left, right) = _scaled_products(OD.base)
    action, nR = _scaled_maps(OD.action)
    deltas: dict = {}
    acts: dict = {}
    maps = []
    for n in degrees:
        L = lcm(nL, nR ** (n + 2))
        src, dst = _block_offsets(OD, n), _block_offsets(OD, n + 1)
        cols: list[dict] = [{} for _ in range(total_dim(OD, n))]
        for p, q in total_blocks(OD, n):
            if q not in deltas:
                deltas[q] = _delta(left, right, d, q)
                acts[q] = [_act(action[g], action[G.inv(g)], G.sign(g), d, q) for g in range(m)]
            cd, sign, col = cochain_dim(d, q), (-1) ** q, src[(p, q)]
            _write_horizontal(cols, deltas[q], m ** p, cochain_dim(d, q + 1), cd,
                              dst[(p, q + 1)], col, L // nL)
            _write_vertical(cols, acts[q], G, p, cd, dst[(p + 1, q)], col,
                            sign * (L // nR ** (q + 1)), sign * L)
        maps.append((SparseMap(total_dim(OD, n + 1), total_dim(OD, n), columns=cols), L))
    return maps


def total_entries(
    OD: OrientedDialgebra, n: int, config: EngineConfig = DEFAULT_CONFIG
) -> SparseMap:
    """Total differential Tot(n) -> Tot(n+1): D = ∂' + (-1)^q ∂'' blockwise."""
    _check_total(OD, n, config)
    return _divided(*_total_maps(OD, [n])[0])


# ---------------------------------------------------------------------------
# cohomology


@dataclass
class CohomologyResult:
    dim: int
    representatives: list
    kernel_dim: int
    image_rank: int


def _quotient(
    d_out: SparseMap, d_in: SparseMap, fault: str = "coboundaries do not compose to zero"
) -> CohomologyResult:
    """Kernel of d_out modulo image of d_in, with canonical representatives.

    ``nullspace(d_out, d_in, reduced=False)`` seeds the elimination with
    the columns of d_in, which span the image inside the kernel, and
    multiplies the columns that extend their echelon by d_out exactly, all
    in one packed product.  That is the square check: it fails exactly
    when d_out·d_in ≠ 0, and
    ``fault`` names the failure.  It returns the kernel echelon before any
    back-substitution.  Everything after works in the k free coordinates of
    the canonical kernel basis: Kᵢ has 1 at its free column fᵢ, 0 at the
    other free columns, and fᵢ is its last nonzero entry.  The fᵢ are read
    off the echelon's keys.  A vector u in ker d_out is u = Σ u[fᵢ]·Kᵢ, and
    u ↦ u[F] is injective there: the rows F of d_in (``image``) have the
    rank of d_in, and the unit vectors extend their column space exactly
    where the Kᵢ extend the column space of d_in.  Only the kept Kᵢ, dim of
    the k, are back-substituted, by ``reduced_row``.  Each is divided once,
    by its entry at its largest key, which is its first nonzero entry, so
    a representative comes out with a leading 1.  Either map may carry a
    nonzero factor: the cohomology entry points pass integer multiples of
    the coboundaries, which have the same kernel, canonical kernel basis,
    rank and column space.
    """
    if d_out.cols != d_in.rows:
        raise ShapeMismatchError(
            f"cannot compose {d_out.rows}x{d_out.cols} with {d_in.rows}x{d_in.cols}")
    try:
        kernel = nullspace(d_out, d_in, reduced=False)
    except NonComplexError:
        raise NonComplexError(fault) from None
    k, last = len(kernel), d_out.rows + d_out.cols - 1
    keys = sorted(kernel, reverse=True)   # Kᵢ's tag key, fᵢ = last - key ascending
    free = {last - key: i for i, key in enumerate(keys)}   # fᵢ -> i
    image = SparseMap(k, d_in.cols, columns=[{free[r]: x for r, x in col.items() if r in free}
                                             for col in d_in.columns])
    units = SparseMap(k, k, columns=[{i: 1} for i in range(k)])
    image_rank = rank(image)
    keep = column_space_complement(image, units)
    rows = [reduced_row(kernel, keys[i]) for i in keep]
    reps = [scaled_vector(row, max(row), d_out.rows, d_out.cols) for row in rows]
    dim = k - image_rank
    if len(reps) != dim:
        raise RuntimeError(f"rank-nullity bookkeeping broke: {len(reps)} representatives, "
                           f"dimension {dim}")
    return CohomologyResult(dim, reps, k, image_rank)


def dialgebra_cohomology(
    D: Dialgebra, n: int, config: EngineConfig = DEFAULT_CONFIG
) -> CohomologyResult:
    """HY(n): kernel of the level-n coboundary modulo the image below.

    Both coboundaries are assembled from the products times nL, so they
    are nL·δ, in integers.
    """
    _check_delta(D, n, config)
    maps = [delta for delta, _ in _delta_maps(D, [n, n - 1] if n else [n])]
    d_in = maps[1] if n else SparseMap(cochain_dim(D.dim, 0), 0)
    return _quotient(maps[0], d_in)


def equivariant_cohomology(
    OD: OrientedDialgebra, n: int, config: EngineConfig = DEFAULT_CONFIG
) -> CohomologyResult:
    """Reduced equivariant cohomology at total degree n.

    Tot(n) and Tot(n-1) are assembled together in integers, from the
    products times nL and the action matrices times nR (see "sparse
    matrices").  The square of the total differential is verified to
    vanish exactly while Tot(n) is eliminated: the columns of Tot(n-1) seed
    the kernel elimination, and the independent ones are multiplied by
    Tot(n) in one packed product.  A nonzero square signals a
    sign-convention bug.
    """
    _check_total(OD, n, config)
    maps = [tot for tot, _ in _total_maps(OD, [n, n - 1] if n else [n])]
    d_in = maps[1] if n else SparseMap(total_dim(OD, 0), 0)
    return _quotient(maps[0], d_in, "total differential does not square to zero")


# ---------------------------------------------------------------------------
# the explicit degree-1 layer

# In degree 1 a cocycle is a pair (α, β) in Tot(1) = C^{0,2} ⊕ C^{1,1}: α
# assigns to each group element a linear endomorphism, β is a pair of
# bilinear defect maps (one per level-2 tree).  α is carried as one Matrix
# per group element and β as the tensor pair (β at tree [2 1], β at tree
# [1 2]) — the ⊣ and ⊢ defects respectively.
#
# A packed (α, β) is a Tot(1) vector as the bicomplex lays it out
# (``_block_offsets``).  Block (0, 2) is CY(2), tree-major over Y(2) in
# canonical order: the flat β⊢ (tree [1 2]), then the flat β⊣ (tree
# [2 1]).  Block (1, 1) holds, for each g, the level-1 cochain x ↦ α(g)x,
# which is α(g)ᵀ flattened.  A γ in Tot(0) = CY(1) is γᵀ flattened the same
# way, so the total differential Tot(0) -> Tot(1) maps packed γ to packed
# (α, β) as it is.
#
# The explicit equations are the t¹ part of the deformation laws of the
# order-1 deformation of (α, β) (``_action_term``): ``degree1_residuals``
# reads power 1 of ``dialgebra._axiom_sides`` and ``oriented._law_sides``, in
# ints over one denominator per law, so a valid cocycle builds no Fraction.
# ``degree1_coboundary`` and ``extensions.cocycles_cohomologous`` run on the
# integer L·Tot(0) of ``_total_maps``.


def _degree1_betas(OD: OrientedDialgebra, alpha, beta) -> list:
    """(β⊣, β⊢) as validated tensors, once α is |G| d×d matrices and β a pair."""
    d, order = OD.dim, OD.group.order
    if len(alpha) != order or any(m.shape() != (d, d) for m in alpha):
        raise ShapeMismatchError(f"α must be {order} {d}x{d} matrices")
    if len(beta) != 2:
        raise ShapeMismatchError(f"β must be 2 tensors, not {len(beta)}")
    return [validated_tensor(d, T) for T in beta]


def degree1_pack(OD: OrientedDialgebra, alpha, beta) -> list:
    """Flatten (α, β) into the canonical Tot(1) coordinate vector."""
    beta_l, beta_r = _degree1_betas(OD, alpha, beta)
    return _flat([*beta_r, *beta_l]) + [x for a in alpha for x in a.transpose().entries]


def degree1_unpack(OD: OrientedDialgebra, vec: list):
    """Inverse of ``degree1_pack``."""
    if len(vec) != total_dim(OD, 1):
        raise ShapeMismatchError(f"a Tot(1) vector has {total_dim(OD, 1)} entries, not {len(vec)}")
    d, offsets = OD.dim, _block_offsets(OD, 1)
    beta_r, beta_l = _rows(_rows(_rows(vec[:offsets[(1, 1)]], d), d), d)
    alpha = [Matrix(d, d, block).transpose()
             for block in _rows(vec[offsets[(1, 1)]:], cochain_dim(d, 1))]
    return alpha, (beta_l, beta_r)


def _action_term(X: list, P: list, G, back: bool = False) -> list:
    """-X(g)·ρ(g) for each g, or -X(g)·ρ(g⁻¹) with ``back``, on integer matrices.

    The action part of the map between degree-1 pairs and order-1
    deformations: (α, β) is the deformation with mˡ₁ = β⊣, mʳ₁ = β⊢ and
    φ₁(g) = -α(g)ρ(g), and back, θ₁(g) = -φ₁(g)ρ(g⁻¹) recovers α.  With X
    over nX and ρ over nP, the result is over nX·nP.
    """
    return [[[-x for x in row] for row in _matmul(X[g], P[G.inv(g) if back else g])]
            for g in G.elements()]


# the labels of the axiom residuals in their output order, each with its
# index in ``dialgebra._AXIOMS``
_BETA_FAMILIES = (("beta-ll", 0), ("beta-lr", 2), ("beta-ml", 3), ("beta-rr", 1),
                  ("beta-outer", 4))


def degree1_residuals(OD: OrientedDialgebra, alpha, beta):
    """Residuals of the degree-1 cocycle equations, with labels.

    A residual is lhs - rhs of a deformation law at t¹, for the order-1
    deformation of (α, β):

    * ("group-cocycle", g, h, i, k): entry (k, i) of
      φ₁(gh) - φ₁(g)ρ(h) - ρ(g)φ₁(h);
    * ("left-defect" or "right-defect", g, i, j, k): the ε-twisted law of
      ⊣ or ⊢ on the basis pair (e_i, e_j), output k;
    * ("beta-ll", i, j, k, n) to ("beta-outer", ...): an axiom on the basis
      triple (e_i, e_j, e_k), output n.

    The products are scaled by nL·nB (nL for ⊣ and ⊢, nB for β) and the
    action by nA·nP (nA for α, nP for ρ).  The laws at t¹ need no g⁻¹, but
    an element without an inverse is refused: the equations are stated
    for a group.
    """
    D, G = OD.base, OD.group
    d, elements = D.dim, G.elements()
    rd, m = range(d), G.order
    beta_l, beta_r = _degree1_betas(OD, alpha, beta)
    for g in elements:
        G.inv(g)
    nL = _denominator(_flat([*D.left, *D.right]))
    nB = _denominator(_flat([*beta_l, *beta_r]))
    nM = nL * nB
    (A, nA), (P, nP) = _scaled_maps(alpha), _scaled_maps(OD.action)
    nF = nA * nP
    # mˡ = ⊣ + t·β⊣ and mʳ = ⊢ + t·β⊢ over nM, Φ(g) = ρ(g) + t·φ₁(g) over nF
    products = [[_scaled(T, nM), _scaled(B, nM)] for T, B in ((D.left, beta_l), (D.right, beta_r))]
    Phi = [[[[nA * x for x in row] for row in p], f] for p, f in zip(P, _action_term(A, P, G))]
    sides = _axiom_sides(*products, [1]) + _law_sides(G, *products, Phi, nF, [1])
    *axioms, composition, left, right = [list(map(sub, lhs, rhs)) for (lhs,), (rhs,) in sides]
    labels = chain(
        product(("group-cocycle",), elements, elements, rd, rd),
        ((name, g, i, j, k) for g, i, j, name, k in
         product(elements, rd, rd, ("left-defect", "right-defect"), rd)),
        *(product((name,), rd, rd, rd, rd) for name, _ in _BETA_FAMILIES))
    # ("group-cocycle", g, h, i, k) is entry (k, i) of block (g, h): each block column by column
    values = [_rational(x, nF * nF) if x else 0 for b in range(0, len(composition), d * d)
              for i in rd for x in composition[b + i:b + d * d:d]]
    values += [_rational(x, nM * nF * nF) if x else 0
               for x in _interleaved([left, right], m * d * d)]
    for _, a in _BETA_FAMILIES:
        values += [_rational(x, nM * nM) if x else 0 for x in axioms[a]]
    return list(zip(labels, values))


def is_degree1_cocycle(OD: OrientedDialgebra, alpha, beta) -> Report:
    """Do (α, β) satisfy the explicit degree-1 cocycle equations exactly?

    The report holds one check; its witness lists every nonzero residual
    as a (label, value) pair, in the order of ``degree1_residuals``.
    """
    bad = [(label, v) for label, v in degree1_residuals(OD, alpha, beta) if v]
    return Report([Check("explicit cocycle equations", not bad, bad or None)])


def degree1_system(OD: OrientedDialgebra) -> Matrix:
    """The explicit equations as one linear system on packed (α, β) vectors.

    The residual map is linear, so evaluating it on each coordinate unit
    vector yields the matrix; its nullspace is the explicit solution set,
    used as the independent cross-check of the total-differential kernel.
    """
    dim = total_dim(OD, 1)
    units = ([int(i == j) for i in range(dim)] for j in range(dim))
    cols = [[v for _, v in degree1_residuals(OD, *degree1_unpack(OD, u))] for u in units]
    return Matrix.from_rows(zip(*cols))


def degree1_coboundary(OD: OrientedDialgebra, gamma: Matrix):
    """The degree-0 coboundary of a linear map γ, as an (α, β) pair.

    α(g) = γ - g∘γ∘g⁻¹ (the group coboundary, with the sign it acquires
    inside the total differential) and β is the product defect
    x∘γy + γx∘y - γ(x∘y) of γ.  This is Tot(0)·γ, with γ packed as the
    level-1 cochain γᵀ flattened: the map is L·Tot(0) (``_total_maps``),
    γ is over nG, and each entry is divided by L·nG once.
    """
    d = OD.dim
    if gamma.shape() != (d, d):
        raise ShapeMismatchError(f"γ must be {d}x{d}")
    [(tot, L)], ((C,), nG) = _total_maps(OD, [0]), _scaled_maps([gamma])
    c = [x for col in zip(*C) for x in col]
    out = _apply(tot.columns, {j: y for j, y in enumerate(c) if y}, tot.rows)
    return degree1_unpack(OD, [_rational(x, L * nG) for x in out])
