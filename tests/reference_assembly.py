"""The coboundary, action and bicomplex assembly as (row, col)-keyed dicts.

This is the assembly as the engine ran it before it stored its maps by
columns: ``delta`` walks the trees with ``face`` and ``leaf_orientation``
on every call, every builder writes a dict keyed by (row, col) tuples and
the block writers copy each entry through such a key.  The layout tests
require the engine's public maps and the integer maps it eliminates to
equal these dicts entry for entry.
"""

from itertools import product
from math import lcm

from oridial import cohomology as coh
from oridial.dialgebra import _scaled_maps, _scaled_products
from oridial.trees import LeafOrientation, enumerate_trees, face, leaf_orientation, tree_index


def delta(left: list, right: list, d: int, n: int) -> dict:
    """The entries of δ: CY(n) -> CY(n+1) built from the product tensors given."""
    e: dict = {}
    t_in = tree_index(n)
    dn = d ** n
    terms = {(o, s): coh._leaf_terms(T, s, d)
             for o, T in ((LeafOrientation.LEFT, left), (LeafOrientation.RIGHT, right))
             for s in (1, -1)}
    for ti, y in enumerate(enumerate_trees(n + 1)):
        spots = [(t_in[face(i, y).word] * dn, terms[leaf_orientation(i, y), -1 if i % 2 else 1])
                 for i in range(n + 2)]
        first_tree, first = spots[0][0], spots[0][1][0]
        last_tree, last = spots[n + 1][0], spots[n + 1][1][2]
        for mi, I in enumerate(product(range(d), repeat=n + 1)):
            row_base = (ti * d ** (n + 1) + mi) * d
            col_base = (first_tree + mi % dn) * d
            for m, k, x in first[I[0]]:
                key = (row_base + k, col_base + m)
                e[key] = e.get(key, 0) + x
            for i in range(1, n + 1):
                t_off, (_, inner, _) = spots[i]
                low = d ** (n - i)
                hi, lo = mi // (low * d * d) * (low * d), mi % low
                for m, x in inner[I[i - 1]][I[i]]:
                    col_base = (t_off + hi + m * low + lo) * d
                    for k in range(d):
                        key = (row_base + k, col_base + k)
                        e[key] = e.get(key, 0) + x
            col_base = (last_tree + mi // d) * d
            for m, k, x in last[I[n]]:
                key = (row_base + k, col_base + m)
                e[key] = e.get(key, 0) + x
    return {key: x for key, x in e.items() if x}


def act(rho: list, rho_inv: list, eps: int, d: int, n: int) -> dict:
    """The entries of the action on CY(n) of an element of sign ``eps``."""
    e: dict = {}
    rho_rows = [[(kp, w) for kp, w in enumerate(row) if w] for row in rho]
    inv_cols = [[(j, rho_inv[j][i]) for j in range(d) if rho_inv[j][i]] for i in range(d)]
    sign, perm = 1, list(range(coh.catalan(n)))
    if eps == -1:
        sign, perm = (-1) ** coh.sign_exponent(n), coh._mirror_perm(n)
    dn = d ** n
    for ti in range(coh.catalan(n)):
        for mi, I in enumerate(product(range(d), repeat=n)):
            row_base = (ti * dn + mi) * d
            for J_parts in product(*(inv_cols[i] for i in (I if eps == 1 else I[::-1]))):
                coeff, pos = sign, 0
                for j, v in J_parts:
                    coeff *= v
                    pos = pos * d + j
                col_base = (perm[ti] * dn + pos) * d
                for k, row in enumerate(rho_rows):
                    for kp, w in row:
                        e[row_base + k, col_base + kp] = coeff * w
    return e


def write_horizontal(e: dict, delta: dict, slots: int, rows: int, cols: int,
                     row_off: int, col_off: int, scale: int) -> None:
    """Write scale·δ into each of ``slots`` group slots of a block at the offset."""
    items = list(delta.items()) if scale == 1 else [(key, x * scale) for key, x in delta.items()]
    for t in range(slots):
        ro, co = row_off + t * rows, col_off + t * cols
        e.update({(r + ro, c + co): x for (r, c), x in items})


def write_vertical(e: dict, acts: list, G, p: int, cd: int,
                   row_off: int, col_off: int, act_scale: int, id_scale: int) -> None:
    """Write the group-direction block (p, q) -> (p+1, q) at the offset."""
    m = G.order
    scaled = [list(a.items()) if act_scale == 1 else [(key, x * act_scale) for key, x in a.items()]
              for a in acts]
    for gt in product(range(m), repeat=p + 1):
        ro = row_off + coh._tuple_pos(gt, m) * cd
        ident: dict = {}  # column slot -> coefficient of the identity there
        for i in range(1, p + 1):
            merged = coh._tuple_pos(gt[:i - 1] + (G.mul(gt[i - 1], gt[i]),) + gt[i + 1:], m)
            ident[merged] = ident.get(merged, 0) + (-1 if i % 2 else 1)
        last = coh._tuple_pos(gt[:p], m)
        ident[last] = ident.get(last, 0) + (-1 if (p + 1) % 2 else 1)
        slot = coh._tuple_pos(gt[1:], m)
        co = col_off + slot * cd
        block = {(r + ro, c + co): x for (r, c), x in scaled[gt[0]]}
        x = ident.pop(slot, 0) * id_scale
        if x:  # the identity shares its slot with the action: add, and drop zero sums
            for i in range(cd):
                key = (ro + i, co + i)
                v = block.get(key, 0) + x
                if v:
                    block[key] = v
                else:
                    del block[key]
        e.update(block)
        for slot, x in ident.items():
            if x:
                co = col_off + slot * cd
                x *= id_scale
                e.update({(ro + i, co + i): x for i in range(cd)})


def total(OD, n: int, left: list, right: list, action: list, nL: int = 1, nR: int = 1) -> dict:
    """lcm(nL, nR^(n+2)) times the entries of Tot(n) -> Tot(n+1)."""
    G, d, m = OD.group, OD.dim, OD.group.order
    L = lcm(nL, nR ** (n + 2))
    src, dst = coh._block_offsets(OD, n), coh._block_offsets(OD, n + 1)
    e: dict = {}
    for p, q in coh.total_blocks(OD, n):
        acts = [act(action[g], action[G.inv(g)], G.sign(g), d, q) for g in range(m)]
        cd, sign, col = coh.cochain_dim(d, q), (-1) ** q, src[(p, q)]
        write_horizontal(e, delta(left, right, d, q), m ** p, coh.cochain_dim(d, q + 1), cd,
                         dst[(p, q + 1)], col, L // nL)
        write_vertical(e, acts, G, p, cd, dst[(p + 1, q)], col,
                       sign * (L // nR ** (q + 1)), sign * L)
    return e


# the public maps, from the structure as it is


def delta_entries(D, n: int) -> dict:
    return delta(D.left, D.right, D.dim, n)


def act_entries(OD, g: int, n: int) -> dict:
    rho, rho_inv = OD.action[g], OD.action[OD.group.inv(g)]
    return act(rho.to_rows(), rho_inv.to_rows(), OD.sign(g), OD.dim, n)


def vertical_entries(OD, p: int, q: int) -> dict:
    e: dict = {}
    acts = [act_entries(OD, g, q) for g in range(OD.group.order)]
    write_vertical(e, acts, OD.group, p, coh.cochain_dim(OD.dim, q), 0, 0, 1, 1)
    return e


def horizontal_entries(OD, p: int, q: int) -> dict:
    e: dict = {}
    d = OD.dim
    write_horizontal(e, delta_entries(OD.base, q), OD.group.order ** p,
                     coh.cochain_dim(d, q + 1), coh.cochain_dim(d, q), 0, 0, 1)
    return e


def total_entries(OD, n: int) -> dict:
    D = OD.base
    return total(OD, n, D.left, D.right, [a.to_rows() for a in OD.action])


# the integer maps the cohomology entry points eliminate


def integer_delta(D, n: int) -> dict:
    """nL·δ_n from the products times their common denominator nL."""
    _, (left, right) = _scaled_products(D)
    return delta(left, right, D.dim, n)


def integer_total(OD, n: int) -> dict:
    """lcm(nL, nR^(n+2))·Tot(n) from the products over nL and the action over nR."""
    nL, (left, right) = _scaled_products(OD.base)
    action, nR = _scaled_maps(OD.action)
    return total(OD, n, left, right, action, nL, nR)
