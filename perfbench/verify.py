"""Independent correctness checks for the benchmark's operations.

Nothing here calls the engine's elimination.  Ranks are taken modulo the
Mersenne prime 2⁶¹ − 1 by sparse Gaussian elimination on dict rows, and
products are evaluated with the benchmark's own sparse and tensor code.
The engine supplies only the sparse matrices whose ranks are taken
(``delta_entries``, ``total_entries``, ``act_entries``).  A rank modulo p
never exceeds the rank over ℚ, and it differs only when p divides every
maximal nonzero minor, so equal dimensions certify the engine's answer.
"""

from __future__ import annotations

from fractions import Fraction

PRIME = (1 << 61) - 1


class CheckFailure(AssertionError):
    """An operation returned a wrong answer."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def modp(x) -> int:
    f = Fraction(x)
    return f.numerator * pow(f.denominator, -1, PRIME) % PRIME


# ---------------------------------------------------------------------------
# sparse matrices as {(row, col): value}


def modp_entries(entries: dict) -> dict:
    out = {}
    for key, v in entries.items():
        m = modp(v)
        if m:
            out[key] = m
    return out


def rank_modp(entries: dict) -> int:
    """Rank modulo PRIME of a sparse matrix given as {(row, col): value}."""
    rows: dict[int, dict[int, int]] = {}
    for (r, c), v in entries.items():
        m = modp(v)
        if m:
            rows.setdefault(r, {})[c] = m
    pivots: dict[int, dict[int, int]] = {}  # leading column -> row with leading entry 1
    for row in rows.values():
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], -1, PRIME)
                pivots[c] = {k: v * inv % PRIME for k, v in row.items()}
                break
            f = row[c]
            for k, v in piv.items():
                nv = (row.get(k, 0) - f * v) % PRIME
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def compose_modp(a: dict, b: dict) -> dict:
    """a·b modulo PRIME for sparse matrices already reduced mod PRIME."""
    by_row: dict[int, list] = {}
    for (k, j), v in b.items():
        by_row.setdefault(k, []).append((j, v))
    out: dict = {}
    for (i, k), u in a.items():
        for j, v in by_row.get(k, ()):
            key = (i, j)
            out[key] = (out.get(key, 0) + u * v) % PRIME
    return {k: v for k, v in out.items() if v}


def hstack(left: dict, left_cols: int, vectors: list) -> dict:
    """[left | v_1 | v_2 ...] as a sparse matrix."""
    out = dict(left)
    for j, v in enumerate(vectors):
        for i, x in enumerate(v):
            if x:
                out[(i, left_cols + j)] = x
    return out


def apply_exact(entries: dict, nrows: int, vec: list) -> list:
    out = [Fraction(0)] * nrows
    for (r, c), v in entries.items():
        x = vec[c]
        if x:
            out[r] += v * Fraction(x)
    return out


# ---------------------------------------------------------------------------
# cohomology


def check_quotient(d_out, d_in, dim: int, reps: list, what: str) -> None:
    """dim = (cols − rank d_out) − rank d_in; reps are independent cocycles.

    ``d_out`` and ``d_in`` are objects with ``rows``, ``cols`` and sparse
    ``entries``; ``d_in`` may be None at the bottom of a complex.
    """
    r_out = rank_modp(d_out.entries)
    r_in = rank_modp(d_in.entries) if d_in is not None else 0
    want = d_out.cols - r_out - r_in
    require(dim == want, f"{what}: dim {dim}, independent rank count gives {want}")
    require(len(reps) == dim, f"{what}: {len(reps)} representatives for dim {dim}")
    for i, v in enumerate(reps):
        require(len(v) == d_out.cols, f"{what}: representative {i} has wrong length")
        require(not any(apply_exact(d_out.entries, d_out.rows, v)),
                f"{what}: representative {i} is not annihilated by d_out")
    in_entries = d_in.entries if d_in is not None else {}
    in_cols = d_in.cols if d_in is not None else 0
    span = rank_modp(hstack(in_entries, in_cols, reps))
    require(span == r_in + dim,
            f"{what}: representatives are not independent modulo the image")


def invariant_dim(OD, n: int, delta, act) -> int:
    """dim H^{n+1}(CY(•≥1)^G, δ): the Maschke collapse of the bicomplex.

    Over ℚ a finite group has no higher cohomology, so the reduced
    bicomplex at total degree n has the cohomology of the invariant
    subcomplex at level n+1.  The invariants are the image of the
    Reynolds sum R = Σ_g g, and δ commutes with R, so
    dim = rank R_{n+1} − rank δ_{n+1} R_{n+1} − rank δ_n R_n (n ≥ 1).
    ``delta(q)`` and ``act(g, q)`` return sparse matrices.
    """
    def reynolds(q):
        total: dict = {}
        for g in OD.group.elements():
            for key, v in act(g, q).entries.items():
                total[key] = (total.get(key, 0) + modp(v)) % PRIME
        return {k: v for k, v in total.items() if v}

    top = reynolds(n + 1)
    dim = rank_modp(top) - rank_modp(compose_modp(modp_entries(delta(n + 1).entries), top))
    if n >= 1:
        low = reynolds(n)
        dim -= rank_modp(compose_modp(modp_entries(delta(n).entries), low))
    return dim


# ---------------------------------------------------------------------------
# the degree-1 layer, from the defining formulas


def fractions_of(rows) -> list:
    return [[Fraction(x) for x in row] for row in rows]


def matmul(A, B) -> list:
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def apply(A, v) -> list:
    return [sum(A[i][k] * v[k] for k in range(len(v))) for i in range(len(A))]


def bilinear(T, x, y) -> list:
    """The product with structure constants T[i][j][k] on coordinate vectors."""
    d = len(T)
    out = [Fraction(0)] * d
    for i in range(d):
        for j in range(d):
            c = x[i] * y[j]
            if c:
                for k in range(d):
                    out[k] += c * T[i][j][k]
    return out


def coboundary(bundle: dict, gamma) -> dict:
    """The coboundary D(γ) of a linear map γ, as a cocycle dict of Fractions.

    α(g) = γ − ρ(g) γ ρ(g⁻¹) and β(x, y) = γx ∘ y + x ∘ γy − γ(x ∘ y) for
    each of the two products: the shift of a section's cocycle when the
    section moves by γ, and the infinitesimal of Ψ = id + γ t + ….
    """
    G = bundle["group"]
    d = bundle["dialgebra"]["dim"]
    rho = [fractions_of(m) for m in bundle["action"]]
    gam = fractions_of(gamma)
    inverse = [row.index(0) for row in G["table"]]
    alpha = []
    for g in range(G["order"]):
        conj = matmul(matmul(rho[g], gam), rho[inverse[g]])
        alpha.append([[gam[i][j] - conj[i][j] for j in range(d)] for i in range(d)])
    basis = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    betas = []
    for key in ("left", "right"):
        T = _tensor(bundle["dialgebra"][key])
        beta = [[None] * d for _ in range(d)]
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                a = bilinear(T, apply(gam, x), y)
                b = bilinear(T, x, apply(gam, y))
                c = apply(gam, bilinear(T, x, y))
                beta[i][j] = [a[k] + b[k] - c[k] for k in range(d)]
        betas.append(beta)
    return {"alpha": alpha, "beta_left": betas[0], "beta_right": betas[1]}


def _tensor(data):
    return [[[Fraction(x) for x in row] for row in plane] for plane in data]


def cocycle_values(cocycle: dict) -> dict:
    """A JSON cocycle (strings) as exact Fractions."""
    return {
        "alpha": [fractions_of(m) for m in cocycle["alpha"]],
        "beta_left": _tensor(cocycle["beta_left"]),
        "beta_right": _tensor(cocycle["beta_right"]),
    }


def cocycle_sum(a: dict, b: dict) -> dict:
    def add(x, y):
        if isinstance(x, list):
            return [add(u, v) for u, v in zip(x, y)]
        return x + y
    return {k: add(a[k], b[k]) for k in ("alpha", "beta_left", "beta_right")}
