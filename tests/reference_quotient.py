"""Cohomology from the exact rational maps, with each row or column made integral.

This is the quotient as the engine ran it before it assembled integer maps:
it takes the public rational maps (``delta_entries``, ``total_entries``),
scales each row of d_out and each column of d_in to integers by the least
common multiple of its denominators, checks the square and eliminates.
Scaling the rows of d_out keeps its kernel and scaling the columns of d_in
keeps its column space, so the parity tests require the engine's
``CohomologyResult`` to have the same ``repr``.

``sparse_map``, ``is_zero`` and ``same_map`` build a ``SparseMap`` from
(row, col) entries and test or compare maps by their columns, for this
reference and the tests.  ``leading_one`` scales a representative to a
leading 1 in ``Fraction`` arithmetic, apart from the engine's division.
"""

from fractions import Fraction
from math import lcm

from oridial import cohomology as coh
from oridial.linalg import (Matrix, NonComplexError, SparseMap, column_space_complement,
                            normalize_scalar, nullspace, rank)


def sparse_map(rows: int, cols: int, entries: dict) -> SparseMap:
    """The map with these (row, col) -> value entries; zero values are dropped."""
    columns = [{} for _ in range(cols)]
    for (r, c), x in entries.items():
        if x:
            columns[c][r] = x
    return SparseMap(rows, cols, columns)


def is_zero(m: SparseMap) -> bool:
    return not any(m.columns)


def same_map(a: SparseMap, b: SparseMap) -> bool:
    return (a.rows, a.cols, a.columns) == (b.rows, b.cols, b.columns)


def leading_one(v: list) -> list:
    """A nonzero vector divided by its first nonzero entry, in canonical scalars."""
    lead = Fraction(next(x for x in v if x))
    return [normalize_scalar(x / lead) for x in v]


def integral(sm: SparseMap, axis: int) -> SparseMap:
    """A copy with each row (axis 0) or column (axis 1) scaled to integers."""
    denoms: dict = {}
    for key, v in sm.entries.items():
        denoms[key[axis]] = lcm(denoms.get(key[axis], 1), v.denominator)
    return sparse_map(sm.rows, sm.cols, {
        key: v.numerator * (denoms[key[axis]] // v.denominator)
        for key, v in sm.entries.items()})


def reference_quotient(d_out, d_in, fault: str) -> coh.CohomologyResult:
    d_out, d_in = integral(d_out, 0), integral(d_in, 1)
    if not is_zero(d_out.mul(d_in)):
        raise NonComplexError(fault)
    kernel = nullspace(d_out)
    image_rank = rank(d_in)
    candidates = Matrix.from_rows(kernel).transpose()
    reps = [leading_one(kernel[i]) for i in column_space_complement(d_in, candidates)]
    return coh.CohomologyResult(len(kernel) - image_rank, reps, len(kernel), image_rank)


def reference_dialgebra_cohomology(D, n: int) -> coh.CohomologyResult:
    d_in = (coh.delta_entries(D, n - 1) if n
            else SparseMap(coh.cochain_dim(D.dim, 0), 0))
    return reference_quotient(coh.delta_entries(D, n), d_in,
                              "coboundaries do not compose to zero")


def reference_equivariant_cohomology(OD, n: int) -> coh.CohomologyResult:
    d_in = coh.total_entries(OD, n - 1) if n else SparseMap(coh.total_dim(OD, 0), 0)
    return reference_quotient(coh.total_entries(OD, n), d_in,
                              "total differential does not square to zero")
