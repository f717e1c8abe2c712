"""The fixed reference computation that normalises time on a drifting host.

It does the engine's kind of work on fixed data and imports nothing from
the engine: a fraction-free (Bareiss) elimination of a 20 x 20 integer
matrix, a sum of Fractions, and sparse dict accumulation like the
engine's coboundary assembly.  One call takes about a millisecond on an
idle core.  Timed between operations, its median tracks how fast the
host runs Python during the same run, whatever the engine's code does.
"""

from __future__ import annotations

from fractions import Fraction

_N = 20


def _fixed_data():
    x = 12345
    rows = []
    for _ in range(_N):
        row = []
        for _ in range(_N):
            x = (x * 1103515245 + 12345) % 2 ** 31
            row.append((x >> 8) % 19 - 9)
        rows.append(row)
    fractions = [Fraction((7 * i) % 23 - 11, 1 + (5 * i) % 13) for i in range(150)]
    return rows, fractions


_ROWS, _FRACTIONS = _fixed_data()


def reference() -> tuple:
    """Run the fixed computation once; the result is fixed too."""
    rows = [list(r) for r in _ROWS]
    prev, top = 1, 0
    for c in range(_N):
        piv = next((i for i in range(top, _N) if rows[i][c]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        p, prow = rows[top][c], rows[top]
        for i in range(top + 1, _N):
            a, row = rows[i][c], rows[i]
            for j in range(c, _N):
                row[j] = (p * row[j] - a * prow[j]) // prev
        prev, top = p, top + 1
    total = Fraction(0)
    for f in _FRACTIONS:
        total += f
    acc: dict = {}
    for i, f in enumerate(_FRACTIONS):
        key = (i % 17, i % 5)
        v = acc.get(key, 0) + f
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
    return rows[_N - 1][_N - 1], total, len(acc)
