"""Exact integer matrices as sparse rows.

A matrix is held as its rows, each the list of its nonzero (column, entry)
pairs, so products of the integer-scaled isotypic projectors that `verify
sw` checks cost only their nonzero entries.  No fractions and no floating
point appear.  The dense rational matrices and the fraction-free (Bareiss)
rank the tests use as oracles live in tests/dense.py.
"""


def _sparse_rows(matrix) -> list[list[tuple[int, int]]]:
    """Each row of the matrix as the list of its nonzero (column, entry) pairs."""
    return [[(k, x) for k, x in enumerate(row) if x] for row in matrix]


def _row_times(row, rows, size: int) -> list[int]:
    """The dense row vector row * B, for B and row given as sparse rows."""
    out = [0] * size
    for k, x in row:
        for j, y in rows[k]:
            out[j] += x * y
    return out
