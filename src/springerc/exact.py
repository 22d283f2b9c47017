"""Rank of an integer matrix by fraction-free elimination.

`verify sw` ranks the integer-scaled isotypic projectors here: no
fractions and no floating point appear.  The dense rational matrices the
tests build (ExactMatrix) live with the test oracles, in tests/dense.py.
"""


def bareiss_rank(grid: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination.

    One-step Bareiss: after eliminating with pivot p the 2x2-determinant
    update is divided by the previous pivot, which is exact because every
    intermediate entry is a minor of the original matrix (up to the sign
    introduced by row swaps).
    """
    m = [list(row) for row in grid]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        row_r = m[r]
        p = row_r[c]
        for i in range(r + 1, n_rows):
            row_i = m[i]
            f = row_i[c]
            for j in range(c + 1, n_cols):
                row_i[j] = (p * row_i[j] - f * row_r[j]) // prev
            row_i[c] = 0
        prev = p
        r += 1
        if r == n_rows:
            break
    return r
