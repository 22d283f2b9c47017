"""Brute-force oracles kept independent of the library code paths."""

import itertools
import json
from fractions import Fraction
from functools import lru_cache

from springerc.partitions import Partition


@lru_cache(maxsize=None)
def count_standard_tableaux(shape: tuple) -> int:
    """Count standard tableaux by recursing on removable corner cells."""
    if not shape:
        return 1
    total = 0
    for i in range(len(shape)):
        last_in_row = i == len(shape) - 1 or shape[i] > shape[i + 1]
        if not last_in_row:
            continue
        smaller = list(shape)
        smaller[i] -= 1
        total += count_standard_tableaux(tuple(x for x in smaller if x))
    return total


def count_semistandard_tableaux(shape: tuple, m: int) -> int:
    """Count fillings with entries <= m, rows weakly and columns strictly increasing."""
    rows = len(shape)
    if rows == 0:
        return 1
    if rows > m:
        return 0

    def fill(cells, grid):
        if not cells:
            return 1
        (i, j), rest = cells[0], cells[1:]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        total = 0
        for v in range(lo, m + 1):
            grid[i][j] = v
            total += fill(rest, grid)
        return total

    cells = [(i, j) for i in range(rows) for j in range(shape[i])]
    grid = [[0] * shape[i] for i in range(rows)]
    return fill(cells, grid)


def count_tableaux_with_content(shape: tuple, weight: tuple) -> int:
    """Count semistandard fillings of shape in which value i+1 occurs weight[i] times.

    Fills cell by cell in reading order, rows weakly and columns strictly
    increasing, spending the content as it goes; no sorting, no strips.
    """
    if sum(shape) != sum(weight):
        return 0
    cells = [(i, j) for i in range(len(shape)) for j in range(shape[i])]
    grid = [[0] * part for part in shape]
    left = list(weight)

    def fill(k):
        if k == len(cells):
            return 1
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        total = 0
        for v in range(lo, len(weight) + 1):
            if left[v - 1]:
                left[v - 1] -= 1
                grid[i][j] = v
                total += fill(k + 1)
                left[v - 1] += 1
        return total

    return fill(0)


def naive_rank(rows) -> int:
    """Plain Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for c in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def dominance_maximal_type_c(p: Partition):
    """Exhaustively find the dominance-greatest type-C partition below p."""
    from springerc.partitions import dominance_leq, enumerate_type_c

    below = [q for q in enumerate_type_c(p.size()) if dominance_leq(q, p)]
    best = [q for q in below if all(dominance_leq(other, q) for other in below)]
    assert len(best) == 1, f"no unique maximum below {p}"
    return best[0]


def graded_multiplicity_by_projector(rho, n: int, d: int) -> dict:
    """Reference for partitions.graded_multiplicity: ranks of projector blocks.

    The sign-convention action preserves the grading, so the isotypic
    projector is block-diagonal; each block rank divided by the irreducible
    dimension is an exact integer, and the blocks sum to the full
    multiplicity.  Returns {component: multiplicity}; callers check the sum
    against the closed form gl_dim(mu, n+1) * gl_dim(nu, n).
    """
    from dense import tensor_grading
    from springerc.exact import bareiss_rank
    from springerc.partitions import enumerate_sym_compositions
    from springerc.tensor import _projector_int, tensor_basis

    acc, dim, _order = _projector_int(rho, n, d, "sign")
    blocks: dict = {}
    for p, t in enumerate(tensor_basis(n, d)):
        blocks.setdefault(tensor_grading(t, n), []).append(p)
    per_weight = {}
    for dcomp in enumerate_sym_compositions(n, 2 * d):
        idx = blocks.get(dcomp, [])
        rank = bareiss_rank([[acc[i][j] for j in idx] for i in idx]) if idx else 0
        assert rank % dim == 0, f"graded rank {rank} of {rho} at {dcomp} not divisible by {dim}"
        per_weight[dcomp] = rank // dim
    return per_weight


def _n_statistic(parts) -> int:
    """n(lambda): the sum of (row index) * (row length), rows counted from 0."""
    return sum(i * part for i, part in enumerate(parts))


def b_invariant(rho) -> int:
    """Lowest degree of the coinvariant algebra holding the character (mu, nu).

    In this labelling (flip twist on the first component) it is
    2n(mu) + 2n(nu) + |mu|: 0 for the trivial character (-, (d)), d^2 for
    the sign character.
    """
    return 2 * _n_statistic(rho.first.parts) + 2 * _n_statistic(rho.second.parts) + rho.first.size()


def springer_fiber_dim(a: Partition) -> int:
    """dim B_u for a nilpotent of sp_{2d} with type-C partition a.

    From the centralizer dimension (sum of squared dual parts + odd parts)/2:
    dim B_u = (2 n(a) + number of odd parts) / 4, which is also
    (2d^2 - dim O)/2.
    """
    four_dim = 2 * _n_statistic(a.parts) + sum(1 for part in a.parts if part % 2)
    assert four_dim % 4 == 0, f"dim B_u of {a} is not an integer"
    return four_dim // 4


def partition_rule(parts):
    """The partition rule in four plain passes: ("ok", parts) or ("error", message).

    Convert, reject a negative part, reject an increase, drop the zeros.
    """
    parts = tuple(int(x) for x in parts)
    if any(x < 0 for x in parts):
        return "error", f"negative part in {parts}"
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        return "error", f"parts not weakly decreasing: {parts}"
    return "ok", tuple(x for x in parts if x > 0)


def theta_table(n: int, d: int, fmt: str, component=None) -> str:
    """The text of `theta --n n --d d --format fmt [--component ...]`.

    Rebuilt from itertools.product: the first d columns are a tuple over
    1..N, the last d its mirror image reversed, the grading counts the rows
    of all 2d columns, and the count line counts the rows listed.
    """
    big_n = 2 * n + 1
    rows = []
    for head in itertools.product(range(1, big_n + 1), repeat=d):
        columns = head + tuple(big_n + 1 - v for v in reversed(head))
        grading = tuple(columns.count(i) for i in range(1, big_n + 1))
        if component is None or grading == tuple(component):
            rows.append((columns, head, grading))

    def text(values):
        return ",".join(str(v) for v in values)

    if fmt == "json":
        matrices = [
            {"columns": list(c), "chi": text(h), "grading": text(g)} for c, h, g in rows
        ]
        return json.dumps({"count": len(rows), "matrices": matrices}, indent=2) + "\n"
    if fmt == "tsv":
        lines = ["columns\tchi\tgrading"]
        lines += [f"{text(c)}\t{text(h)}\t{text(g)}" for c, h, g in rows]
        lines.append(f"count\t{len(rows)}\t")
        return "\n".join(lines) + "\n"
    lines = []
    for k, (c, h, g) in enumerate(rows, 1):
        lines.append(f"matrix {k}: chi {text(h)}  grading {text(g)}")
        for i in range(1, big_n + 1):
            lines.append("  " + " ".join("1" if r == i else "0" for r in c))
    lines.append(f"count {len(rows)}")
    return "\n".join(lines) + "\n"
