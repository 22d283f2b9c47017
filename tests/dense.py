"""The dense N^d x N^d bimodule, kept as a test oracle.

Exact rational matrices ranked by fraction-free (Bareiss) elimination, the
group acting by dense matrices in both conventions, the Lie algebra
gl_{n+1} (+) gl_n by matrix units through the Leibniz rule, the generators
of sl_N fixed by the flip involution, and the eigenbasis change of basis
that intertwines the two conventions.  The basis, both monomial actions and
the projectors are built here from oracles.SignedPermutation, its group and
its coset characters, with no engine code: ``sign`` is the action the
package's projectors use, and ``swap`` is the permutation action of the
coordinate-flag model.  The package keeps only the integer sign-convention
projector accumulators that `verify sw` checks; scaled_projector is their
reference, one label at a time.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm

from oracles import (
    SignedPermutation,
    character_value_by_cosets,
    generators,
    group_elements,
    signed_cycle_type,
)
from springerc.labels import Bipartition, Partition, SymComposition
from springerc.limits import CostBoundExceeded

MAX_DENSE_SIZE = 1000  # basis vectors; an accumulator holds the square


@lru_cache(maxsize=None)
def tensor_basis(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All index tuples (i_1..i_d), entries 1..2n+1, in ascending lex order."""
    return tuple(itertools.product(range(1, 2 * n + 2), repeat=d))


def w_monomial(w, n: int, d: int, convention: str) -> tuple[list[int], list[int]]:
    """(target, coeff): w sends basis position p to target[p] with scalar coeff[p].

    The letter in slot k moves to slot images[k].  Where signs[k] is -1, the
    ``sign`` action negates the vector when that letter lies in 1..n+1, and
    the ``swap`` action replaces the letter v by N+1-v.
    """
    if convention not in ("sign", "swap"):
        raise ValueError(f"no convention {convention!r}")
    images, signs = SignedPermutation(*w)
    big_n = 2 * n + 1
    basis = tensor_basis(n, d)
    pos = {t: p for p, t in enumerate(basis)}
    target, coeff = [], []
    for t in basis:
        image, c = [0] * d, 1
        for k, v in enumerate(t):
            if signs[k] < 0 and convention == "swap":
                v = big_n + 1 - v
            elif signs[k] < 0 and v <= n + 1:
                c = -c
            image[images[k] - 1] = v
        target.append(pos[tuple(image)])
        coeff.append(c)
    return target, coeff


@lru_cache(maxsize=None)
def _monomials(n: int, d: int, convention: str) -> tuple:
    return tuple((w, *w_monomial(w, n, d, convention)) for w in group_elements(d))


def scaled_projector(rho: Bipartition, n: int, d: int, convention: str = "sign"):
    """(A, dim, |W|) with A = sum_w chi_rho(w^-1) action(w), summed over the group.

    A is a tuple of integer rows, |W| * P / dim for the true projector P.
    The characters are the oracle's coset sums, dim is the value at the
    identity, and |W| counts the oracle's group.
    """
    if rho.size() != d:
        raise ValueError(f"{rho} labels no projector at d = {d}")
    size = (2 * n + 1) ** d
    if size > MAX_DENSE_SIZE:
        raise CostBoundExceeded(f"{size} basis vectors exceed the dense ceiling {MAX_DENSE_SIZE}")
    chi = {}
    acc = [[0] * size for _ in range(size)]
    for w, target, coeff in _monomials(n, d, convention):
        cls = signed_cycle_type(w.inverse())
        if cls not in chi:
            chi[cls] = character_value_by_cosets(rho, cls)
        for p, (q, c) in enumerate(zip(target, coeff)):
            acc[q][p] += chi[cls] * c
    dim = character_value_by_cosets(rho, Bipartition(Partition([1] * d), Partition()))
    return tuple(map(tuple, acc)), dim, len(group_elements(d))


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


class ExactMatrix:
    """An immutable rows x cols matrix of Fractions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        rows = [tuple(Fraction(x) for x in row) for row in data]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self):
        return hash(self.data)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __mul__(self, scalar) -> "ExactMatrix":
        s = Fraction(scalar)
        return ExactMatrix([[s * x for x in row] for row in self.data])

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = list(zip(*other.data))
        return ExactMatrix(
            [
                [
                    sum(a * b for a, b in zip(row, col) if a and b)
                    for col in cols
                ]
                for row in self.data
            ]
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.data)))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum(self.data[i][i] for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def submatrix(self, row_idx, col_idx) -> "ExactMatrix":
        row_idx, col_idx = list(row_idx), list(col_idx)
        if not row_idx or not col_idx:
            raise ValueError("empty submatrix selection")
        return ExactMatrix(
            [[self.data[i][j] for j in col_idx] for i in row_idx]
        )

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        out = []
        for ra in self.data:
            for rb in other.data:
                out.append([a * b for a in ra for b in rb])
        return ExactMatrix(out)

    def to_int_grid(self) -> list[list[int]]:
        """Rescale each row by the lcm of its denominators (rank-preserving)."""
        grid = []
        for row in self.data:
            mult = lcm(*(x.denominator for x in row)) if row else 1
            grid.append([int(x * mult) for x in row])
        return grid

    def rank(self) -> int:
        return bareiss_rank(self.to_int_grid())

    def inverse(self) -> "ExactMatrix":
        """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
               for i, row in enumerate(self.data)]
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if piv is None:
                raise ValueError("matrix is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            inv_p = 1 / aug[col][col]
            aug[col] = [x * inv_p for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return ExactMatrix([row[n:] for row in aug])

    def _same_shape(self, other: "ExactMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")


def tensor_grading(idx: tuple[int, ...], n: int) -> SymComposition:
    """Component weights: entry i counts slots equal to i or to N+1-i."""
    big_n = 2 * n + 1
    counts = [0] * big_n
    for v in idx:
        counts[v - 1] += 1
        counts[big_n - v] += 1
    return SymComposition(counts)


def w_action_matrix(
    w: SignedPermutation,
    n: int,
    d: int,
    convention: str,
) -> ExactMatrix:
    """Dense matrix of the group element in the ``sign`` or ``swap`` convention."""
    target, coeff = w_monomial(w, n, d, convention)
    size = len(target)
    grid = [[0] * size for _ in range(size)]
    for p in range(size):
        grid[target[p]][p] = coeff[p]
    return ExactMatrix(grid)


def _leibniz_matrix(single: list[list[int]], n: int, d: int) -> ExactMatrix:
    # Sum over slots of I x .. x single x .. x I on the monomial basis.
    basis = tensor_basis(n, d)
    pos = {t: p for p, t in enumerate(basis)}
    big_n = 2 * n + 1
    size = len(basis)
    grid = [[0] * size for _ in range(size)]
    columns = [
        [(r, single[r][c]) for r in range(big_n) if single[r][c]]
        for c in range(big_n)
    ]
    for p, t in enumerate(basis):
        for k, v in enumerate(t):
            for r, val in columns[v - 1]:
                image = t[:k] + (r + 1,) + t[k + 1 :]
                grid[pos[image]][p] += val
    return ExactMatrix(grid)


def _unit(big_n: int, r: int, c: int) -> list[list[int]]:
    grid = [[0] * big_n for _ in range(big_n)]
    grid[r - 1][c - 1] = 1
    return grid


def g_action_matrix(
    block: int,
    row: int,
    col: int,
    n: int,
    d: int,
) -> ExactMatrix:
    """Matrix unit E_{row,col} of gl_{n+1} (block 1) or gl_n (block 2).

    Block 1 occupies basis values 1..n+1 and block 2 the values n+2..2n+1;
    the unit acts across the d slots by the Leibniz rule.
    """
    if block == 1:
        m = n + 1
        offset = 0
    elif block == 2:
        m = n
        offset = n + 1
    else:
        raise ValueError(f"block must be 1 or 2, got {block}")
    if not (1 <= row <= m and 1 <= col <= m):
        raise ValueError(f"indices ({row},{col}) out of range for block of size {m}")
    big_n = 2 * n + 1
    return _leibniz_matrix(_unit(big_n, offset + row, offset + col), n, d)


def _single_involution_fixed(n: int) -> dict[str, list[list[int]]]:
    big_n = 2 * n + 1
    out: dict[str, list[list[int]]] = {}
    for i in range(1, 2 * n + 1):
        e = _unit(big_n, i, i + 1)
        f_mirror = _unit(big_n, big_n + 1 - i, big_n - i)
        out[f"E{i}"] = [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(e, f_mirror)
        ]
        f = _unit(big_n, i + 1, i)
        e_mirror = _unit(big_n, big_n - i, big_n + 1 - i)
        out[f"F{i}"] = [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(f, e_mirror)
        ]
        h = [[0] * big_n for _ in range(big_n)]
        h[i - 1][i - 1] += 1
        h[i][i] -= 1
        h[big_n - i - 1][big_n - i - 1] -= 1
        h[big_n - i][big_n - i] += 1
        out[f"H{i}"] = h
    return out


def involution_fixed_generators(n: int, d: int) -> dict[str, ExactMatrix]:
    """Leibniz matrices of the generators fixed by the flip involution of sl_N.

    For i = 1..2n these are E_i = e_i + f_{N-i}, F_i = f_i + e_{N-i} and
    H_i = h_i - h_{N-i}; the second half repeats the first up to the linear
    relations E_{2n+1-i} = F_i and H_{2n+1-i} = -H_i.
    """
    if n < 1:
        raise ValueError("needs n >= 1; there is no flip-fixed part at n = 0")
    return {
        name: _leibniz_matrix(single, n, d)
        for name, single in _single_involution_fixed(n).items()
    }


def single_factor_change_of_basis(n: int) -> ExactMatrix:
    """Columns u_i^+ = e_i + e_{N+1-i}, then e_{n+1}, then u_i^- = e_i - e_{N+1-i}."""
    big_n = 2 * n + 1
    cols = []
    for i in range(1, n + 1):
        col = [0] * big_n
        col[i - 1] = 1
        col[big_n - i] = 1
        cols.append(col)
    mid = [0] * big_n
    mid[n] = 1
    cols.append(mid)
    for i in range(1, n + 1):
        col = [0] * big_n
        col[i - 1] = 1
        col[big_n - i] = -1
        cols.append(col)
    return ExactMatrix(list(zip(*cols)))


def change_of_basis(n: int, d: int) -> ExactMatrix:
    """The d-fold tensor power of the single-factor eigenbasis matrix.

    The returned C satisfies, for every group element w,

        C^-1 . swap(w) . C = delta(w) . sign(w),

    where delta is the flip character: the two conventions have flip traces
    of opposite sign, so they agree after the change of basis only up to
    delta.  On the Lie algebra side the conjugation is exact: C carries
    each involution-fixed generator of sl_N to a block matrix of
    gl_{n+1} (+) gl_n, which is checked before returning.  Any failed
    identity raises, since it would mean the convention calibration broke.
    """
    if d < 1:
        raise ValueError("needs at least one tensor factor")
    single = single_factor_change_of_basis(n)
    c = single
    for _ in range(d - 1):
        c = c.kron(single)
    c_inv = c.inverse()
    for w in generators(d):
        lhs = c_inv @ w_action_matrix(w, n, d, "swap") @ c
        rhs = w.flip_character() * w_action_matrix(w, n, d, "sign")
        if lhs != rhs:
            raise ValueError(
                f"change-of-basis conjugation failed on generator {w}"
            )
    if n >= 1:
        single_inv = single.inverse()
        for name, grid in _single_involution_fixed(n).items():
            conj = single_inv @ ExactMatrix(grid) @ single
            if not _is_block_diagonal(conj, n):
                raise ValueError(
                    f"conjugated generator {name} is not gl_(n+1)(+)gl_n block-diagonal"
                )
    return c


def _is_block_diagonal(m: ExactMatrix, n: int) -> bool:
    split = n + 1
    big_n = 2 * n + 1
    for i in range(big_n):
        for j in range(big_n):
            if (i < split) != (j < split) and m.entry(i, j) != 0:
                return False
    return True


def isotypic_projector(
    rho: Bipartition,
    n: int,
    d: int,
    convention: str = "sign",
) -> ExactMatrix:
    """The idempotent (dim/|W|) sum_w chi_rho(w^-1) action(w)."""
    acc, dim, order = scaled_projector(rho, n, d, convention)
    return ExactMatrix(acc) * Fraction(dim, order)
