"""The d-fold tensor power of C^N (N = 2n+1) as an exact bimodule.

Two commuting structures act on the monomial basis, indexed by tuples
(i_1..i_d) with entries in 1..N:

* the rank-d signed permutation group, in one of two conventions:

  - ``swap``: the underlying permutation permutes tensor slots and the flip
    at slot k replaces i_k by N+1-i_k.  This is the action transported from
    the coordinate-flag model (geometry.FlagMatrix), so it is a pure
    permutation of basis vectors.
  - ``sign``: slots are permuted the same way but the flip at slot k scales
    the basis vector by -1 exactly when i_k lies in 1..n+1.  The negated
    block is the (n+1)-dimensional one: with the flip twist of the
    character labelling on the first component, this is the unique block
    assignment under which the isotypic multiplicity of the bipartition
    (mu, nu) equals gl_dim(mu, n+1) * gl_dim(nu, n), and it is frozen by
    the golden per-component tables.

  The two conventions are NOT conjugate: a single-factor swap flip has
  trace +1 while a sign flip has trace -1.  Conjugating the swap action by
  the change of basis below yields the sign action twisted by the flip
  character delta, i.e. C^-1 swap(w) C = delta(w) sign(w).

* the Lie algebra gl_{n+1} (+) gl_n by matrix units acting through the
  Leibniz rule (sign convention basis blocks: 1..n+1 and n+2..N), and the
  involution-fixed generators e_i + f_{N-i}, f_i + e_{N-i}, h_i - h_{N-i}
  of sl_N (swap convention side).

All matrices are exact; isotypic projectors are validated idempotent and
ranks run through fraction-free elimination.  Multiplicities graded by
flag component need none of them: they are sums of products of Kostka
numbers, computed by partitions.graded_multiplicity (still importable from
here).  The coordinate-flag matrices indexing the monomial basis live in
geometry and are importable from here too.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .exact import ExactMatrix, bareiss_rank
from .geometry import (  # noqa: F401  (kept importable here)
    FlagMatrix,
    enumerate_flag_matrices,
    iter_flag_matrices,
    tensor_grading,
)
from .hyperoctahedral import (
    SignedPermutation,
    character_table,
    cycle_type,
    generators,
    group_order,
    iter_group,
)
from .limits import DEFAULT_MAX_CELLS, check_cells
from .partitions import Bipartition, enumerate_bipartitions, irr_dim
from .partitions import GradedDecomposition, graded_multiplicity  # noqa: F401  (kept importable here)

CONVENTIONS = ("swap", "sign")


@lru_cache(maxsize=None)
def tensor_basis(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All index tuples (i_1..i_d), entries 1..2n+1, in ascending lex order."""
    big_n = 2 * n + 1
    return tuple(itertools.product(range(1, big_n + 1), repeat=d))


@lru_cache(maxsize=None)
def basis_positions(n: int, d: int) -> dict:
    return {t: i for i, t in enumerate(tensor_basis(n, d))}


def _apply_swap(w: SignedPermutation, t: tuple[int, ...], big_n: int) -> tuple[int, ...]:
    out = [0] * len(t)
    for k, v in enumerate(t):
        if w.signs[k] < 0:
            v = big_n + 1 - v
        out[w.images[k] - 1] = v
    return tuple(out)


def _apply_sign(
    w: SignedPermutation, t: tuple[int, ...], negated_max: int
) -> tuple[tuple[int, ...], int]:
    out = [0] * len(t)
    coeff = 1
    for k, v in enumerate(t):
        if w.signs[k] < 0 and v <= negated_max:
            coeff = -coeff
        out[w.images[k] - 1] = v
    return tuple(out), coeff


def w_action_monomial(
    w: SignedPermutation, n: int, d: int, convention: str
) -> tuple[list[int], list[int]]:
    """The action as a basis permutation with coefficients.

    Returns (target, coeff): basis position p maps to position target[p]
    with scalar coeff[p].
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; use one of {CONVENTIONS}")
    if w.d != d:
        raise ValueError(f"element of rank {w.d} cannot act on {d} tensor slots")
    basis = tensor_basis(n, d)
    pos = basis_positions(n, d)
    big_n = 2 * n + 1
    target = [0] * len(basis)
    coeff = [1] * len(basis)
    for p, t in enumerate(basis):
        if convention == "swap":
            target[p] = pos[_apply_swap(w, t, big_n)]
        else:
            image, c = _apply_sign(w, t, n + 1)
            target[p] = pos[image]
            coeff[p] = c
    return target, coeff


def w_action_matrix(
    w: SignedPermutation,
    n: int,
    d: int,
    convention: str,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> ExactMatrix:
    """Dense matrix of the group element in the chosen convention."""
    size = check_cells(n, d, max_cells)
    target, coeff = w_action_monomial(w, n, d, convention)
    grid = [[0] * size for _ in range(size)]
    for p in range(size):
        grid[target[p]][p] = coeff[p]
    return ExactMatrix(grid)


def _leibniz_matrix(single: list[list[int]], n: int, d: int) -> ExactMatrix:
    # Sum over slots of I x .. x single x .. x I on the monomial basis.
    basis = tensor_basis(n, d)
    pos = basis_positions(n, d)
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
    max_cells: int = DEFAULT_MAX_CELLS,
) -> ExactMatrix:
    """Matrix unit E_{row,col} of gl_{n+1} (block 1) or gl_n (block 2).

    Block 1 occupies basis values 1..n+1 and block 2 the values n+2..2n+1;
    the unit acts across the d slots by the Leibniz rule.
    """
    check_cells(n, d, max_cells)
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


def involution_fixed_generators(
    n: int, d: int, max_cells: int = DEFAULT_MAX_CELLS
) -> dict[str, ExactMatrix]:
    """Leibniz matrices of the generators fixed by the flip involution of sl_N.

    For i = 1..2n these are E_i = e_i + f_{N-i}, F_i = f_i + e_{N-i} and
    H_i = h_i - h_{N-i}; the second half repeats the first up to the linear
    relations E_{2n+1-i} = F_i and H_{2n+1-i} = -H_i.
    """
    if n < 1:
        raise ValueError("needs n >= 1; there is no flip-fixed part at n = 0")
    check_cells(n, d, max_cells)
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


def change_of_basis(n: int, d: int, max_cells: int = DEFAULT_MAX_CELLS) -> ExactMatrix:
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
    check_cells(n, d, max_cells)
    if d < 1:
        raise ValueError("needs at least one tensor factor")
    single = single_factor_change_of_basis(n)
    c = single
    for _ in range(d - 1):
        c = c.kron(single)
    c_inv = c.inverse()
    for w in generators(d):
        lhs = c_inv @ w_action_matrix(w, n, d, "swap", max_cells) @ c
        rhs = w.flip_character() * w_action_matrix(w, n, d, "sign", max_cells)
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


@lru_cache(maxsize=None)
def _projector_int(
    rho: Bipartition, n: int, d: int, convention: str
) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """Integer-scaled isotypic projector: returns (|W| * P / dim, dim, |W|).

    The accumulator A = sum_w chi_rho(w^-1) action(w) has integer entries;
    the true projector is P = (dim/|W|) A.  Idempotence of P is verified on
    the integer matrix as dim * A@A == |W| * A.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    if rho.size() != d:
        raise ValueError(f"|{rho}| = {rho.size()} but d = {d}")
    size = (2 * n + 1) ** d
    table = character_table(d)
    dim = irr_dim(rho)
    order = group_order(d)
    acc = [[0] * size for _ in range(size)]
    for w in iter_group(d):
        chi = table.value(rho, cycle_type(w.inverse()))
        if chi == 0:
            continue
        target, coeff = w_action_monomial(w, n, d, convention)
        for p in range(size):
            acc[target[p]][p] += chi * coeff[p]
    _check_idempotent(acc, dim, order, rho)
    return tuple(tuple(row) for row in acc), dim, order


def _check_idempotent(acc, dim, order, rho):
    size = len(acc)
    cols = list(zip(*acc))
    for i in range(size):
        row = acc[i]
        support = [k for k in range(size) if row[k]]
        for j in range(size):
            col = cols[j]
            prod = sum(row[k] * col[k] for k in support)
            if dim * prod != order * acc[i][j]:
                raise ArithmeticError(
                    f"projector for {rho} is not idempotent at entry ({i},{j})"
                )


def isotypic_projector(
    rho: Bipartition,
    n: int,
    d: int,
    convention: str = "sign",
    max_cells: int = DEFAULT_MAX_CELLS,
) -> ExactMatrix:
    """The idempotent (dim/|W|) sum_w chi_rho(w^-1) action(w)."""
    check_cells(n, d, max_cells)
    acc, dim, order = _projector_int(rho, n, d, convention)
    scale = Fraction(dim, order)
    return ExactMatrix([[scale * x for x in row] for row in acc])


def projector_rank(
    rho: Bipartition,
    n: int,
    d: int,
    convention: str = "sign",
    max_cells: int = DEFAULT_MAX_CELLS,
) -> int:
    check_cells(n, d, max_cells)
    acc, _dim, _order = _projector_int(rho, n, d, convention)
    return bareiss_rank([list(row) for row in acc])


def schur_weyl_decompose(
    n: int, d: int, max_cells: int = DEFAULT_MAX_CELLS
) -> dict[Bipartition, int]:
    """Multiplicity of each irreducible in the tensor bimodule.

    Each multiplicity is projector rank / irreducible dimension, an exact
    integer equal to gl_dim(first, n+1) * gl_dim(second, n).
    """
    check_cells(n, d, max_cells)
    out = {}
    for rho in enumerate_bipartitions(d):
        rank = projector_rank(rho, n, d, "sign", max_cells)
        dim = irr_dim(rho)
        if rank % dim:
            raise ArithmeticError(
                f"rank {rank} of {rho}-projector is not a multiple of dim {dim}"
            )
        out[rho] = rank // dim
    return out
