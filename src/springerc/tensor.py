"""The d-fold tensor power of C^N (N = 2n+1) as an exact bimodule.

The rank-d signed permutation group acts on the monomial basis, indexed by
tuples (i_1..i_d) with entries in 1..N, in one of two conventions:

* ``swap``: the underlying permutation permutes tensor slots and the flip
  at slot k replaces i_k by N+1-i_k.  This is the action transported from
  the coordinate-flag model (geometry.FlagMatrix), so it is a pure
  permutation of basis vectors.
* ``sign``: slots are permuted the same way but the flip at slot k scales
  the basis vector by -1 exactly when i_k lies in 1..n+1.  The negated
  block is the (n+1)-dimensional one: with the flip twist of the character
  labelling on the first component, this is the unique block assignment
  under which the isotypic multiplicity of the bipartition (mu, nu) equals
  gl_dim(mu, n+1) * gl_dim(nu, n), and it is frozen by the golden
  per-component tables.

The two conventions are NOT conjugate: a single-factor swap flip has trace
+1 while a sign flip has trace -1.  The eigenbasis change of basis
conjugates the swap action into the sign action twisted by the flip
character; it and the commuting Lie-algebra actions are test oracles
(tests/dense.py).

What stays here is what `verify sw` runs: the integer-scaled isotypic
projectors, validated idempotent, and their ranks by fraction-free
elimination, which decompose the bimodule.  Multiplicities graded by flag
component need no matrix at all: they are sums of products of Kostka
numbers (partitions.graded_multiplicity).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .exact import bareiss_rank
from .hyperoctahedral import SignedPermutation, character_table, cycle_type, group_order, iter_group
from .limits import check_cells
from .partitions import Bipartition, enumerate_bipartitions, irr_dim

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


@lru_cache(maxsize=None)
def _projector_int(
    rho: Bipartition, n: int, d: int, convention: str
) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """Integer-scaled isotypic projector: returns (|W| * P / dim, dim, |W|).

    The accumulator A = sum_w chi_rho(w^-1) action(w) has integer entries;
    the true projector is P = (dim/|W|) A.  Idempotence of P is verified on
    the integer matrix as dim * A@A == |W| * A.  The cell ceiling is the
    one cost guard of the dense path; it runs before anything is built.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    if rho.size() != d:
        raise ValueError(f"|{rho}| = {rho.size()} but d = {d}")
    size = check_cells(n, d)
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


def projector_rank(rho: Bipartition, n: int, d: int, convention: str = "sign") -> int:
    acc, _dim, _order = _projector_int(rho, n, d, convention)
    return bareiss_rank([list(row) for row in acc])


def schur_weyl_decompose(n: int, d: int) -> dict[Bipartition, int]:
    """Multiplicity of each irreducible in the tensor bimodule.

    Each multiplicity is projector rank / irreducible dimension, an exact
    integer equal to gl_dim(first, n+1) * gl_dim(second, n).
    """
    out = {}
    for rho in enumerate_bipartitions(d):
        rank = projector_rank(rho, n, d, "sign")
        dim = irr_dim(rho)
        if rank % dim:
            raise ArithmeticError(
                f"rank {rank} of {rho}-projector is not a multiple of dim {dim}"
            )
        out[rho] = rank // dim
    return out
