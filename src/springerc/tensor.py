"""The d-fold tensor power of C^N (N = 2n+1) as an exact bimodule.

The rank-d signed permutation group acts on the monomial basis, indexed by
tuples (i_1..i_d) with entries in 1..N: slots are permuted by the
underlying permutation, and the flip at slot k scales the basis vector by
-1 exactly when i_k lies in 1..n+1.  The negated block is the
(n+1)-dimensional one: with the flip twist of the character labelling on
the first component, this is the unique block assignment under which the
isotypic multiplicity of the bipartition (mu, nu) equals
gl_dim(mu, n+1) * gl_dim(nu, n), and it is frozen by the golden
per-component tables.

The coordinate-flag model (theta.iter_flag_matrices) carries another
action, a pure permutation of basis vectors in which the flip at slot k
replaces i_k by N+1-i_k (`_apply_swap`); `verify sw` counts its fixed
points.  The two actions are NOT conjugate: a single-factor swap flip has
trace +1 while a sign flip has trace -1.  The eigenbasis change of basis
conjugates the swap action into the sign action twisted by the flip
character; it, the swap projectors and the commuting Lie-algebra actions
are test oracles (tests/dense.py).

What stays here is what `verify sw` runs: the integer-scaled isotypic
projectors, validated idempotent, whose ranks, read as their traces,
decompose the bimodule.  A fixed ceiling on their modelled work,
MAX_PROJECTOR_WORK, refuses a point before any label or group element is
built.  Multiplicities graded by flag component need no matrix at all:
they are sums of products of Kostka numbers, built a table at a time by
partitions.graded_multiplicities.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .exact import _row_times, _sparse_rows
from .hyperoctahedral import SignedPermutation, character_table, cycle_type, group_order, iter_group
from .limits import CostBoundExceeded
from .labels import Bipartition
from .partitions import bipartition_counts, enumerate_bipartitions, irr_dim

MAX_PROJECTOR_WORK = 10_000_000  # about 1.6 s, at 0.16 microseconds per unit


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


def w_action_monomial(w: SignedPermutation, n: int, d: int) -> tuple[list[int], list[int]]:
    """The action as a basis permutation with signs.

    Returns (target, coeff): basis position p maps to position target[p]
    with scalar coeff[p].
    """
    if w.d != d:
        raise ValueError(f"element of rank {w.d} cannot act on {d} tensor slots")
    pos = basis_positions(n, d)
    target = []
    coeff = []
    for t in tensor_basis(n, d):
        image = [0] * d
        sign = 1
        for k, v in enumerate(t):
            if w.signs[k] < 0 and v <= n + 1:
                sign = -sign
            image[w.images[k] - 1] = v
        target.append(pos[tuple(image)])
        coeff.append(sign)
    return target, coeff


def _check_projector_work(n: int, d: int) -> None:
    """Refuse the projectors at (n, d) when their work exceeds MAX_PROJECTOR_WORK.

    Each of the #bipartitions(d) projectors walks the 2^d * d! group
    elements, applying each to the N^d basis tuples of d letters at a fixed
    cost of about 100 letters per element, then fills and checks an
    N^d x N^d accumulator.  So the work is

        #bipartitions(d) * (2^d * d! * (d * N^d + 100) + N^(2d)).

    Fitted at 0.16 microseconds per unit to the 20 timed decompositions
    over 5 ms, from (1000, 1) to (0, 6), the model read 0.66 to 1.5 times
    each one's time (Python 3.11, 2-CPU virtual machine).  The work grows
    with d, so checking the ranks 0..d in turn stops at the first one over
    the ceiling, and stays cheap for any d.
    """
    if n < 0 or d < 1:
        raise ValueError(f"projectors need n >= 0 and d >= 1, got n={n}, d={d}")
    for rank, labels in zip(range(d + 1), bipartition_counts()):
        cells = (2 * n + 1) ** rank
        if labels * (group_order(rank) * (rank * cells + 100) + cells * cells) > MAX_PROJECTOR_WORK:
            raise CostBoundExceeded(
                f"projector work at n={n}, d={d} exceeds the ceiling {MAX_PROJECTOR_WORK}"
            )


@lru_cache(maxsize=None)
def _scaled_projector(
    rho: Bipartition, n: int, d: int
) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """Integer-scaled isotypic projector: returns (|W| * P / dim, dim, |W|).

    The accumulator A = sum_w chi_rho(w^-1) action(w) has integer entries;
    the true projector is P = (dim/|W|) A.  The character is read at the
    class of w itself, since w^-1 has the same signed cycle type.
    Idempotence of P is verified on the integer matrix as
    dim * A@A == |W| * A.  The cost guard runs before anything is built.
    """
    if rho.size() != d:
        raise ValueError(f"|{rho}| = {rho.size()} but d = {d}")
    _check_projector_work(n, d)
    size = (2 * n + 1) ** d
    table = character_table(d)
    dim = irr_dim(rho)
    order = group_order(d)
    acc = [[0] * size for _ in range(size)]
    for w in iter_group(d):
        chi = table.value(rho, cycle_type(w))
        if chi == 0:
            continue
        target, coeff = w_action_monomial(w, n, d)
        for p in range(size):
            acc[target[p]][p] += chi * coeff[p]
    _check_idempotent(acc, dim, order, rho)
    return tuple(tuple(row) for row in acc), dim, order


def _check_idempotent(acc, dim, order, rho):
    rows = _sparse_rows(acc)
    for i, row in enumerate(rows):
        for j, (entry, prod) in enumerate(zip(acc[i], _row_times(row, rows, len(acc)))):
            if dim * prod != order * entry:
                raise ArithmeticError(
                    f"projector for {rho} is not idempotent at entry ({i},{j})"
                )


def projector_rank(rho: Bipartition, n: int, d: int) -> int:
    """Rank of the isotypic projector, read as its trace.

    The accumulator was checked idempotent entry by entry as it was built,
    and the rank of an idempotent is its trace (dim/|W|) * trace(A).
    """
    acc, dim, order = _scaled_projector(rho, n, d)
    rank, rest = divmod(dim * sum(row[i] for i, row in enumerate(acc)), order)
    if rest:
        raise ArithmeticError(f"trace of the {rho}-projector is not an integer")
    return rank


def schur_weyl_decompose(n: int, d: int) -> dict[Bipartition, int]:
    """Multiplicity of each irreducible in the tensor bimodule.

    Each multiplicity is projector rank / irreducible dimension, an exact
    integer equal to gl_dim(first, n+1) * gl_dim(second, n).  The cost
    guard runs before any label is enumerated.
    """
    _check_projector_work(n, d)
    out = {}
    for rho in enumerate_bipartitions(d):
        rank = projector_rank(rho, n, d)
        dim = irr_dim(rho)
        if rank % dim:
            raise ArithmeticError(
                f"rank {rank} of {rho}-projector is not a multiple of dim {dim}"
            )
        out[rho] = rank // dim
    return out
