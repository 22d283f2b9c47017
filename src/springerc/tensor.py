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

What stays here is what `verify sw` runs: scaled_projectors(n, d), every
integer-scaled isotypic projector of (n, d) built from one cached walk of
the group and validated idempotent, whose ranks, read as their traces,
decompose the bimodule.  A fixed ceiling on their modelled work,
MAX_PROJECTOR_WORK, refuses a point before any label or group element is
built.  Multiplicities graded by flag component need no matrix at all:
they are sums of products of Kostka numbers, built a table at a time by
partitions.graded_multiplicities.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod

from .exact import _row_times, _sparse_rows
from .hyperoctahedral import character_table, cycle_type, group_order, iter_group
from .limits import CostBoundExceeded
from .labels import Bipartition
from .partitions import bipartition_counts, enumerate_bipartitions, irr_dim

MAX_PROJECTOR_WORK = 10_000_000  # about 1.6 s, at 0.16 microseconds per unit


def _apply_swap(w: tuple, t: tuple[int, ...], big_n: int) -> tuple[int, ...]:
    images, signs = w
    out = [0] * len(t)
    for k, v in enumerate(t):
        if signs[k] < 0:
            v = big_n + 1 - v
        out[images[k] - 1] = v
    return tuple(out)


def w_action_monomial(w: tuple, n: int, d: int) -> tuple[list[int], list[int]]:
    """The action of w = (images, signs) as a basis permutation with signs.

    Returns (target, coeff): basis position p maps to position target[p]
    with scalar coeff[p].  The basis is the tuples of d letters 1..N in
    ascending lex order, so letter v in slot k adds (v-1) * N^(d-images[k])
    to the position of its image.
    """
    images, signs = w
    if len(images) != d:
        raise ValueError(f"element of rank {len(images)} cannot act on {d} tensor slots")
    big_n = 2 * n + 1
    places = [big_n ** (d - image) for image in images]
    flipped = [-1] * (n + 1) + [1] * n
    target = map(sum, itertools.product(*([v * place for v in range(big_n)] for place in places)))
    coeff = map(prod, itertools.product(*(flipped if s < 0 else [1] * big_n for s in signs)))
    return list(target), list(coeff)


def _check_projector_work(n: int, d: int) -> None:
    """Refuse the projectors at (n, d) when their work exceeds MAX_PROJECTOR_WORK.

    The model, fitted at 0.16 microseconds per unit when each projector
    walked the group itself, charges each of the #bipartitions(d) labels a
    walk of the 2^d * d! elements over the N^d basis tuples of d letters
    (plus about 100 letters per element) and an N^d x N^d accumulator:

        #bipartitions(d) * (2^d * d! * (d * N^d + 100) + N^(2d)).

    scaled_projectors walks once for all labels, so the model bounds it
    from above: at the largest admitted point of each rank, (1117, 1),
    (18, 2), (4, 3) and (1, 4), the fastest of 3 fresh processes took 1.5,
    1.3, 0.74 and 0.09 s (Python 3.11, 2-CPU virtual machine).  The work
    grows with d, so checking the ranks 0..d in turn stops at the first one
    over the ceiling, and stays cheap for any d.
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
def scaled_projectors(n: int, d: int) -> tuple[tuple[Bipartition, tuple, int], ...]:
    """Every integer-scaled isotypic projector at (n, d), from one walk of W.

    Returns (rho, A, dim) for each label in enumeration order, where
    A = |W| * P / dim = sum_w chi_rho(w^-1) action(w) has integer entries
    and P is the true projector.  The character is read at the class of w
    itself, since w^-1 has the same signed cycle type.  One walk records
    each element's class and action; the accumulators are then built one
    at a time, each verified idempotent as dim * A@A == |W| * A.  The cost
    guard runs before anything is built.
    """
    _check_projector_work(n, d)
    size = (2 * n + 1) ** d
    table = character_table(d)
    order = group_order(d)
    actions: dict[Bipartition, list] = {}
    for w in iter_group(d):
        actions.setdefault(cycle_type(w), []).append(w_action_monomial(w, n, d))
    out = []
    for rho in enumerate_bipartitions(d):
        dim = irr_dim(rho)
        acc = [[0] * size for _ in range(size)]
        for cls, elements in actions.items():
            chi = table.value(rho, cls)
            if chi == 0:
                continue
            for target, coeff in elements:
                for p in range(size):
                    acc[target[p]][p] += chi * coeff[p]
        _check_idempotent(acc, dim, order, rho)
        out.append((rho, tuple(tuple(row) for row in acc), dim))
    return tuple(out)


def _check_idempotent(acc, dim, order, rho):
    rows = _sparse_rows(acc)
    for i, row in enumerate(rows):
        for j, (entry, squared) in enumerate(zip(acc[i], _row_times(row, rows, len(acc)))):
            if dim * squared != order * entry:
                raise ArithmeticError(
                    f"projector for {rho} is not idempotent at entry ({i},{j})"
                )


def schur_weyl_decompose(n: int, d: int) -> dict[Bipartition, int]:
    """Multiplicity of each irreducible in the tensor bimodule.

    Each projector is idempotent, so its rank is its trace, and the
    multiplicity rank / dim is trace(A) / |W|: an exact integer equal to
    gl_dim(first, n+1) * gl_dim(second, n).
    """
    projectors = scaled_projectors(n, d)  # guards d before |W| is computed
    order = group_order(d)
    out = {}
    for rho, acc, _dim in projectors:
        mult, rest = divmod(sum(row[i] for i, row in enumerate(acc)), order)
        if rest:
            raise ArithmeticError(f"trace of the {rho}-projector is not a multiple of |W|")
        out[rho] = mult
    return out
