"""Enumerations and counts of the labels, and the Kostka engine.

The labels themselves (Partition, Bipartition, SymComposition) and their
text formats are in `labels`.  Built here from them: the enumerations of
partitions, bipartitions, type-C partitions and symmetric compositions,
tableau numbers, the dimensions of the signed-permutation irreducibles
and of gl_m modules, Kostka numbers, dominance and the type-C collapse,
and the Kostka engine for multiplicities graded by flag component, with
its cost guard check_htop_work.

Every enumeration this module returns is lexicographic-descending so repeated
runs emit byte-identical tables.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, count, product
from math import comb, factorial

from .labels import Bipartition, Partition, SymComposition
from .limits import CostBoundExceeded

MAX_HTOP_WORK = 5_000_000


@lru_cache(maxsize=None)
def _partitions_desc(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for k in range(min(n, max_part), 0, -1):
        out.extend((k,) + rest for rest in _partitions_desc(n - k, k))
    return tuple(out)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in lexicographic-descending order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [Partition(p) for p in _partitions_desc(n, n if n else 1)]


def enumerate_bipartitions(d: int) -> list[Bipartition]:
    """All ordered pairs of partitions of total size d.

    Ordered by decreasing size of the first component, then lexicographic
    descending within each component.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    out = []
    for a in range(d, -1, -1):
        seconds = enumerate_partitions(d - a)
        out += [Bipartition(p, q) for p in enumerate_partitions(a) for q in seconds]
    return out


def is_type_c(p) -> bool:
    """True iff |p| is even and every odd part occurs an even number of times.

    p is any tuple of parts.  Such partitions classify nilpotent orbits of
    the symplectic Lie algebra on a space of dimension |p|.
    """
    if sum(p) % 2:
        return False
    return all(p.count(v) % 2 == 0 for v in set(p) if v % 2)


def enumerate_type_c(two_d: int) -> list[Partition]:
    """All type-C partitions of the (even) integer two_d, descending."""
    if two_d % 2:
        raise ValueError(f"{two_d} is odd; type-C partitions have even size")
    return [Partition(p) for p in _partitions_desc(two_d, two_d) if is_type_c(p)]


@lru_cache(maxsize=None)
def enumerate_sym_compositions(n_param: int, big_d: int) -> tuple[SymComposition, ...]:
    """All mirror-symmetric compositions of big_d with 2*n_param+1 entries, lex-descending.

    Each is one composition h of big_d/2 into n_param+1 entries: the first
    n_param are the head, and the last is the slack, half the middle entry.
    The head's partial sums, weakly increasing in 0..big_d/2, come from
    itertools in lex order, and so do the h; reversed, they are in the
    table's order, and nothing is sorted.  Every multiplicity and report of
    one htop table walks the same components, so they are built once per
    (n_param, big_d) and shared as a tuple.
    """
    if big_d % 2:
        raise ValueError(f"total {big_d} must be even")
    if n_param < 0:
        raise ValueError("n_param must be nonnegative")
    half = big_d // 2
    sums = combinations_with_replacement(range(half + 1), n_param)
    heads = (tuple(map(int.__sub__, s, (0,) + s)) for s in sums)
    return tuple(SymComposition(h + (2 * (half - sum(h)),) + h[::-1]) for h in heads)[::-1]


def hook_lengths(p: Partition) -> list[list[int]]:
    """Hook length of every cell, as a list of rows."""
    d = p.dual()
    return [
        [(p[i] - j - 1) + (d[j] - i - 1) + 1 for j in range(p[i])]
        for i in range(len(p))
    ]


@lru_cache(maxsize=None)
def num_standard_tableaux(p: Partition) -> int:
    """Number of standard tableaux of shape p (hook length formula).

    A springer table asks for a few hundred shapes tens of thousands of
    times, so each count is kept per shape.
    """
    prod = 1
    for row in hook_lengths(p):
        for h in row:
            prod *= h
    return factorial(p.size()) // prod


def irr_dim(rho: Bipartition) -> int:
    """Dimension of the signed-permutation irreducible labelled rho.

    binomial(d, |first|) * f^first * f^second.
    """
    return (
        comb(rho.size(), rho.first.size())
        * num_standard_tableaux(rho.first)
        * num_standard_tableaux(rho.second)
    )


def gl_dim(p: Partition, m: int) -> int:
    """Dimension of the irreducible gl_m module with highest weight p.

    Computed by the hook-content formula; returns 0 when p has more than m
    rows, so sums over bipartitions can include out-of-range labels as
    zero-dimensional terms.
    """
    if len(p) > m:
        return 0
    numer = 1
    for i in range(len(p)):
        for j in range(p[i]):
            numer *= m + j - i
    denom = factorial(p.size()) // num_standard_tableaux(p)  # the product of the hooks
    if numer % denom:
        raise ArithmeticError(f"hook-content division not exact for {p}, m={m}")
    return numer // denom


def kostka(shape: Partition, weight) -> int:
    """Kostka number: semistandard tableaux of the shape with the given content.

    weight is any sequence of nonnegative integers, entry i counting the
    cells filled with i + 1.  The number does not depend on the order of
    the entries, so the cache is keyed on the sorted nonzero weight.
    """
    if any(x < 0 for x in weight):
        raise ValueError(f"negative entry in weight {tuple(weight)}")
    if sum(weight) != shape.size():
        return 0
    return _kostka(shape, _weight_key(weight))


def _weight_key(weight) -> tuple[int, ...]:
    return tuple(sorted(filter(None, weight), reverse=True))


@lru_cache(maxsize=None)
def _kostka(shape: tuple[int, ...], weight: tuple[int, ...]) -> int:
    # weight is a partition of |shape|; the cells holding its last (smallest)
    # value form a horizontal strip, so peel every such strip off the shape.
    if not dominance_leq(weight, shape):
        return 0
    if len(weight) <= 1:
        return 1
    gaps = [a - b for a, b in zip(shape, shape[1:] + (0,))]
    total = 0
    for strip in product(*(range(min(g, weight[-1]) + 1) for g in gaps)):
        if sum(strip) == weight[-1]:
            inner = tuple(x for x in (s - r for s, r in zip(shape, strip)) if x)
            total += _kostka(inner, weight[:-1])
    return total


def bipartition_counts():
    """Yield the numbers of bipartitions of 0, 1, 2, ..., for the cost guards.

    The partition counts are read from the enumerator the engines reuse, so
    a guard that stops at rank r has enumerated the partitions of r at most.
    """
    partitions = []  # p(0), p(1), ...: numbers of partitions
    for rank in count():
        partitions.append(len(_partitions_desc(rank, rank)))
        yield sum(map(int.__mul__, partitions, reversed(partitions)))


def check_htop_work(n: int, d: int) -> None:
    """Refuse a table whose Kostka-engine work exceeds MAX_HTOP_WORK.

    htop_table and graded_multiplicities run it at their top, and
    cmd_springer runs it at n = 0, since `springer --d` scans the same map
    as `htop --n 0`.  The model is the per-bipartition engine, which
    visits each (bipartition of d, component, beta) term once.  Those
    terms number #bipartitions(d) * C(d+2n, 2n).  Each bipartition also
    pays a fixed cost (the Springer scan, its dual, the component loop of
    its orbit), counted as d^2 terms, and every term handles
    length-(2n+1) tuples.  So the work is

        (2n+1) * #bipartitions(d) * (C(d+2n, 2n) + d^2),

    which ran at roughly one microsecond per unit.  The table engine shares
    each beta enumeration and Kostka row among the bipartitions, so the
    model bounds its work from above.  It grows with d, so checking the
    ranks 0..d in turn stops at the first one over the ceiling and stays
    cheap for any d.  The partition counts are read from the enumerator the
    engine then reuses; a refused table enumerates at most the partitions
    of 19.
    """
    for rank, bipartitions in zip(range(d + 1), bipartition_counts()):
        work = (2 * n + 1) * bipartitions * (comb(rank + 2 * n, 2 * n) + rank * rank)
        if work > MAX_HTOP_WORK:
            raise CostBoundExceeded(
                f"work at n={n}, d={d} exceeds the ceiling {MAX_HTOP_WORK}"
            )


def graded_multiplicities(n: int, d: int, labels) -> dict:
    """Multiplicities of each label in each grading block of the tensor space.

    Returns {rho: {component: multiplicity}} for the bipartitions rho of d
    in labels, components in enumeration order.  Under Schur-Weyl duality
    the block of the component D = (w_1..w_n, w_mid, w_n..w_1) is a torus
    weight space of gl_{n+1} (+) gl_n, so the multiplicity of rho = (mu, nu)
    there is the weight multiplicity (Macdonald, Symmetric Functions,
    I.5-I.6)

        sum over beta of K(mu, alpha) * K(nu, beta),

    with K the Kostka number, beta in N^n, beta_i <= w_i, |beta| = |nu| and
    alpha = (w_1 - beta_1, ..., w_n - beta_n, w_mid / 2).  Each component's
    betas are enumerated once, as the product of the ranges 0..w_i, and
    grouped by |beta|; each |nu| among the labels takes one Kostka row per
    distinct mu and per distinct nu over its group, so each multiplicity is
    the dot product of two rows.  Only the requested labels are computed.
    """
    check_htop_work(n, d)
    table: dict = {}
    by_size: dict[int, list[Bipartition]] = {}
    for rho in labels:
        if rho.size() != d:
            raise ValueError(f"|{rho}| = {rho.size()} but d = {d}")
        table[rho] = {}
        by_size.setdefault(rho.second.size(), []).append(rho)
    for dcomp in enumerate_sym_compositions(n, 2 * d):
        head = dcomp[:n]
        half_mid = (dcomp[n] // 2,)
        betas_by_size: dict = {}
        for b in product(*(range(w + 1) for w in head)):
            betas_by_size.setdefault(sum(b), []).append(b)
        for k, group in by_size.items():
            betas = betas_by_size.get(k, [])
            alphas = [_weight_key(tuple(map(int.__sub__, head, b)) + half_mid) for b in betas]
            betas = [_weight_key(b) for b in betas]
            mus = {mu: [_kostka(mu, a) for a in alphas] for mu in {r.first for r in group}}
            nus = {nu: [_kostka(nu, b) for b in betas] for nu in {r.second for r in group}}
            for rho in group:
                table[rho][dcomp] = sum(map(int.__mul__, mus[rho.first], nus[rho.second]))
    return table


def dominance_leq(a, b) -> bool:
    """True iff every prefix sum of a is at most the matching prefix sum of b.

    a and b are any tuples of nonnegative parts with equal totals, so the
    common prefixes decide: past the end of b every prefix of a is at most
    the total, and at the end of a its prefix is the total, which b's
    prefix there falls short of exactly when b has a positive part past
    the end of a.
    """
    if sum(a) != sum(b):
        raise ValueError(f"dominance needs equal sizes: |{a}|={sum(a)}, |{b}|={sum(b)}")
    return all(map(int.__le__, accumulate(a), accumulate(b)))


def type_c_collapse(p: Partition) -> Partition:
    """The dominance-greatest type-C partition below p (Collingwood-McGovern 6.3.3).

    While some odd value q has odd multiplicity (the largest such q first),
    lower the last part q by one and raise the first later part below q - 1
    by one, or append a part 1.  Each step moves one box down, which lowers
    the partition strictly in dominance order, so the loop ends.  At even
    size the odd values of odd multiplicity come in pairs, so q >= 3 and no
    part drops to 0.  Exhaustive search at small sizes confirms the output
    is dominance-maximal among type-C partitions of |p|.
    """
    size = sum(p)
    if size % 2:
        raise ValueError(f"collapse needs even size, got |{p}| = {size}")
    parts = list(p)
    while q := max((v for v in set(parts) if v % 2 and parts.count(v) % 2), default=0):
        parts[sum(x >= q for x in parts) - 1] -= 1
        k = sum(x >= q - 1 for x in parts)
        if k == len(parts):
            parts.append(1)
        else:
            parts[k] += 1
    return Partition(parts)
