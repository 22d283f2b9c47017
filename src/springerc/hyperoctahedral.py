"""Signed permutations of rank d, their classes, and exact characters.

An element is a pair (perm, signs): perm is a bijection of {1..d} and
signs[k] is the +-1 attached to letter k+1, with the wreath-product law

    (p1, s1) * (p2, s2) = (p1 o p2, k |-> s1(p2(k)) * s2(k)).

Conjugacy classes are indexed by signed cycle types: a cycle is positive or
negative according to the product of the signs along it, giving a
bipartition pos|neg of d (the same `Bipartition` type that labels the
irreducibles).

Irreducible characters are indexed by bipartitions (mu, nu) of d and built
by induction from the block subgroup W_a x W_b (a = |mu|, b = |nu|): the
symmetric-group character of mu is pulled back through the underlying
permutation of the first block and twisted by the flip character
delta(w) = (-1)^(number of sign flips); the character of nu is pulled back
untwisted on the second block.  Putting the twist on the first component
makes ((),(d)) the trivial character and ((d),()) the flip character, which
is the labelling the Springer map and all golden tables assume.

The values follow the Murnaghan-Nakayama rule for signed permutations
(Geck-Pfeiffer, Characters of Finite Coxeter Groups and Iwahori-Hecke
Algebras, 10.3), which that induction gives: the class's signed cycles are
added one at a time, each as a rim hook of its length on one of the two
components, with sign (-1)^(betas jumped), times the cycle's sign when the
hook goes on the first component.  One cached recursion over a class's
cycles gives its whole column, keyed by the beta-numbers of both
components; no group element is built.  Coset permutation characters count
fixed flags from the class's cycles too.  All arithmetic is on integers.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from functools import lru_cache
from math import factorial, prod

from .limits import CostBoundExceeded
from .labels import Bipartition, Partition, integers
from .partitions import enumerate_bipartitions

MAX_CHARACTER_TABLE_RANK = 8  # column by column, character_table(9) takes about 0.5 s


class SignedPermutation(namedtuple("SignedPermutation", "images signs")):
    """A signed permutation of {1..d}."""

    __slots__ = ()

    def __new__(cls, images, signs):
        images = integers(images, "image")
        signs = integers(signs, "sign")
        d = len(images)
        if sorted(images) != list(range(1, d + 1)):
            raise ValueError(f"not a permutation of 1..{d}: {images}")
        if len(signs) != d or any(s not in (1, -1) for s in signs):
            raise ValueError(f"signs must be +-1 of length {d}: {signs}")
        return super().__new__(cls, images, signs)

    @property
    def d(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, d: int) -> "SignedPermutation":
        return cls(range(1, d + 1), (1,) * d)

    def window(self) -> tuple[int, ...]:
        return tuple(im * s for im, s in zip(self.images, self.signs))

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        if self.d != other.d:
            raise ValueError(f"rank mismatch: {self.d} vs {other.d}")
        images = tuple(self.images[j - 1] for j in other.images)
        signs = tuple(
            self.signs[other.images[k] - 1] * other.signs[k] for k in range(self.d)
        )
        return SignedPermutation(images, signs)

    def inverse(self) -> "SignedPermutation":
        # The letters k in the order of their images: the k sent to j is j-th.
        order = sorted(range(self.d), key=self.images.__getitem__)
        return SignedPermutation([k + 1 for k in order], [self.signs[k] for k in order])

    def flip_character(self) -> int:
        """delta(w) = (-1)^(number of sign flips), a linear character."""
        return prod(self.signs)

    def perm_sign(self) -> int:
        """Sign of the underlying permutation: (-1)^(d - number of cycles)."""
        return (-1) ** (self.d - sum(1 for _ in _cycles(self)))

    def __repr__(self) -> str:
        return f"SignedPermutation({list(self.window())})"


def iter_group(d: int):
    """All 2^d * d! elements in a fixed deterministic order."""
    for images in itertools.permutations(range(1, d + 1)):
        for signs in itertools.product((1, -1), repeat=d):
            yield SignedPermutation(images, signs)


def group_order(d: int) -> int:
    return (2**d) * factorial(d)


def _cycles(w: SignedPermutation):
    """(first letter, length, sign) of each cycle of w, by first letter.

    A cycle's sign is the product of the signs along it.
    """
    seen = [False] * w.d
    for start in range(1, w.d + 1):
        if seen[start - 1]:
            continue
        length, sign, k = 0, 1, start
        while not seen[k - 1]:
            seen[k - 1] = True
            sign *= w.signs[k - 1]
            length += 1
            k = w.images[k - 1]
        yield start, length, sign


def cycle_type(w: SignedPermutation) -> Bipartition:
    """Signed cycle type pos|neg: the lengths of the positive and negative cycles."""
    pos, neg = [], []
    for _start, length, sign in _cycles(w):
        (pos if sign == 1 else neg).append(length)
    return Bipartition(
        Partition(sorted(pos, reverse=True)), Partition(sorted(neg, reverse=True))
    )


def conjugacy_class_labels(d: int) -> list[Bipartition]:
    """All class labels pos|neg of rank d, in lexicographic order on (pos, neg)."""
    return sorted(enumerate_bipartitions(d))


def class_representative(cls: Bipartition) -> SignedPermutation:
    """Canonical representative: consecutive cycles, one flip per negative cycle."""
    images, signs = [], []
    for parts, sign in ((cls.first, 1), (cls.second, -1)):
        for length in parts:
            start = len(images) + 1
            images += [*range(start + 1, start + length), start]
            signs += [1] * (length - 1) + [sign]
    return SignedPermutation(images, signs)


def class_size(cls: Bipartition) -> int:
    """2^d d! divided by the centralizer order prod (2k)^m_k m_k!."""
    z = 1
    for partition in (cls.first, cls.second):
        for k, m in Counter(partition).items():
            z *= (2 * k) ** m * factorial(m)
    return group_order(cls.size()) // z


def _signed_cycles(cls: Bipartition) -> tuple:
    """(length, sign) of each cycle of the class, positive cycles first."""
    return tuple((k, 1) for k in cls.first) + tuple((k, -1) for k in cls.second)


def _row_key(rho: Bipartition, length: int) -> tuple:
    """The `length` beta-numbers of each component of rho, decreasing."""
    padded = (parts + (0,) * (length - len(parts)) for parts in rho)
    return tuple(tuple(p + length - 1 - i for i, p in enumerate(row)) for row in padded)


def _add_hook(betas: tuple, k: int):
    """(betas, sign) for each way of adding a rim k-hook: one beta moves up
    by k to a free place, with sign (-1)^(betas jumped)."""
    for b in betas:
        t = b + k
        if t not in betas:
            moved = tuple(sorted([x for x in betas if x != b] + [t], reverse=True))
            yield moved, (-1) ** sum(1 for x in betas if b < x < t)


@lru_cache(maxsize=None)
def _column(cycles: tuple, length: int) -> dict:
    """{row key: value} at the class with these signed cycles, for every
    irreducible of rank sum(k) whose value there is not 0, by the rule in
    the module docstring.  Callers must not modify the dict."""
    if not cycles:
        delta = tuple(range(length - 1, -1, -1))
        return {(delta, delta): 1}
    (k, sign), rest = cycles[0], cycles[1:]
    column = {}
    for (first, second), value in _column(rest, length).items():
        for moved, hook_sign in _add_hook(first, k):
            key = (moved, second)
            column[key] = column.get(key, 0) + sign * hook_sign * value
        for moved, hook_sign in _add_hook(second, k):
            key = (first, moved)
            column[key] = column.get(key, 0) + hook_sign * value
    return {key: value for key, value in column.items() if value}


def character_value(rho: Bipartition, cls: Bipartition) -> int:
    """Exact character value of the irreducible `rho` at the class `cls`."""
    d = rho.size()
    if cls.size() != d:
        raise ValueError(f"size mismatch: |{rho}| = {d} but class has total {cls.size()}")
    return _column(_signed_cycles(cls), d).get(_row_key(rho, d), 0)


class CharacterTable(namedtuple("CharacterTable", "d rows cols values class_sizes")):
    """Complete exact character table of the rank-d signed permutation group."""

    __slots__ = ()

    def value(self, rho: Bipartition, cls: Bipartition) -> int:
        return self.values[(rho, cls)]

    def dim(self, rho: Bipartition) -> int:
        return self.values[(rho, self.identity_class())]

    def identity_class(self) -> Bipartition:
        return Bipartition(Partition([1] * self.d), Partition())

    @property
    def group_order(self) -> int:
        return group_order(self.d)


@lru_cache(maxsize=None)
def character_table(d: int) -> CharacterTable:
    if d < 1:
        raise ValueError(f"character table rank {d} is below 1")
    if d > MAX_CHARACTER_TABLE_RANK:
        raise CostBoundExceeded(f"rank {d} above {MAX_CHARACTER_TABLE_RANK}")
    rows = tuple(enumerate_bipartitions(d))
    cols = tuple(conjugacy_class_labels(d))
    keys = {rho: _row_key(rho, d) for rho in rows}
    columns = [(cls, _column(_signed_cycles(cls), d)) for cls in cols]
    values = {
        (rho, cls): column.get(keys[rho], 0) for rho in rows for cls, column in columns
    }
    sizes = {cls: class_size(cls) for cls in cols}
    return CharacterTable(d, rows, cols, values, sizes)


def coset_permutation_character(dcomp) -> dict[Bipartition, int]:
    """Permutation character of W on the flags of the component `dcomp`.

    The flags are the cosets of the component's block subgroup; g fixes a
    flag when each orbit of g on +-1..+-d lies in one row.  A positive
    k-cycle is two orbits swapped by negation, sent to a mirror pair of
    rows (i, N+1-i) in 2 ways or both to the middle; a negative k-cycle is
    one orbit closed under negation and goes to the middle row.
    """
    d = dcomp.total // 2
    if d < 1:
        raise ValueError("composition total must be at least 2")
    if d > MAX_CHARACTER_TABLE_RANK:
        raise CostBoundExceeded(f"rank {d} above {MAX_CHARACTER_TABLE_RANK}")
    head, middle = dcomp[: dcomp.n], dcomp[dcomp.n]
    labels = conjugacy_class_labels(d)
    return {cls: _fixed_flags(_signed_cycles(cls), head, middle) for cls in labels}


@lru_cache(maxsize=None)
def _fixed_flags(cycles: tuple, head: tuple, middle: int) -> int:
    # Ways to place the cycles in rows with `head` and `middle` room left.
    if not cycles:
        return 1  # the room left always equals the cycles' length: none
    (k, sign), rest = cycles[0], cycles[1:]
    total = _fixed_flags(rest, head, middle - 2 * k) if middle >= 2 * k else 0
    for i, room in enumerate(head):
        if sign == 1 and room >= k:
            total += 2 * _fixed_flags(rest, head[:i] + (room - k,) + head[i + 1 :], middle)
    return total


def decompose_character(values, table: CharacterTable) -> dict[Bipartition, int]:
    """Multiplicities of each irreducible in a class function.

    `values` must assign an integer to every class of the table.  Raises
    ValueError when any inner product is not a nonnegative integer or the
    multiplicities fail to reconstruct the input exactly, both of which mean
    the input was not a genuine character.
    """
    missing = [c for c in table.cols if c not in values]
    if missing:
        raise ValueError(f"values missing for classes: {missing}")
    order = table.group_order
    out = {}
    for rho in table.rows:
        acc = sum(
            table.class_sizes[c] * values[c] * table.value(rho, c) for c in table.cols
        )
        mult, rest = divmod(acc, order)
        if rest or mult < 0:
            raise ValueError(
                f"not a character: multiplicity of {rho} came out {acc}/{order}"
            )
        out[rho] = mult
    for c in table.cols:
        recon = sum(out[rho] * table.value(rho, c) for rho in table.rows)
        if recon != values[c]:
            raise ValueError(
                f"reconstruction mismatch at class {c}: {recon} != {values[c]}"
            )
    return out
