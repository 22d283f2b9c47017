"""Signed permutations of rank d, their classes, and exact characters.

An element is a pair (perm, signs): perm is a bijection of {1..d} and
signs[k] is the +-1 attached to letter k+1, with the wreath-product law

    (p1, s1) * (p2, s2) = (p1 o p2, k |-> s1(p2(k)) * s2(k)).

Conjugacy classes are indexed by signed cycle types: a cycle is positive or
negative according to the product of the signs along it, giving a pair of
partitions (pos, neg) with |pos| + |neg| = d.

Irreducible characters are indexed by bipartitions (mu, nu) of d and built
by induction from the block subgroup W_a x W_b (a = |mu|, b = |nu|): the
symmetric-group character of mu is pulled back through the underlying
permutation of the first block and twisted by the flip character
delta(w) = (-1)^(number of sign flips); the character of nu is pulled back
untwisted on the second block.  Putting the twist on the first component
makes ((),(d)) the trivial character and ((d),()) the flip character, which
is the labelling the Springer map and all golden tables assume.

Induced values are evaluated with the coset-sum formula over explicit coset
representatives, one per a-subset of {1..d}; this stays exact and cheap for
every rank the table builder accepts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .limits import MAX_CHARACTER_TABLE_RANK, CostBoundExceeded
from .partitions import Bipartition, Partition, enumerate_bipartitions


class SignedPermutation:
    """A signed permutation of {1..d}."""

    __slots__ = ("images", "signs")

    def __init__(self, images, signs):
        images = tuple(int(x) for x in images)
        signs = tuple(int(x) for x in signs)
        d = len(images)
        if sorted(images) != list(range(1, d + 1)):
            raise ValueError(f"not a permutation of 1..{d}: {images}")
        if len(signs) != d or any(s not in (1, -1) for s in signs):
            raise ValueError(f"signs must be +-1 of length {d}: {signs}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "signs", signs)

    def __setattr__(self, name, value):
        raise AttributeError("SignedPermutation is immutable")

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
        inv_images = [0] * self.d
        inv_signs = [1] * self.d
        for k in range(self.d):
            j = self.images[k]
            inv_images[j - 1] = k + 1
            inv_signs[j - 1] = self.signs[k]
        return SignedPermutation(inv_images, inv_signs)

    def flip_character(self) -> int:
        """delta(w) = (-1)^(number of sign flips), a linear character."""
        out = 1
        for s in self.signs:
            out *= s
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedPermutation)
            and self.images == other.images
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash((self.images, self.signs))

    def __repr__(self) -> str:
        return f"SignedPermutation({list(self.window())})"

    def sort_key(self):
        return (self.images, self.signs)


@dataclass(frozen=True)
class SignedCycleType:
    """Conjugacy class label: partitions of positive and negative cycle lengths."""

    pos: Partition
    neg: Partition

    @property
    def total(self) -> int:
        return self.pos.size() + self.neg.size()

    def __str__(self) -> str:
        return f"{self.pos}|{self.neg}"

    def perm_sign(self) -> int:
        """Sign of the underlying permutation: (-1)^(d - number of cycles)."""
        return (-1) ** (self.total - len(self.pos) - len(self.neg))

    def sort_key(self):
        return (self.pos.parts, self.neg.parts)


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


def cycle_type(w: SignedPermutation) -> SignedCycleType:
    """Signed cycle type: the lengths of the positive and negative cycles."""
    pos, neg = [], []
    for _start, length, sign in _cycles(w):
        (pos if sign == 1 else neg).append(length)
    return SignedCycleType(
        Partition(sorted(pos, reverse=True)), Partition(sorted(neg, reverse=True))
    )


def conjugacy_class_labels(d: int) -> list[SignedCycleType]:
    """All class labels of rank d, in lexicographic order on (pos, neg)."""
    labels = [
        SignedCycleType(bp.first, bp.second) for bp in enumerate_bipartitions(d)
    ]
    labels.sort(key=SignedCycleType.sort_key)
    return labels


def class_representative(cls: SignedCycleType) -> SignedPermutation:
    """Canonical representative: consecutive cycles, one flip per negative cycle."""
    d = cls.total
    images = list(range(1, d + 1))
    signs = [1] * d
    cursor = 1

    def place(length: int, negative: bool):
        nonlocal cursor
        for i in range(length - 1):
            images[cursor - 1 + i] = cursor + i + 1
        images[cursor - 1 + length - 1] = cursor
        if negative:
            signs[cursor - 1 + length - 1] = -1
        cursor += length

    for part in cls.pos:
        place(part, False)
    for part in cls.neg:
        place(part, True)
    return SignedPermutation(images, signs)


def class_size(cls: SignedCycleType) -> int:
    """2^d d! divided by the centralizer order prod (2k)^m_k m_k!."""
    z = 1
    for partition in (cls.pos, cls.neg):
        for k, m in partition.multiplicities().items():
            z *= (2 * k) ** m * factorial(m)
    return group_order(cls.total) // z


@lru_cache(maxsize=None)
def _sym_character_betas(betas: tuple[int, ...], ctype: tuple[int, ...]) -> int:
    # Murnaghan-Nakayama on beta-numbers: removing a rim hook of length k
    # moves one beta down by k; the sign counts betas jumped over.
    if not ctype:
        return 1
    k, rest = ctype[0], ctype[1:]
    total = 0
    beta_set = set(betas)
    for b in betas:
        t = b - k
        if t < 0 or t in beta_set:
            continue
        crossings = sum(1 for x in betas if t < x < b)
        new = tuple(sorted((beta_set - {b}) | {t}, reverse=True))
        term = _sym_character_betas(new, rest)
        total += -term if crossings % 2 else term
    return total


def sym_group_character(shape: Partition, ctype: Partition) -> int:
    """Character of the symmetric group irreducible `shape` at class `ctype`."""
    if shape.size() != ctype.size():
        raise ValueError(f"size mismatch: |{shape}| vs |{ctype}|")
    length = len(shape)
    betas = tuple(shape[i] + (length - 1 - i) for i in range(length))
    return _sym_character_betas(betas, ctype.parts)


@lru_cache(maxsize=None)
def _split_coset_reps(d: int, a: int) -> tuple[SignedPermutation, ...]:
    # One representative per left coset of W_a x W_b: the order-preserving
    # placement of {1..a} onto each a-subset, all signs positive.
    reps = []
    for subset in itertools.combinations(range(1, d + 1), a):
        rest = [x for x in range(1, d + 1) if x not in subset]
        images = list(subset) + rest
        reps.append(SignedPermutation(images, (1,) * d))
    return tuple(reps)


def _block_cycle_types(y: SignedPermutation, a: int) -> tuple[Partition, Partition, int]:
    """Unsigned cycle types of y on 1..a and on a+1..d, and delta on 1..a.

    y must map each block to itself, so every cycle lies in one block, and
    the flip character of the first block is the product of its cycle signs.
    """
    first, second, delta = [], [], 1
    for start, length, sign in _cycles(y):
        if start <= a:
            first.append(length)
            delta *= sign
        else:
            second.append(length)
    return (
        Partition(sorted(first, reverse=True)),
        Partition(sorted(second, reverse=True)),
        delta,
    )


def character_value(rho: Bipartition, cls: SignedCycleType) -> int:
    """Exact character value of the irreducible `rho` at the class `cls`."""
    d = rho.size()
    if cls.total != d:
        raise ValueError(f"size mismatch: |{rho}| = {d} but class has total {cls.total}")
    if d == 0:
        return 1
    a = rho.first.size()
    g = class_representative(cls)
    total = 0
    for t in _split_coset_reps(d, a):
        y = t.inverse() * g * t
        if any(y.images[k] > a for k in range(a)):
            continue
        first, second, delta = _block_cycle_types(y, a)
        total += (
            sym_group_character(rho.first, first)
            * delta
            * sym_group_character(rho.second, second)
        )
    return total


@dataclass(frozen=True)
class CharacterTable:
    """Complete exact character table of the rank-d signed permutation group."""

    d: int
    rows: tuple[Bipartition, ...]
    cols: tuple[SignedCycleType, ...]
    values: dict
    class_sizes: dict

    def value(self, rho: Bipartition, cls: SignedCycleType) -> int:
        return self.values[(rho, cls)]

    def dim(self, rho: Bipartition) -> int:
        return self.values[(rho, self.identity_class())]

    def identity_class(self) -> SignedCycleType:
        return SignedCycleType(Partition([1] * self.d), Partition())

    @property
    def group_order(self) -> int:
        return group_order(self.d)


@lru_cache(maxsize=None)
def character_table(d: int) -> CharacterTable:
    if not 1 <= d <= MAX_CHARACTER_TABLE_RANK:
        raise CostBoundExceeded(
            f"character table rank {d} outside 1..{MAX_CHARACTER_TABLE_RANK}"
        )
    rows = tuple(enumerate_bipartitions(d))
    cols = tuple(conjugacy_class_labels(d))
    values = {
        (rho, cls): character_value(rho, cls) for rho in rows for cls in cols
    }
    sizes = {cls: class_size(cls) for cls in cols}
    return CharacterTable(d, rows, cols, values, sizes)


def _block_sizes(dcomp) -> tuple[int, ...]:
    # Blocks of the coset subgroup: the first n entries, then half the middle.
    n = dcomp.n
    return tuple(dcomp.entries[:n]) + (dcomp.entries[n] // 2,)


def _block_bounds(sizes) -> list[tuple[int, int]]:
    bounds, start = [], 1
    for s in sizes:
        bounds.append((start, start + s - 1))
        start += s
    return bounds


def _in_coset_subgroup(w: SignedPermutation, bounds) -> bool:
    # Plain symmetric blocks demand + signs; the last block allows any sign.
    for i, (lo, hi) in enumerate(bounds):
        last = i == len(bounds) - 1
        for k in range(lo, hi + 1):
            if not lo <= w.images[k - 1] <= hi:
                return False
            if not last and w.signs[k - 1] != 1:
                return False
    return True


def _subgroup_elements(d: int, bounds) -> list[SignedPermutation]:
    per_block = []
    for i, (lo, hi) in enumerate(bounds):
        size = hi - lo + 1
        last = i == len(bounds) - 1
        block = []
        for images in itertools.permutations(range(lo, hi + 1)):
            sign_choices = (
                itertools.product((1, -1), repeat=size) if last else [(1,) * size]
            )
            for signs in sign_choices:
                block.append((images, signs))
        per_block.append(block)
    out = []
    for combo in itertools.product(*per_block):
        images = list(range(1, d + 1))
        signs = [1] * d
        for (lo, _hi), (blk_images, blk_signs) in zip(bounds, combo):
            for off, (im, s) in enumerate(zip(blk_images, blk_signs)):
                images[lo - 1 + off] = im
                signs[lo - 1 + off] = s
        out.append(SignedPermutation(images, signs))
    return out


def coset_permutation_character(dcomp) -> dict[SignedCycleType, int]:
    """Permutation character of the action on cosets of the block subgroup.

    The subgroup attached to a symmetric composition places plain symmetric
    groups on consecutive blocks sized by the first n entries and a full
    signed-permutation group on a final block of half the middle entry, so
    the block sizes add up to d = total/2.  The value at a class is the
    number of cosets fixed by its representative.
    """
    d = dcomp.total // 2
    if d < 1:
        raise ValueError("composition total must be at least 2")
    if d > MAX_CHARACTER_TABLE_RANK:
        raise CostBoundExceeded(f"rank {d} above {MAX_CHARACTER_TABLE_RANK}")
    bounds = _block_bounds(_block_sizes(dcomp))
    subgroup = _subgroup_elements(d, bounds)
    seen: set = set()
    reps = []
    for w in sorted(iter_group(d), key=SignedPermutation.sort_key):
        if w in seen:
            continue
        reps.append(w)
        for h in subgroup:
            seen.add(w * h)
    out = {}
    for cls in conjugacy_class_labels(d):
        g = class_representative(cls)
        out[cls] = sum(
            1 for t in reps if _in_coset_subgroup(t.inverse() * g * t, bounds)
        )
    return out


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
            Fraction(table.class_sizes[c]) * values[c] * table.value(rho, c)
            for c in table.cols
        )
        mult = acc / order
        if mult.denominator != 1 or mult < 0:
            raise ValueError(
                f"not a character: multiplicity of {rho} came out {mult}"
            )
        out[rho] = int(mult)
    for c in table.cols:
        recon = sum(out[rho] * table.value(rho, c) for rho in table.rows)
        if recon != values[c]:
            raise ValueError(
                f"reconstruction mismatch at class {c}: {recon} != {values[c]}"
            )
    return out
