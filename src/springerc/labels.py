"""The labels: partitions, bipartitions and symmetric compositions.

A type-C Partition labels a nilpotent orbit, a Bipartition an irreducible
character of the signed-permutation group, and a SymComposition a
connected component of the partial flag variety.

Text formats used by the CLI and all golden files:

* partition: comma-separated descending parts, ``2,1,1``; the empty
  partition is ``-`` (a bare ``0`` is accepted as another spelling of it)
* bipartition: two partition strings joined by ``|``, e.g. ``2,1|1``
* symmetric composition: comma-separated entries, ``1,1,0,1,1``

Every value here is a tuple.  Partition and SymComposition are tuple
subclasses that check their entries when built, so the engine passes them
wherever a tuple of parts is read, with no conversion; Bipartition is a
named tuple of its two partitions.  Each equals and hashes like the plain
tuple of its entries or fields, and like any tuple it would be read as an
argument list on the right of ``%``, so it is formatted with ``str`` or an
f-string instead.  An entry must be an integer: ``2.5`` is refused rather
than truncated, and so is ``2.0``.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index


def integers(values, what: str) -> tuple[int, ...]:
    """The values as a tuple of ints, refusing any that is not an integer.

    One pass in C, which truncates nothing; the error names the first
    value refused, as a `what` (part, entry, image, sign).
    """
    given = tuple(values)
    try:
        return tuple(map(index, given))
    except TypeError:
        bad = next(x for x in given if not hasattr(type(x), "__index__"))
        raise ValueError(f"non-integral {what} {bad!r} in {given}") from None


class Partition(tuple):
    """A weakly decreasing tuple of positive integers (possibly empty).

    A Partition is the tuple of its parts: it equals, hashes and orders
    like that tuple, and slicing it gives a plain tuple.  It adds the
    checks on construction, the text forms, size and dual.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        # The engine builds tens of thousands of partitions per table, so
        # each check is one pass in C.
        parts = integers(parts, "part")
        if parts and min(parts) < 0:
            raise ValueError(f"negative part in {parts}")
        if any(map(int.__lt__, parts, parts[1:])):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and not parts[-1]:
            parts = parts[: parts.index(0)]  # the zeros are a trailing block
        return super().__new__(cls, parts)

    def size(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def __str__(self) -> str:
        return ",".join(map(str, self)) if self else "-"

    def dual(self) -> "Partition":
        """Transpose of the diagram: column lengths become row lengths."""
        if not self:
            return Partition()
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        text = text.strip()
        if text in ("-", "", "0"):
            return cls()
        try:
            parts = [int(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"cannot parse partition {text!r}") from exc
        return cls(parts)


class Bipartition(namedtuple("Bipartition", "first second")):
    """An ordered pair of partitions; indexes irreducible characters."""

    __slots__ = ()

    def size(self) -> int:
        return self.first.size() + self.second.size()

    def dual(self) -> "Bipartition":
        return Bipartition(self.first.dual(), self.second.dual())

    def __str__(self) -> str:
        return f"{self.first}|{self.second}"

    @classmethod
    def from_string(cls, text: str) -> "Bipartition":
        halves = text.strip().split("|")
        if len(halves) != 2:
            raise ValueError(f"cannot parse bipartition {text!r}")
        return cls(Partition.from_string(halves[0]), Partition.from_string(halves[1]))


class SymComposition(tuple):
    """A tuple of 2n+1 nonnegative integers with c[i] = c[-1-i] and an even total.

    These index the connected components of the partial flag variety; the
    mirror symmetry together with the even total forces the middle entry
    to be even.  Like a Partition it is the tuple of its entries, and n and
    the total follow from them.
    """

    __slots__ = ()

    def __new__(cls, entries):
        entries = integers(entries, "entry")
        if len(entries) % 2 == 0:
            raise ValueError(f"composition {entries} must have odd length")
        if min(entries) < 0:
            raise ValueError(f"negative entry in {entries}")
        if entries != entries[::-1]:
            raise ValueError(f"entries not mirror-symmetric: {entries}")
        if sum(entries) % 2:
            raise ValueError(f"total of {entries} is odd")
        return super().__new__(cls, entries)

    @property
    def n(self) -> int:
        return len(self) // 2

    @property
    def total(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"SymComposition({tuple(self)})"

    def __str__(self) -> str:
        return ",".join(map(str, self))

    @classmethod
    def from_string(cls, text: str) -> "SymComposition":
        try:
            entries = tuple(int(tok) for tok in text.strip().split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse composition {text!r}") from exc
        return cls(entries)
