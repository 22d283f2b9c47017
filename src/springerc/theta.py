"""The coordinate flags of each component, and the `theta` table that lists them.

Each component holds coordinate flags, 0/1 matrices whose first d columns
form a monomial basis index of the tensor space and whose row sums are the
component's composition.  Each flag joins a left and a right half of its
index, each built once with its mirror and its row sums (flag_halves).
Two joins share the halves: iter_flag_matrices joins their tuples, and
the tsv writer of write_table their formatted strings.  A single
component is the flags whose sums equal its entries.  Of two fixed ceilings,
MAX_FLAG_CELLS bounds both the number of flags and the width of a row,
and MAX_TABLE_CELLS their product, the entries of the whole table.

A component is a SymComposition, the tuple of its entries, so it is
compared with the row sums directly.  write_table streams: tsv and pretty
rows are written as the flags are built, a block at a time, so both take
constant memory.  It takes its writers from the tables module when it
runs, so importing this module loads neither the CLI nor those writers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add

from .labels import SymComposition
from .limits import CostBoundExceeded

MAX_FLAG_CELLS = 20_000  # bounds the flag count N^d and the width of one flag row
MAX_TABLE_CELLS = 8_000_000  # bounds N^d * (N + 2d), the entries of the whole table


def iter_flag_matrices(n: int, d: int, dcomp: SymComposition | None = None):
    """Iterate over the coordinate flags, optionally those of one component.

    A coordinate flag is a 0/1 matrix of shape N x 2d (N = 2n+1) with a
    single 1 in each column, in row columns[j-1] of column j.  It is
    centro-symmetric, a[i][j] = a[N+1-i][2d+1-j], so the first d columns,
    the monomial basis index of the tensor space, determine the rest.  Row
    i sums to row_sums[i-1]; these sums are the entries of its component.
    Each flag is yielded as the tuple (columns, row_sums).

    The first d columns range freely over rows 1..N in ascending lex order,
    so the full count is N^d.  MAX_FLAG_CELLS bounds both that count and
    the width of one row (2d columns and N grading entries), so neither
    corner, d = 0 at large n nor n = 0 at large d, gets through, and
    MAX_TABLE_CELLS bounds the count times the width.  Every
    check runs when this is called, before the first flag is asked for; the
    flags are then built one at a time.
    """
    left, right = flag_halves(n, d, dcomp)
    return (
        (head + tail + tail_mirror + head_mirror, sums)
        for head, head_mirror, left_sums in left
        for tail, tail_mirror, right_sums in right
        for sums in [tuple(map(add, left_sums, right_sums))]
        if dcomp is None or sums == dcomp
    )


def flag_halves(n: int, d: int, dcomp: SymComposition | None = None):
    """(left halves, right halves) of the flags, after iter_flag_matrices' checks.

    A head is a left half of d - d // 2 letters and a right half of d // 2,
    each (letters, mirrored letters reversed, row sums), both in lex order.
    The left halves stream; the shorter right halves are stored, so at d = 1
    no row sums are held twice.  The width is checked first, so N + 2d is at
    most MAX_FLAG_CELLS and N^d costs a few milliseconds at worst; their
    product is checked last.
    """
    if n < 0 or d < 0:
        raise ValueError("n and d must be nonnegative")
    if dcomp is not None and (dcomp.n != n or dcomp.total != 2 * d):
        raise ValueError(f"component {dcomp} does not match n={n}, total {2 * d}")
    width = 2 * d + 2 * n + 1
    if width > MAX_FLAG_CELLS:
        raise CostBoundExceeded(
            f"a flag row of {width} entries exceeds the ceiling {MAX_FLAG_CELLS}"
        )
    big_n = 2 * n + 1
    if big_n**d > MAX_FLAG_CELLS:
        raise CostBoundExceeded(
            f"tensor space of dimension {big_n}^{d} exceeds the ceiling {MAX_FLAG_CELLS}"
        )
    if big_n**d * width > MAX_TABLE_CELLS:
        raise CostBoundExceeded(
            f"{big_n}^{d} rows of {width} entries exceed the ceiling {MAX_TABLE_CELLS}"
        )
    return _half_heads(big_n, d - d // 2), list(_half_heads(big_n, d // 2))


def _half_heads(big_n: int, length: int):
    """(letters, mirrored letters reversed, row sums) for each word of that length, in lex order."""
    for letters in itertools.product(range(1, big_n + 1), repeat=length):
        counts = [0] * big_n
        for v in letters:
            counts[v - 1] += 1
            counts[big_n - v] += 1
        yield letters, tuple(big_n + 1 - v for v in reversed(letters)), tuple(counts)


def write_table(n: int, d: int, dcomp: SymComposition | None, fmt: str) -> None:
    """Write the `theta` table of the flags (of one component, if given) to stdout."""
    from .tables import _print_json, _write_blocks

    big_n = 2 * n + 1
    # Every check runs here, before the first byte of output.
    if fmt == "tsv":
        left, right = flag_halves(n, d, dcomp)
    else:
        flags = iter_flag_matrices(n, d, dcomp)
    # json and pretty fill one %-template per row, built once per command.
    chi = ",".join(["%d"] * d)
    # Few distinct gradings occur, so each is formatted once; with no right
    # half (d <= 1) every flag has its own, so none is kept.
    cached = lru_cache(maxsize=None if d > 1 else 0)
    frame = "\t%s\n" if fmt == "tsv" else "%s"  # a tsv grading ends its row

    @cached
    def grading(sums) -> str:
        return frame % ",".join(map(str, sums))

    if fmt == "json":
        matrices = [
            {"columns": list(cols), "chi": chi % cols[:d], "grading": grading(sums)}
            for cols, sums in flags
        ]
        _print_json({"count": len(matrices), "matrices": matrices})
        return

    def tsv():
        # A row is head + middle + head_mirror + tab + head + chi_tail +
        # grading; each right half has its middle and chi_tail.
        pieces = []
        for tail, mirror, _ in right:
            middle = ",".join(["", *map(str, tail + mirror), ""]) if d else ""
            pieces.append((middle, "".join(f",{v}" for v in tail)))

        @cached
        def row_gradings(left_sums):
            # None marks a right half whose sum with left_sums is not the component.
            sums = [tuple(map(add, left_sums, right_sums)) for _, _, right_sums in right]
            return [grading(s) if dcomp is None or s == dcomp else None for s in sums]

        yield "columns\tchi\tgrading\n"
        count = 0
        for head, head_mirror, left_sums in left:
            text = ",".join(map(str, head))
            after = ",".join(map(str, head_mirror)) + "\t" + text
            for (middle, chi_tail), ending in zip(pieces, row_gradings(left_sums)):
                if ending is not None:
                    count += 1
                    yield text + middle + after + chi_tail + ending
        yield f"count\t{count}\t\n"

    def pretty():
        # The grid has N lines of 2d cells; column j's 1 sits in line cols[j].
        header = "matrix %d: chi " + chi + "  grading %s\n"
        grid = ("  " + " ".join(["%s"] * 2 * d) + "\n") * big_n
        zeros = ["0"] * (big_n * 2 * d)
        count = 0
        for count, (cols, sums) in enumerate(flags, 1):
            cells = zeros.copy()
            for j, r in enumerate(cols):
                cells[(r - 1) * 2 * d + j] = "1"
            yield header % (count, *cols[:d], grading(sums)) + grid % tuple(cells)
        yield f"count {count}\n"

    _write_blocks(tsv() if fmt == "tsv" else pretty())
