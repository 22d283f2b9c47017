"""Cost guards shared by the heavier computations."""

from math import comb

DEFAULT_MAX_CELLS = 20000
MAX_CHARACTER_TABLE_RANK = 6
MAX_SPRINGER_TABLE_RANK = 18  # the largest d that htop --n 0 admits
MAX_HTOP_WORK = 5_000_000


class CostBoundExceeded(RuntimeError):
    """Raised when a requested computation exceeds a configured size bound."""


def check_cells(n: int, d: int, max_cells: int = DEFAULT_MAX_CELLS) -> int:
    """Return N**d (N = 2n+1) after checking it against the cell ceiling.

    The power is multiplied up only until it passes the ceiling, so any d is cheap.
    """
    big_n, cells = 2 * n + 1, 1
    for _ in range(d if big_n > 1 else 0):
        if cells > max_cells:
            break
        cells *= big_n
    if cells > max_cells:
        raise CostBoundExceeded(
            f"tensor space of dimension {big_n}^{d} exceeds the ceiling {max_cells}"
        )
    return cells


def check_htop_work(n: int, d: int) -> None:
    """Refuse an htop table whose Kostka-engine work exceeds MAX_HTOP_WORK.

    The model is the per-bipartition engine, which visits each (bipartition
    of d, component, beta) term once.  Those terms number
    #bipartitions(d) * C(d+2n, 2n).  Each bipartition also pays a fixed cost
    (the Springer scan, its dual, the component loop of its orbit), counted
    as d^2 terms, and every term handles length-(2n+1) tuples.  So the work
    is

        (2n+1) * #bipartitions(d) * (C(d+2n, 2n) + d^2),

    which ran at roughly one microsecond per unit.  The table engine shares
    each beta enumeration and Kostka row among the bipartitions, so the
    model bounds its work from above.  It grows with d, so checking the
    ranks 0..d in turn stops at the first one over the ceiling and stays
    cheap for any d.  Nothing is enumerated and nothing is cached: the two
    public htop entries run it once each, at their top.
    """
    partitions = [1]  # p(0), p(1), ...: numbers of partitions
    for rank in range(d + 1):
        if rank:
            partitions.append(_next_partition_number(partitions))
        bipartitions = sum(partitions[i] * partitions[rank - i] for i in range(rank + 1))
        work = (2 * n + 1) * bipartitions * (comb(rank + 2 * n, 2 * n) + rank * rank)
        if work > MAX_HTOP_WORK:
            raise CostBoundExceeded(
                f"htop work at n={n}, d={d} exceeds the ceiling {MAX_HTOP_WORK}"
            )


def _next_partition_number(partitions: list[int]) -> int:
    # Euler's pentagonal number recurrence for p(m), m = len(partitions).
    m = len(partitions)
    total, k = 0, 1
    while k * (3 * k - 1) // 2 <= m:
        sign = 1 if k % 2 else -1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= m:
                total += sign * partitions[m - g]
        k += 1
    return total
