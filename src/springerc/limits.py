"""What the CLI parser needs before any engine loads, and the cell ceiling.

`CostBoundExceeded` and `DEFAULT_MAX_CELLS` are read at `--help`;
`check_cells` is shared by `geometry` and `tensor`.  Every other guard
sits beside the engine it sizes: the work model of the Kostka engine,
which `springer --d` shares, in `partitions`, the character-table rank
in `hyperoctahedral`, and the rank of the projectors' group pass in `tensor`.
"""

DEFAULT_MAX_CELLS = 20000


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
