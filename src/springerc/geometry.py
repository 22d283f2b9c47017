"""Dimension bookkeeping for symplectic nilpotent orbits and flag components.

The image of each partial-flag component under the moment map is the
closure of a Richardson orbit, computed here as the type-C collapse of the
dual of the sorted composition.  Its dimension must equal twice the flag
variety dimension (computed independently from the isotropic-Grassmannian
fibration), so the two formulas check each other on every component.

Top Borel-Moore homology sits in real degree 2c where c is the semismall
bound (image dimension minus orbit dimension, halved).  The predicted
dimension of that group, orbit by orbit and component by component, comes
from the graded isotypic multiplicities of the dual bipartitions in the
tensor bimodule.

Each component holds coordinate flags, 0/1 matrices whose first d columns
form a monomial basis index of the tensor space and whose row sums are the
component's composition.  iter_flag_matrices builds them one at a time, so
listing them all takes constant memory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .limits import DEFAULT_MAX_CELLS, CostBoundExceeded, check_cells, check_htop_work
from .partitions import (
    Partition,
    SymComposition,
    dominance_leq,
    enumerate_sym_compositions,
    gl_dim,
    graded_multiplicity,
    is_type_c,
    type_c_collapse,
)
from .springer import orbit_fiber


@dataclass(frozen=True)
class FlagMatrix:
    """A 0/1 matrix of shape N x 2d encoding a coordinate isotropic flag.

    Column j carries a single 1, in row col_rows[j-1]; the rows of the last
    d columns are forced by the centro-symmetry a[i][j] = a[N+1-i][2d+1-j].
    Row i sums to the i-th entry of the attached symmetric composition.
    """

    n: int
    d: int
    col_rows: tuple[int, ...]

    def __post_init__(self):
        big_n, rows = 2 * self.n + 1, tuple(self.col_rows)
        if len(rows) != 2 * self.d:
            raise ValueError(f"need {2 * self.d} columns, got {len(rows)}")
        if rows and not (1 <= min(rows) and max(rows) <= big_n):
            raise ValueError(f"row index out of range in {self.col_rows}")
        if rows[::-1] != tuple(big_n + 1 - r for r in rows):
            raise ValueError(f"columns not centro-symmetric: {self.col_rows}")

    def tensor_index(self) -> tuple[int, ...]:
        """The monomial basis index read off the first d columns."""
        return self.col_rows[: self.d]

    def row_sums(self) -> tuple[int, ...]:
        counts = [0] * (2 * self.n + 1)
        for r in self.col_rows:
            counts[r - 1] += 1
        return tuple(counts)

    def grading(self) -> SymComposition:
        return SymComposition(self.row_sums(), self.n)

    def entries(self) -> tuple[tuple[int, ...], ...]:
        big_n, big_d = 2 * self.n + 1, 2 * self.d
        return tuple(
            tuple(1 if self.col_rows[j] == i + 1 else 0 for j in range(big_d))
            for i in range(big_n)
        )


def iter_flag_matrices(
    n: int,
    d: int,
    dcomp: SymComposition | None = None,
    max_cells: int = DEFAULT_MAX_CELLS,
):
    """Iterate over the flag matrices, optionally those of one component.

    The first d columns range freely over rows 1..N in ascending lex order
    and determine the rest, so the full count is N^d.  The ceiling bounds
    both that count and the width of one row (2d columns and N grading
    entries), so neither corner, d = 0 at large n nor n = 0 at large d,
    gets through.  The ceiling and the component are checked when this is
    called, before the first matrix is asked for; the matrices are then
    built one at a time.
    """
    width = 2 * d + 2 * n + 1
    if width > max_cells:
        raise CostBoundExceeded(
            f"a flag row of {width} entries exceeds the ceiling {max_cells}"
        )
    check_cells(n, d, max_cells)
    if dcomp is not None and (dcomp.n != n or dcomp.total != 2 * d):
        raise ValueError(f"component {dcomp} does not match n={n}, total {2 * d}")
    return _flag_matrices(n, d, None if dcomp is None else dcomp.entries)


def _flag_matrices(n: int, d: int, row_sums):
    big_n = 2 * n + 1
    for head in itertools.product(range(1, big_n + 1), repeat=d):
        m = FlagMatrix(n, d, head + tuple(big_n + 1 - v for v in reversed(head)))
        if row_sums is None or m.row_sums() == row_sums:
            yield m


def orbit_dim(a: Partition) -> int:
    """Complex dimension of the nilpotent symplectic orbit of the partition a.

    dim sp_{2d} minus the centralizer dimension
    (sum of squared dual parts + number of odd parts) / 2.
    """
    if not is_type_c(a):
        raise ValueError(f"{a} is not a type-C partition")
    two_d = a.size()
    ambient = two_d * (two_d + 1) // 2
    dual = a.dual()
    odd = sum(1 for part in a if part % 2)
    centralizer = (sum(x * x for x in dual) + odd) // 2
    return ambient - centralizer


def flag_dim(dcomp: SymComposition) -> int:
    """Complex dimension of the isotropic partial flag variety of one component.

    The flag is determined by its isotropic half (cumulative dimensions
    m_1 <= ... <= m_k from the first n entries), which fibers over the
    isotropic Grassmannian of m_k-planes in C^{2d} with partial-flag fibers:

        dim = m_k(2d - m_k) - m_k(m_k - 1)/2 + sum_i m_i (m_{i+1} - m_i).
    """
    n = dcomp.n
    two_d = dcomp.total
    cum = []
    run = 0
    for entry in dcomp.entries[:n]:
        run += entry
        cum.append(run)
    if not cum:
        return 0
    last = cum[-1]
    dim = last * (two_d - last) - last * (last - 1) // 2
    for i in range(len(cum) - 1):
        dim += cum[i] * (cum[i + 1] - cum[i])
    return dim


@lru_cache(maxsize=None)
def richardson(dcomp: SymComposition) -> Partition:
    """The dense orbit in the moment-map image of the component.

    Computed as the type-C collapse of the dual of the sorted entries; the
    result is cross-checked against the independent flag-dimension formula
    (orbit dimension must be exactly twice the flag dimension).  The orbit
    depends on the component alone, so it is found, and checked, once per
    component per process; a failed check caches nothing.
    """
    sorted_parts = Partition(sorted(dcomp.entries, reverse=True))
    orbit = type_c_collapse(sorted_parts.dual())
    if orbit_dim(orbit) != 2 * flag_dim(dcomp):
        raise ArithmeticError(
            f"self-check failed for {dcomp}: orbit {orbit} has dim "
            f"{orbit_dim(orbit)} but the flag variety has dim {flag_dim(dcomp)}"
        )
    return orbit


def component_nonempty(a: Partition, dcomp: SymComposition) -> bool:
    """Whether the orbit meets the closure of the component image."""
    if a.size() != dcomp.total:
        raise ValueError(f"|{a}| = {a.size()} != component total {dcomp.total}")
    return dominance_leq(a, richardson(dcomp))


def top_degree(a: Partition, dcomp: SymComposition) -> int:
    """Real Borel-Moore degree 2c of the top homology over this component.

    c is the semismall bound (image_dim - orbit_dim)/2; requires the orbit
    to meet the component image.
    """
    if not component_nonempty(a, dcomp):
        raise ValueError(f"orbit {a} does not meet the image of component {dcomp}")
    return _semismall_degree(orbit_dim(a), dcomp)


def _semismall_degree(a_dim: int, dcomp: SymComposition) -> int:
    c = (2 * flag_dim(dcomp) - a_dim) // 2
    return 2 * c


@dataclass(frozen=True)
class HtopReport:
    """Predicted top Borel-Moore homology dimensions for one orbit."""

    orbit: Partition
    contributing: tuple  # (rho, rho_dual, dim of the dual isotypic piece)
    per_component: dict
    degrees: dict  # component -> degree, or None when the fiber is empty
    total: int

    def to_json_dict(self) -> dict:
        return {
            "orbit": str(self.orbit),
            "contributing": [
                {"rho": str(rho), "rho_dual": str(dual), "dim": dim}
                for rho, dual, dim in self.contributing
            ],
            "components": [
                {
                    "d": str(dcomp),
                    "degree": self.degrees[dcomp],
                    "htop": mult,
                }
                for dcomp, mult in self.per_component.items()
            ],
            "total": self.total,
        }


def htop_report(a: Partition, n: int, d: int, fiber=None) -> HtopReport:
    """Top-homology dimensions of the fiber over the orbit a, per component.

    Contributions come from the bipartitions mapping to a; each contributes
    the graded multiplicities of its dual, whose sum must equal the closed
    form gl_dim(dual.first, n+1) * gl_dim(dual.second, n).  Components whose
    image closure misses the orbit must come out exactly zero, and the
    orbit total is checked against the closed forms once more.

    fiber, when given, is springer_image(d)[a]: a caller building reports
    for many orbits scans the Springer map once.  Otherwise it is computed
    with orbit_fiber.
    """
    if a.size() != 2 * d:
        raise ValueError(f"|{a}| = {a.size()} but expected {2 * d}")
    if not is_type_c(a):
        raise ValueError(f"{a} is not a type-C partition")
    check_htop_work(n, d)
    if fiber is None:
        fiber = orbit_fiber(a, d)
    contributing = []
    graded = []
    for rho in fiber:
        dual = rho.dual()
        closed_dim = gl_dim(dual.first, n + 1) * gl_dim(dual.second, n)
        g = graded_multiplicity(dual, n, d)
        if g.total != closed_dim:
            raise ArithmeticError(
                f"graded multiplicities of {dual} sum to {g.total}, "
                f"but the closed form gives {closed_dim}"
            )
        contributing.append((rho, dual, closed_dim))
        graded.append(g)
    a_dim = orbit_dim(a)
    per_component = {}
    degrees = {}
    for dcomp in enumerate_sym_compositions(n, 2 * d):
        value = sum(g.per_weight[dcomp] for g in graded)
        # richardson self-checks the component's orbit dimension; one call
        # decides emptiness and the degree.
        nonempty = dominance_leq(a, richardson(dcomp))
        if not nonempty and value != 0:
            raise ArithmeticError(
                f"component {dcomp} misses orbit {a} but carries multiplicity {value}"
            )
        per_component[dcomp] = value
        degrees[dcomp] = _semismall_degree(a_dim, dcomp) if nonempty else None
    total_graded = sum(per_component.values())
    total_closed = sum(dim for _, _, dim in contributing)
    if total_graded != total_closed:
        raise ArithmeticError(
            f"orbit {a}: graded total {total_graded} != closed-form total {total_closed}"
        )
    return HtopReport(a, tuple(contributing), per_component, degrees, total_closed)
