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
component's composition.  Each flag joins a left and a right half of its
index, each built once with its mirror and its row sums (flag_halves).
Two joins share the halves: iter_flag_matrices joins their tuples, and
`theta`'s tsv writer their formatted strings.  A single component is the
flags whose sums equal its entries.  One fixed ceiling, MAX_FLAG_CELLS,
bounds both the number of flags and the width of a row.

A component is a SymComposition, the tuple of its entries, so it is
compared with the row sums directly.  An HtopReport is a named tuple; json
would write it as an array, so the CLI writes it through to_json_dict.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from operator import add

from .limits import CostBoundExceeded
from .partitions import (
    Partition,
    SymComposition,
    check_htop_work,
    dominance_leq,
    enumerate_sym_compositions,
    gl_dim,
    graded_multiplicities,
    is_type_c,
    type_c_collapse,
)
from .springer import springer_image

MAX_FLAG_CELLS = 20_000  # bounds the flag count N^d and the width of one flag row


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
    corner, d = 0 at large n nor n = 0 at large d, gets through.  Every
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
    most MAX_FLAG_CELLS and N^d costs a few milliseconds at worst.
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
    return _half_heads(big_n, d - d // 2), list(_half_heads(big_n, d // 2))


def _half_heads(big_n: int, length: int):
    """(letters, mirrored letters reversed, row sums) for each word of that length, in lex order."""
    for letters in itertools.product(range(1, big_n + 1), repeat=length):
        counts = [0] * big_n
        for v in letters:
            counts[v - 1] += 1
            counts[big_n - v] += 1
        yield letters, tuple(big_n + 1 - v for v in reversed(letters)), tuple(counts)


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
    for entry in dcomp[:n]:
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
    sorted_parts = Partition(sorted(dcomp, reverse=True))
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


class HtopReport(namedtuple("HtopReport", "orbit contributing per_component degrees total")):
    """Predicted top Borel-Moore homology dimensions for one orbit.

    contributing holds (rho, rho_dual, dim of the dual isotypic piece);
    degrees maps each component to its degree, or None when the fiber is
    empty.
    """

    __slots__ = ()

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


def htop_table(n: int, d: int, orbit: Partition | None = None) -> list[HtopReport]:
    """Top-homology dimensions over every orbit of 2d, or over the one orbit given.

    The fiber over an orbit holds the bipartitions mapping to it; each
    contributes the graded multiplicities of its dual, whose sum must equal
    the closed form gl_dim(dual.first, n+1) * gl_dim(dual.second, n).
    Components whose image closure misses the orbit must come out exactly
    zero.  The orbit total is the sum of the closed forms; the per-component
    values add up to it by construction, since they sum the same checked
    rows.  The cost guard runs before anything is enumerated; the Springer
    map is then scanned once, and the multiplicity table is built once, for
    the duals the requested orbits need.
    """
    if n < 0 or d < 0:
        raise ValueError("n and d must be nonnegative")
    if orbit is not None and (orbit.size() != 2 * d or not is_type_c(orbit)):
        raise ValueError(f"{orbit} is not a type-C partition of {2 * d}")
    check_htop_work(n, d)
    image = springer_image(d)
    orbits = list(image) if orbit is None else [orbit]
    duals = {rho: rho.dual() for a in orbits for rho in image[a]}
    table = graded_multiplicities(n, d, duals.values())
    reports = []
    for a in orbits:
        contributing = []
        for rho in image[a]:
            dual = duals[rho]
            closed_dim = gl_dim(dual.first, n + 1) * gl_dim(dual.second, n)
            graded_total = sum(table[dual].values())
            if graded_total != closed_dim:
                raise ArithmeticError(
                    f"graded multiplicities of {dual} sum to {graded_total}, "
                    f"but the closed form gives {closed_dim}"
                )
            contributing.append((rho, dual, closed_dim))
        a_dim = orbit_dim(a)
        per_component, degrees = {}, {}
        for dcomp in enumerate_sym_compositions(n, 2 * d):
            value = sum(table[dual][dcomp] for _, dual, _ in contributing)
            nonempty = component_nonempty(a, dcomp)
            if not nonempty and value != 0:
                raise ArithmeticError(
                    f"component {dcomp} misses orbit {a} but carries multiplicity {value}"
                )
            per_component[dcomp] = value
            degrees[dcomp] = _semismall_degree(a_dim, dcomp) if nonempty else None
        total = sum(dim for _, _, dim in contributing)
        reports.append(HtopReport(a, tuple(contributing), per_component, degrees, total))
    return reports
