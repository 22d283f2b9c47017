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

A component is a SymComposition, the tuple of its entries; its coordinate
flags, which `theta` lists, are built in `theta`.  `htop_table` is the one
place where a component's emptiness over an orbit and its top degree are
found: a row's degree is None exactly when the fiber is empty.
"""

from __future__ import annotations

from collections import namedtuple

from .labels import Partition, SymComposition
from .partitions import (
    check_htop_work,
    dominance_leq,
    enumerate_sym_compositions,
    gl_dim,
    graded_multiplicities,
    is_type_c,
    type_c_collapse,
)
from .springer import springer_image


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


def richardson(dcomp: SymComposition) -> Partition:
    """The dense orbit in the moment-map image of the component.

    Computed as the type-C collapse of the dual of the sorted entries; the
    result is cross-checked against the independent flag-dimension formula
    (orbit dimension must be exactly twice the flag dimension).
    """
    sorted_parts = Partition(sorted(dcomp, reverse=True))
    orbit = type_c_collapse(sorted_parts.dual())
    if orbit_dim(orbit) != 2 * flag_dim(dcomp):
        raise ArithmeticError(
            f"{dcomp}: orbit {orbit} has dim "
            f"{orbit_dim(orbit)} but the flag variety has dim {flag_dim(dcomp)}"
        )
    return orbit


# Predicted top Borel-Moore homology dimensions for one orbit.  contributing
# holds (rho, rho_dual, dim of the dual isotypic piece); components holds one
# (component, degree, htop) row per component, in enumeration order, with
# degree None when the fiber is empty.  The CLI writes its three formats.
HtopReport = namedtuple("HtopReport", "orbit contributing components total")


def htop_table(n: int, d: int, orbit: Partition | None = None) -> list[HtopReport]:
    """Top-homology dimensions over every orbit of 2d, or over the one orbit given.

    The fiber over an orbit holds the bipartitions mapping to it; each
    contributes the graded multiplicities of its dual, whose sum must equal
    the closed form gl_dim(dual.first, n+1) * gl_dim(dual.second, n).
    Components whose image closure misses the orbit must come out exactly
    zero.  The orbit total is the sum of the closed forms; the per-component
    values add up to it by construction, since they sum the same checked
    rows.  The cost guard runs before anything is enumerated; the Springer
    map is then scanned once, the multiplicity table is built once, for the
    duals the requested orbits need, and each component's Richardson orbit
    and image dimension are found once, before the orbit loop.  A component
    misses the orbit unless the orbit lies below its Richardson orbit in
    dominance order; its row's degree is then None, and otherwise the image
    dimension minus the orbit dimension, both even.
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
    facts = [
        (dcomp, richardson(dcomp), 2 * flag_dim(dcomp))
        for dcomp in enumerate_sym_compositions(n, 2 * d)
    ]
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
        components = []
        for dcomp, rich, image_dim in facts:
            value = sum(table[dual][dcomp] for _, dual, _ in contributing)
            nonempty = dominance_leq(a, rich)
            if not nonempty and value != 0:
                raise ArithmeticError(
                    f"component {dcomp} misses orbit {a} but carries multiplicity {value}"
                )
            components.append((dcomp, image_dim - a_dim if nonempty else None, value))
        total = sum(dim for _, _, dim in contributing)
        reports.append(HtopReport(a, tuple(contributing), tuple(components), total))
    return reports
