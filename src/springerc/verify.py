"""Verification suites backing the `verify` CLI command.

Each suite imports its own engines, re-derives a family of identities with
independent machinery and yields one result per check; any failure carries
its exact values.  An engine self-check that raises stops its suite, and
`run_suite` reports it as that suite's one failed "engine self-check".
"""

from __future__ import annotations

import collections.abc
from collections import namedtuple
from operator import mul


class CheckResult(namedtuple("CheckResult", "name ok detail", defaults=("",))):
    """The outcome of one check: its name, whether it passed, and the values."""

    __slots__ = ()

    def line(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        return f"{mark}  {self.name}" + (f": {self.detail}" if self.detail else "")


def suite_characters() -> collections.abc.Iterator[CheckResult]:
    from . import hyperoctahedral as ho
    from .labels import Bipartition, Partition
    from .partitions import irr_dim

    for d in range(1, 5):
        table = ho.character_table(d)
        order = table.group_order
        yield CheckResult(
            f"class equation d={d}",
            sum(table.class_sizes.values()) == order,
            f"sum of class sizes vs {order}",
        )
        dims_ok = all(table.dim(rho) == irr_dim(rho) for rho in table.rows)
        yield CheckResult(f"identity column equals dims d={d}", dims_ok)
        sq = sum(table.dim(rho) ** 2 for rho in table.rows)
        yield CheckResult(f"sum of dim^2 d={d}", sq == order, f"{sq} vs {order}")
        # The table as rows of values, one per irreducible, and as columns.
        rows = [[table.value(rho, c) for c in table.cols] for rho in table.rows]
        sizes = [table.class_sizes[c] for c in table.cols]
        row_ok = all(
            sum(map(mul, sizes, map(mul, rows[i], rows[j]))) == order * (i == j)
            for i in range(len(rows))
            for j in range(i, len(rows))
        )
        yield CheckResult(f"row orthogonality d={d}", row_ok)
        cols = list(zip(*rows))
        col_ok = all(
            sum(map(mul, cols[i], cols[j])) * sizes[i] == order * (i == j)
            for i in range(len(cols))
            for j in range(i, len(cols))
        )
        yield CheckResult(f"column orthogonality d={d}", col_ok)
    table = ho.character_table(3)
    d = 3
    linear = {
        Bipartition(Partition(), Partition([d])): lambda w: 1,
        Bipartition(Partition([d]), Partition()): lambda w: w.flip_character(),
        Bipartition(Partition(), Partition([1] * d)): ho.SignedPermutation.perm_sign,
        Bipartition(Partition([1] * d), Partition()): lambda w: w.flip_character()
        * w.perm_sign(),
    }
    lin_ok = True
    for rho, func in linear.items():
        for cls in table.cols:
            if table.value(rho, cls) != func(ho.class_representative(cls)):
                lin_ok = False
    yield CheckResult("linear characters match explicit 1-dim models d=3", lin_ok)
    regular = {
        cls: (ho.group_order(3) if cls == table.identity_class() else 0)
        for cls in table.cols
    }
    decomp = ho.decompose_character(regular, table)
    yield CheckResult(
        "regular character decomposes with dims as multiplicities d=3",
        all(decomp[rho] == table.dim(rho) for rho in table.rows),
    )


def suite_springer() -> collections.abc.Iterator[CheckResult]:
    from . import springer
    from .labels import Partition
    from .partitions import enumerate_bipartitions

    expected_d2 = {
        "2|-": "2,2",
        "1,1|-": "1,1,1,1",
        "1|1": "2,2",
        "-|2": "4",
        "-|1,1": "2,1,1",
    }
    got = {
        str(rho): str(springer.springer_orbit(rho))
        for rho in enumerate_bipartitions(2)
    }
    yield CheckResult("rank-2 correspondence table", got == expected_d2, f"{got}")
    for d in range(0, 5):
        ok = True
        for rho in enumerate_bipartitions(d):
            # springer_orbit raises on an orbit that is not type C of size 2d.
            if springer.springer_orbit(rho, extra_padding=3) != springer.springer_orbit(rho):
                ok = False
        yield CheckResult(f"valid type-C output and padding stability d={d}", ok)
    fiber = springer.springer_image(2)[Partition([2, 2])]
    yield CheckResult(
        "fiber over (2,2) has the two expected labels",
        {str(r) for r in fiber} == {"2|-", "1|1"},
    )
    for d in range(1, 5):
        image = springer.springer_image(d)
        hit = sum(1 for v in image.values() if v)
        yield CheckResult(
            f"fiber coverage report d={d}",
            hit == len(image),
            f"{hit}/{len(image)} type-C partitions hit",
        )


def suite_geometry() -> collections.abc.Iterator[CheckResult]:
    from . import geometry
    from .partitions import enumerate_sym_compositions

    for n, two_d in ((2, 4), (3, 6)):
        # richardson raises when its orbit dimension is not twice the flag
        # dimension, which ends the suite.
        for dcomp in enumerate_sym_compositions(n, two_d):
            geometry.richardson(dcomp)
        yield CheckResult(f"richardson self-check n={n}, 2d={two_d}", True)
    expected_image_dims = {
        "1,1,0,1,1": 8,
        "0,1,2,1,0": 6,
        "1,0,2,0,1": 6,
        "0,2,0,2,0": 6,
        "2,0,0,0,2": 6,
        "0,0,4,0,0": 0,
    }
    got = {
        str(dcomp): 2 * geometry.flag_dim(dcomp)
        for dcomp in enumerate_sym_compositions(2, 4)
    }
    yield CheckResult("component image dimensions at n=2", got == expected_image_dims, f"{got}")
    expected_empty = {
        "4": {"0,1,2,1,0", "1,0,2,0,1", "0,2,0,2,0", "2,0,0,0,2", "0,0,4,0,0"},
        "2,2": {"0,0,4,0,0"},
        "2,1,1": {"0,0,4,0,0"},
        "1,1,1,1": set(),
    }
    reports = geometry.htop_table(2, 2)
    empty = {
        str(r.orbit): {str(dcomp) for dcomp, degree, _ in r.components if degree is None}
        for r in reports
    }
    yield CheckResult("emptiness pattern at n=2, d=2", empty == expected_empty)
    degrees_ok = all(
        degree >= 0 and degree % 2 == 0
        for r in reports
        for _, degree, _ in r.components
        if degree is not None
    )
    yield CheckResult("top degrees even and nonnegative", degrees_ok)


def suite_schur_weyl() -> collections.abc.Iterator[CheckResult]:
    from . import hyperoctahedral as ho, tensor, theta
    from .partitions import (
        enumerate_bipartitions,
        enumerate_sym_compositions,
        gl_dim,
        graded_multiplicities,
        irr_dim,
    )

    decompositions = {}
    for n, d in ((1, 1), (1, 2), (2, 2)):
        big_n = 2 * n + 1
        mults = decompositions[n, d] = tensor.schur_weyl_decompose(n, d)
        formula_ok = all(
            mult == gl_dim(rho.first, n + 1) * gl_dim(rho.second, n)
            for rho, mult in mults.items()
        )
        yield CheckResult(f"multiplicities match weight dimensions n={n} d={d}", formula_ok)
        mass = sum(irr_dim(rho) * mult for rho, mult in mults.items())
        yield CheckResult(
            f"dimension count n={n} d={d}",
            mass == big_n**d,
            f"{mass} vs {big_n**d}",
        )
    yield CheckResult(
        "projector algebra (orthogonal idempotents summing to 1)",
        _projector_algebra_ok(2, 2),
    )
    graded_ok = all(
        sum(per_weight.values()) == decompositions[2, 2][rho]
        for rho, per_weight in graded_multiplicities(2, 2, enumerate_bipartitions(2)).items()
    )
    yield CheckResult("graded totals agree with plain multiplicities n=2 d=2", graded_ok)
    flags = list(theta.iter_flag_matrices(2, 2))
    images = {cols[:2] for cols, _ in flags}
    yield CheckResult(
        "flag matrices count and bijection",
        len(flags) == 25 and len(images) == 25,
        f"{len(flags)} matrices",
    )
    fixed_ok = True
    for dcomp in enumerate_sym_compositions(2, 4):
        char = ho.coset_permutation_character(dcomp)
        block = [cols[:2] for cols, _ in theta.iter_flag_matrices(2, 2, dcomp)]
        for cls, expected in char.items():
            w = ho.class_representative(cls)
            fixed = sum(
                1 for t in block if tensor._apply_swap(w, t, 5) == t
            )
            if fixed != expected:
                fixed_ok = False
    yield CheckResult("coset permutation character equals flag fixed-point counts", fixed_ok)


def _projector_algebra_ok(n: int, d: int) -> bool:
    from . import hyperoctahedral as ho, tensor
    from .exact import _row_times, _sparse_rows

    # On the integer accumulators A = (|W|/dim) P, as sparse rows: the P sum
    # to 1 exactly when sum dim * A = |W| * I, and are orthogonal exactly
    # when A_rho A_sigma = 0.  Each A was checked idempotent as it was built.
    size = (2 * n + 1) ** d
    order = ho.group_order(d)
    sparse = [(_sparse_rows(acc), dim) for _rho, acc, dim in tensor.scaled_projectors(n, d)]
    for i in range(size):
        total = [0] * size
        for rows, dim in sparse:
            for k, x in rows[i]:
                total[k] += dim * x
        if any(x != order * (k == i) for k, x in enumerate(total)):
            return False
    for m, (a, _) in enumerate(sparse):
        for b, _ in sparse[m + 1 :]:
            if any(any(_row_times(row, b, size)) for row in a):
                return False
    return True


SUITES = {
    "sw": suite_schur_weyl,
    "springer": suite_springer,
    "geometry": suite_geometry,
    "characters": suite_characters,
}


def run_suite(name: str) -> list[CheckResult]:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    results = []
    for suite in SUITES if name == "all" else (name,):
        try:
            # extend keeps the checks the suite yielded before an engine raised.
            results.extend(SUITES[suite]())
        except (ArithmeticError, ValueError) as exc:
            results.append(CheckResult(f"{suite} engine self-check", False, str(exc)))
    return results
