"""Self-contained verification suites backing the `verify` CLI command.

Each suite re-derives a family of identities with independent machinery and
reports one line per check; any failure carries the offending exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import geometry, hyperoctahedral as ho, springer, tensor
from .partitions import (
    Bipartition,
    Partition,
    enumerate_bipartitions,
    enumerate_sym_compositions,
    enumerate_type_c,
    gl_dim,
    graded_multiplicity,
    irr_dim,
    is_type_c,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        return f"{mark}  {self.name}" + (f": {self.detail}" if self.detail else "")


def _check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(ok), detail)


def suite_characters() -> list[CheckResult]:
    out = []
    for d in range(1, 5):
        table = ho.character_table(d)
        order = table.group_order
        out.append(
            _check(
                f"class equation d={d}",
                sum(table.class_sizes.values()) == order
                and len(table.cols) == len(enumerate_bipartitions(d)),
                f"sum of class sizes vs {order}",
            )
        )
        dims_ok = all(table.dim(rho) == irr_dim(rho) for rho in table.rows)
        out.append(_check(f"identity column equals dims d={d}", dims_ok))
        sq = sum(table.dim(rho) ** 2 for rho in table.rows)
        out.append(_check(f"sum of dim^2 d={d}", sq == order, f"{sq} vs {order}"))
        row_ok = True
        for i, r1 in enumerate(table.rows):
            for r2 in table.rows[i:]:
                inner = sum(
                    table.class_sizes[c] * table.value(r1, c) * table.value(r2, c)
                    for c in table.cols
                )
                expected = order if r1 == r2 else 0
                if inner != expected:
                    row_ok = False
        out.append(_check(f"row orthogonality d={d}", row_ok))
        col_ok = True
        for i, c1 in enumerate(table.cols):
            for c2 in table.cols[i:]:
                inner = sum(
                    table.value(rho, c1) * table.value(rho, c2) for rho in table.rows
                )
                expected = (
                    Fraction(order, table.class_sizes[c1]) if c1 == c2 else 0
                )
                if inner != expected:
                    col_ok = False
        out.append(_check(f"column orthogonality d={d}", col_ok))
    table = ho.character_table(3)
    d = 3

    def perm_sign(w) -> int:
        return ho.cycle_type(w).perm_sign()

    linear = {
        Bipartition(Partition(), Partition([d])): lambda w: 1,
        Bipartition(Partition([d]), Partition()): lambda w: w.flip_character(),
        Bipartition(Partition(), Partition([1] * d)): perm_sign,
        Bipartition(Partition([1] * d), Partition()): lambda w: w.flip_character()
        * perm_sign(w),
    }
    lin_ok = True
    for rho, func in linear.items():
        for cls in table.cols:
            if table.value(rho, cls) != func(ho.class_representative(cls)):
                lin_ok = False
    out.append(_check("linear characters match explicit 1-dim models d=3", lin_ok))
    regular = {
        cls: (ho.group_order(3) if cls == table.identity_class() else 0)
        for cls in table.cols
    }
    decomp = ho.decompose_character(regular, table)
    out.append(
        _check(
            "regular character decomposes with dims as multiplicities d=3",
            all(decomp[rho] == table.dim(rho) for rho in table.rows),
        )
    )
    return out


def suite_springer() -> list[CheckResult]:
    out = []
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
    out.append(
        _check("rank-2 correspondence table", got == expected_d2, f"{got}")
    )
    for d in range(0, 5):
        ok = True
        for rho in enumerate_bipartitions(d):
            orbit = springer.springer_orbit(rho)
            if orbit.size() != 2 * d or not is_type_c(orbit):
                ok = False
            if springer.springer_orbit(rho, extra_padding=3) != orbit:
                ok = False
        out.append(_check(f"valid type-C output and padding stability d={d}", ok))
    fiber = springer.orbit_fiber(Partition([2, 2]), 2)
    out.append(
        _check(
            "fiber over (2,2) has the two expected labels",
            {str(r) for r in fiber} == {"2|-", "1|1"},
        )
    )
    for d in range(1, 5):
        image = springer.springer_image(d)
        hit = sum(1 for v in image.values() if v)
        out.append(
            _check(
                f"fiber coverage report d={d}",
                hit == len(image),
                f"{hit}/{len(image)} type-C partitions hit",
            )
        )
    return out


def suite_geometry() -> list[CheckResult]:
    out = []
    for n, two_d in ((2, 4), (3, 6)):
        ok = True
        for dcomp in enumerate_sym_compositions(n, two_d):
            rich = geometry.richardson(dcomp)
            if geometry.orbit_dim(rich) != 2 * geometry.flag_dim(dcomp):
                ok = False
        out.append(_check(f"richardson self-check n={n}, 2d={two_d}", ok))
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
    out.append(
        _check("component image dimensions at n=2", got == expected_image_dims, f"{got}")
    )
    expected_empty = {
        "4": {"0,1,2,1,0", "1,0,2,0,1", "0,2,0,2,0", "2,0,0,0,2", "0,0,4,0,0"},
        "2,2": {"0,0,4,0,0"},
        "2,1,1": {"0,0,4,0,0"},
        "1,1,1,1": set(),
    }
    empty_ok = True
    for a in enumerate_type_c(4):
        missing = {
            str(dcomp)
            for dcomp in enumerate_sym_compositions(2, 4)
            if not geometry.component_nonempty(a, dcomp)
        }
        if missing != expected_empty[str(a)]:
            empty_ok = False
    out.append(_check("emptiness pattern at n=2, d=2", empty_ok))
    degree_ok = True
    for a in enumerate_type_c(4):
        for dcomp in enumerate_sym_compositions(2, 4):
            if geometry.component_nonempty(a, dcomp):
                deg = geometry.top_degree(a, dcomp)
                if deg < 0 or deg % 2:
                    degree_ok = False
    out.append(_check("top degrees even and nonnegative", degree_ok))
    return out


def suite_schur_weyl() -> list[CheckResult]:
    out = []
    decompositions = {}
    for n, d in ((1, 1), (1, 2), (2, 2)):
        big_n = 2 * n + 1
        mults = decompositions[n, d] = tensor.schur_weyl_decompose(n, d)
        formula_ok = all(
            mult == gl_dim(rho.first, n + 1) * gl_dim(rho.second, n)
            for rho, mult in mults.items()
        )
        out.append(_check(f"multiplicities match weight dimensions n={n} d={d}", formula_ok))
        mass = sum(irr_dim(rho) * mult for rho, mult in mults.items())
        out.append(
            _check(
                f"dimension count n={n} d={d}",
                mass == big_n**d,
                f"{mass} vs {big_n**d}",
            )
        )
    out.append(
        _check(
            "projector algebra (orthogonal idempotents summing to 1)",
            _projector_algebra_ok(2, 2),
        )
    )
    graded_ok = all(
        graded_multiplicity(rho, 2, 2).total == decompositions[2, 2][rho]
        for rho in enumerate_bipartitions(2)
    )
    out.append(_check("graded totals agree with plain multiplicities n=2 d=2", graded_ok))
    flags = list(geometry.iter_flag_matrices(2, 2))
    images = {m.tensor_index() for m in flags}
    out.append(
        _check(
            "flag matrices count and bijection",
            len(flags) == 25 and len(images) == 25,
            f"{len(flags)} matrices",
        )
    )
    fixed_ok = True
    for dcomp in enumerate_sym_compositions(2, 4):
        char = ho.coset_permutation_character(dcomp)
        block = [
            m.tensor_index() for m in geometry.iter_flag_matrices(2, 2, dcomp)
        ]
        for cls, expected in char.items():
            w = ho.class_representative(cls)
            fixed = sum(
                1 for t in block if tensor._apply_swap(w, t, 5) == t
            )
            if fixed != expected:
                fixed_ok = False
    out.append(
        _check("coset permutation character equals flag fixed-point counts", fixed_ok)
    )
    return out


def _projector_algebra_ok(n: int, d: int) -> bool:
    # On the integer accumulators A = (|W|/dim) P: the projectors P sum to
    # 1 exactly when sum dim * A = |W| * I, and are orthogonal exactly when
    # A_rho A_sigma = 0.  Each A was checked idempotent as it was built.
    accs = [tensor._projector_int(rho, n, d, "sign") for rho in enumerate_bipartitions(d)]
    size = (2 * n + 1) ** d
    order = accs[0][2]
    for i in range(size):
        for j in range(size):
            if sum(dim * acc[i][j] for acc, dim, _ in accs) != order * (i == j):
                return False
    for k, (a, _, _) in enumerate(accs):
        for b, _, _ in accs[k + 1 :]:
            cols = list(zip(*b))
            if any(sum(map(int.__mul__, row, col)) for row in a for col in cols):
                return False
    return True


SUITES = {
    "sw": suite_schur_weyl,
    "springer": suite_springer,
    "geometry": suite_geometry,
    "characters": suite_characters,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        out = []
        for key in ("sw", "springer", "geometry", "characters"):
            out.extend(SUITES[key]())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
