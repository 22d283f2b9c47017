"""Acceptance suite: one test per shipped criterion.

Every test prints a single pass/fail line (visible with ``pytest -s``) and
enforces the criterion's runtime budget.  All assertions are exact integer
identities; there are no tolerances anywhere.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from pathlib import Path

from dense import (
    change_of_basis,
    g_action_matrix,
    generators,
    involution_fixed_generators,
    single_factor_change_of_basis,
    w_action_matrix,
)
from springerc.cli import main
from springerc.geometry import flag_dim, htop_table, orbit_dim, richardson
from springerc.hyperoctahedral import (
    character_table,
    class_representative,
    coset_permutation_character,
    iter_group,
)
from springerc.labels import Partition
from springerc.partitions import (
    enumerate_bipartitions,
    enumerate_sym_compositions,
    enumerate_type_c,
    gl_dim,
    irr_dim,
)
from springerc.springer import springer_orbit
from springerc.tensor import _apply_swap, schur_weyl_decompose, tensor_basis
from springerc.theta import iter_flag_matrices

GOLDEN = Path(__file__).parent / "golden"

# conventional component order for the worked rank-2 case
D1, D2, D3, D4, D5, D6 = (
    "1,1,0,1,1",
    "0,1,2,1,0",
    "1,0,2,0,1",
    "0,2,0,2,0",
    "2,0,0,0,2",
    "0,0,4,0,0",
)


class criterion:
    """Context manager: times the body and prints one pass/fail line."""

    def __init__(self, number, name, budget_seconds):
        self.number = number
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"{status} criterion {self.number}: {self.name} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget}s"
            )
        return False


def test_criterion_1_springer_table(capsys):
    with criterion(1, "rank-2 correspondence table", 1.0):
        expected_rows = {
            ("1,1|-", 1, "1,1,1,1"),
            ("-|1,1", 1, "2,1,1"),
            ("2|-", 1, "2,2"),
            ("1|1", 2, "2,2"),
            ("-|2", 1, "4"),
        }
        got = {
            (str(rho), irr_dim(rho), str(springer_orbit(rho)))
            for rho in enumerate_bipartitions(2)
        }
        assert got == expected_rows
        assert sorted(dim for _, dim, _ in got) == [1, 1, 1, 1, 2]
        code = main(["springer", "--d", "2", "--format", "tsv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / "springer_d2.tsv").read_text()


def test_criterion_2_component_list():
    with criterion(2, "symmetric compositions of (5,4)", 1.0):
        got = set(enumerate_sym_compositions(2, 4))
        assert got == {
            (1, 1, 0, 1, 1),
            (0, 1, 2, 1, 0),
            (1, 0, 2, 0, 1),
            (0, 2, 0, 2, 0),
            (2, 0, 0, 0, 2),
            (0, 0, 4, 0, 0),
        }
        golden = (GOLDEN / "q_5_4.txt").read_text().strip().split("\n")
        assert {tuple(map(int, line.split(","))) for line in golden} == got


def test_criterion_3_main_orbit():
    with criterion(3, "top homology over the subsubregular orbit", 60.0):
        [report] = htop_table(2, 2, Partition([2, 1, 1]))
        per = {str(dcomp): mult for dcomp, _, mult in report.components}
        assert [per[c] for c in (D1, D2, D3, D4, D5, D6)] == [1, 0, 0, 1, 1, 0]
        assert report.total == 3


def test_criterion_4_remaining_orbits():
    with criterion(4, "top homology over the remaining orbits", 120.0):
        totals = {str(r.orbit): r.total for r in htop_table(2, 2)}
        assert totals == {"4": 1, "2,2": 9, "2,1,1": 3, "1,1,1,1": 6}
        [subregular] = htop_table(2, 2, Partition([2, 2]))
        per = {str(dcomp): mult for dcomp, _, mult in subregular.components}
        assert [per[c] for c in (D1, D2, D3, D4, D5, D6)] == [3, 2, 2, 1, 1, 0]
        assert sum(per.values()) == 3 + 2 + 2 + 1 + 1


def test_criterion_5_bimodule_decomposition():
    with criterion(5, "tensor bimodule decomposition", 10.0):
        for n, d, space_dim in ((2, 2, 25), (1, 1, 3), (1, 2, 9)):
            mults = schur_weyl_decompose(n, d)
            for rho, mult in mults.items():
                assert mult == gl_dim(rho.first, n + 1) * gl_dim(rho.second, n)
            mass = sum(irr_dim(rho) * m for rho, m in mults.items())
            assert mass == space_dim


def test_criterion_6_flag_matrix_combinatorics():
    with criterion(6, "flag matrices and coset characters", 5.0):
        flags = list(iter_flag_matrices(2, 2))
        assert len(flags) == 25
        images = {cols[:2] for cols, _ in flags}
        assert len(images) == 25 and images == set(tensor_basis(2, 2))
        for dcomp in enumerate_sym_compositions(2, 4):
            char = coset_permutation_character(dcomp)
            block = [cols[:2] for cols, _ in iter_flag_matrices(2, 2, dcomp)]
            for cls, expected in char.items():
                w = class_representative(cls)
                fixed = sum(1 for t in block if _apply_swap(w, t, 5) == t)
                assert fixed == expected, (str(dcomp), str(cls))


def test_criterion_7_character_tables():
    with criterion(7, "character tables with full orthogonality", 30.0):
        for d in (1, 2, 3, 4):
            table = character_table(d)
            order = table.group_order
            assert sum(table.dim(rho) ** 2 for rho in table.rows) == order
            for r1 in table.rows:
                for r2 in table.rows:
                    inner = sum(
                        table.class_sizes[c] * table.value(r1, c) * table.value(r2, c)
                        for c in table.cols
                    )
                    assert inner == (order if r1 == r2 else 0)
            for c1 in table.cols:
                for c2 in table.cols:
                    inner = sum(
                        table.value(rho, c1) * table.value(rho, c2)
                        for rho in table.rows
                    )
                    if c1 == c2:
                        assert inner * table.class_sizes[c1] == order
                    else:
                        assert inner == 0


def test_criterion_8_geometry_self_check():
    with criterion(8, "flag dimension versus dense orbit dimension", 1.0):
        for n, two_d in ((2, 4), (3, 6)):
            for dcomp in enumerate_sym_compositions(n, two_d):
                assert orbit_dim(richardson(dcomp)) == 2 * flag_dim(dcomp)
        image_dims = {
            str(c): 2 * flag_dim(c) for c in enumerate_sym_compositions(2, 4)
        }
        assert [image_dims[c] for c in (D1, D2, D3, D4, D5, D6)] == [8, 6, 6, 6, 6, 0]
        # the degree datum at the point-fiber components: (6-4)/2 = 1
        a = Partition([2, 1, 1])
        for c in (D2, D3):
            dcomp = next(
                x for x in enumerate_sym_compositions(2, 4) if str(x) == c
            )
            assert (2 * flag_dim(dcomp) - orbit_dim(a)) // 2 == 1


def test_criterion_9_commutants_and_change_of_basis():
    with criterion(9, "exact commutants and the eigenbasis conjugation", 30.0):
        n = d = 2
        gens = generators(d)
        sign_mats = [w_action_matrix(w, n, d, "sign") for w in gens]
        for block, size in ((1, n + 1), (2, n)):
            for r in range(1, size + 1):
                for c in range(1, size + 1):
                    x = g_action_matrix(block, r, c, n, d)
                    for wm in sign_mats:
                        assert (wm @ x - x @ wm).is_zero()
        swap_mats = [w_action_matrix(w, n, d, "swap") for w in gens]
        for x in involution_fixed_generators(n, d).values():
            for wm in swap_mats:
                assert (wm @ x - x @ wm).is_zero()
        # eigenbasis conjugation: exact on the Lie algebra side (each fixed
        # generator becomes a gl_{n+1} (+) gl_n block matrix), and exact up
        # to the flip character on the group side
        cob = change_of_basis(n, d)
        cob_inv = cob.inverse()
        for w in iter_group(d):
            lhs = cob_inv @ w_action_matrix(w, n, d, "swap") @ cob
            rhs = w.flip_character() * w_action_matrix(w, n, d, "sign")
            assert lhs == rhs
        single = single_factor_change_of_basis(n)
        single_inv = single.inverse()
        split = n + 1
        for m in involution_fixed_generators(n, 1).values():
            conj = single_inv @ m @ single
            for i in range(2 * n + 1):
                for j in range(2 * n + 1):
                    if (i < split) != (j < split):
                        assert conj.entry(i, j) == 0


def test_criterion_10_emptiness_pattern():
    with criterion(10, "fiber emptiness pattern", 1.0):
        pattern = {
            str(r.orbit): {str(c) for c, degree, _ in r.components if degree is None}
            for r in htop_table(2, 2)
        }
        assert list(pattern) == [str(a) for a in enumerate_type_c(4)]
        assert pattern["4"] == {D2, D3, D4, D5, D6}
        assert pattern["2,2"] == {D6}
        assert pattern["2,1,1"] == {D6}
        assert pattern["1,1,1,1"] == set()
        golden = (GOLDEN / "emptiness_n2_d2.tsv").read_text().strip().split("\n")
        header = golden[0].split("\t")[1:]
        for line in golden[1:]:
            cells = line.split("\t")
            orbit = cells[0]
            for label, bit in zip(header, cells[1:]):
                assert (label not in pattern[orbit]) == (bit == "1")
