import json
from functools import lru_cache

import pytest

from oracles import dominance_maximal_type_c
from springerc import geometry
from springerc.cli import main
from springerc.geometry import flag_dim, htop_table, orbit_dim, richardson
from springerc.labels import Partition, SymComposition
from springerc.limits import CostBoundExceeded
from springerc.partitions import (
    dominance_leq,
    enumerate_sym_compositions,
    enumerate_type_c,
    gl_dim,
)
from springerc.theta import iter_flag_matrices

Q54 = {str(c): c for c in enumerate_sym_compositions(2, 4)}


def part(text):
    return Partition.from_string(text)


@lru_cache(maxsize=None)
def oracle_richardson(dcomp):
    """The dense orbit of the component's image, by exhaustive search (no type_c_collapse)."""
    return dominance_maximal_type_c(Partition(sorted(dcomp, reverse=True)).dual())


def oracle_degree(a, dcomp):
    """The top degree of dcomp over the orbit a, or None when the fiber is empty.

    The fiber is empty unless a lies below the dense orbit of the image; the
    degree is the image dimension minus the orbit dimension.
    """
    if not dominance_leq(a, oracle_richardson(dcomp)):
        return None
    return 2 * flag_dim(dcomp) - orbit_dim(a)


def degrees_by_orbit(n, d):
    return {
        str(r.orbit): {str(dcomp): degree for dcomp, degree, _ in r.components}
        for r in htop_table(n, d)
    }


def test_orbit_dim_examples():
    assert orbit_dim(part("1,1,1,1")) == 0
    assert orbit_dim(part("2,1,1")) == 4
    assert orbit_dim(part("2,2")) == 6
    assert orbit_dim(part("4")) == 8
    with pytest.raises(ValueError):
        orbit_dim(part("3,1"))


def test_orbit_dim_bounds():
    # Symplectic orbits have even dimension (Collingwood-McGovern 6.1), so a
    # degree, image dimension minus orbit dimension, needs no halving.
    count = 0
    for two_d in range(0, 31, 2):
        cone = two_d * two_d // 2
        for a in enumerate_type_c(two_d):
            dim = orbit_dim(a)
            assert 0 <= dim <= cone
            assert dim % 2 == 0
            count += 1
    assert count == 4731
    assert orbit_dim(part("2,1,1")) == 4


def test_flag_dim_examples():
    assert flag_dim(Q54["0,0,4,0,0"]) == 0
    assert flag_dim(Q54["0,1,2,1,0"]) == 3
    assert flag_dim(Q54["1,1,0,1,1"]) == 4
    assert flag_dim(Q54["1,0,2,0,1"]) == 3
    assert flag_dim(Q54["0,2,0,2,0"]) == 3
    assert flag_dim(Q54["2,0,0,0,2"]) == 3


def test_richardson_examples():
    assert richardson(Q54["1,1,0,1,1"]) == part("4")
    assert richardson(Q54["0,1,2,1,0"]) == part("2,2")
    assert richardson(Q54["0,0,4,0,0"]) == part("1,1,1,1")


@pytest.mark.parametrize("n,two_d", [(1, 2), (1, 4), (2, 4), (2, 6), (3, 6)])
def test_richardson_self_check(n, two_d):
    # two independent computations of the image dimension must agree
    for dcomp in enumerate_sym_compositions(n, two_d):
        assert orbit_dim(richardson(dcomp)) == 2 * flag_dim(dcomp)


def test_component_nonempty_pattern():
    expected_empty = {
        "4": {"0,1,2,1,0", "1,0,2,0,1", "0,2,0,2,0", "2,0,0,0,2", "0,0,4,0,0"},
        "2,2": {"0,0,4,0,0"},
        "2,1,1": {"0,0,4,0,0"},
        "1,1,1,1": set(),
    }
    empty = {
        orbit: {text for text, degree in row.items() if degree is None}
        for orbit, row in degrees_by_orbit(2, 2).items()
    }
    assert empty == expected_empty
    with pytest.raises(ValueError):
        htop_table(2, 2, part("2"))


def test_top_degree_examples():
    degrees = degrees_by_orbit(2, 2)
    assert degrees["2,1,1"]["0,1,2,1,0"] == 2
    assert degrees["2,1,1"]["1,1,0,1,1"] == 4
    assert degrees["4"]["1,1,0,1,1"] == 0
    assert degrees["4"]["0,0,4,0,0"] is None


def test_htop_report_main_orbit():
    report = htop_table(2, 2, part("2,1,1"))[0]
    assert report.total == 3
    per = {str(dcomp): mult for dcomp, _, mult in report.components}
    assert per == {
        "1,1,0,1,1": 1,
        "0,1,2,1,0": 0,
        "1,0,2,0,1": 0,
        "0,2,0,2,0": 1,
        "2,0,0,0,2": 1,
        "0,0,4,0,0": 0,
    }
    assert [str(r) for r, _, _ in report.contributing] == ["-|1,1"]
    assert [str(dual) for _, dual, _ in report.contributing] == ["-|2"]
    degrees = {dcomp: degree for dcomp, degree, _ in report.components}
    assert degrees[Q54["1,1,0,1,1"]] == 4
    assert degrees[Q54["0,1,2,1,0"]] == 2
    assert degrees[Q54["0,0,4,0,0"]] is None
    assert [dcomp for dcomp, _, _ in report.components] == list(Q54.values())


@pytest.mark.parametrize("n,d", [(0, 4), (1, 3), (2, 2), (2, 3), (3, 3), (1, 5), (4, 2)])
def test_degrees_are_exact_differences(n, d):
    # Each row's degree is None exactly when the oracle finds the fiber
    # empty, and otherwise image dimension minus orbit dimension, taken
    # without rounding, so a parity fault would show as an odd degree.
    for report in htop_table(n, d):
        for dcomp, degree, _ in report.components:
            assert degree == oracle_degree(report.orbit, dcomp), (report.orbit, dcomp)
            assert degree is None or (degree >= 0 and degree % 2 == 0)


def test_htop_totals_all_orbits():
    expected = {"4": 1, "2,2": 9, "2,1,1": 3, "1,1,1,1": 6}
    totals = {str(r.orbit): r.total for r in htop_table(2, 2)}
    assert totals == expected
    assert sum(totals.values()) == 19
    # mass check: the same 19 is the sum of weight-space dimensions
    from springerc.partitions import enumerate_bipartitions

    mass = sum(
        gl_dim(rho.first, 3) * gl_dim(rho.second, 2)
        for rho in enumerate_bipartitions(2)
    )
    assert mass == 19


def test_htop_subregular_profile():
    report = htop_table(2, 2, part("2,2"))[0]
    per = {str(dcomp): mult for dcomp, _, mult in report.components}
    assert per == {
        "1,1,0,1,1": 3,
        "0,1,2,1,0": 2,
        "1,0,2,0,1": 2,
        "0,2,0,2,0": 1,
        "2,0,0,0,2": 1,
        "0,0,4,0,0": 0,
    }


def test_htop_zero_orbit_counts_components():
    report = htop_table(2, 2, part("1,1,1,1"))[0]
    assert all(mult == 1 for _, _, mult in report.components)
    assert report.total == 6


def test_htop_vanishes_outside_image_closure():
    for a in enumerate_type_c(4):
        report = htop_table(2, 2, a)[0]
        for dcomp, _, mult in report.components:
            if oracle_degree(a, dcomp) is None:
                assert mult == 0


def test_htop_report_json_schema(capsys):
    assert main(["htop", "--n", "2", "--d", "2", "--orbit", "2,1,1", "--format", "json"]) == 0
    [payload] = json.loads(capsys.readouterr().out)
    assert list(payload) == ["orbit", "contributing", "components", "total"]
    assert payload["orbit"] == "2,1,1"
    assert payload["total"] == 3
    assert payload["contributing"] == [{"rho": "-|1,1", "rho_dual": "-|2", "dim": 3}]
    by_component = {c["d"]: c for c in payload["components"]}
    assert by_component["1,1,0,1,1"] == {"d": "1,1,0,1,1", "degree": 4, "htop": 1}
    assert by_component["0,0,4,0,0"] == {"d": "0,0,4,0,0", "degree": None, "htop": 0}
    assert [c["d"] for c in payload["components"]] == list(Q54)


def test_htop_input_validation():
    with pytest.raises(ValueError):
        htop_table(2, 2, part("3,1"))
    with pytest.raises(ValueError):
        htop_table(2, 3, part("2,2"))
    with pytest.raises(ValueError):
        htop_table(-1, 2)


def test_single_orbit_reports_match_the_full_table():
    for d in (2, 3):
        full = htop_table(2, d)
        assert [r.orbit for r in full] == enumerate_type_c(2 * d)
        assert full == [htop_table(2, d, a)[0] for a in enumerate_type_c(2 * d)]


def test_htop_empty_fiber_is_fine():
    # not every type-C partition needs a preimage; the report then carries
    # zero everywhere
    from springerc.springer import springer_image

    for d in (1, 2):
        image = springer_image(d)
        for a, fiber in image.items():
            if not fiber:
                report = htop_table(2, d, a)[0]
                assert report.total == 0


def test_htop_report_finds_each_richardson_orbit_once(monkeypatch):
    calls = []
    real = geometry.richardson

    def counted(dcomp):
        calls.append(dcomp)
        return real(dcomp)

    monkeypatch.setattr(geometry, "richardson", counted)
    for a in enumerate_type_c(4):
        calls.clear()
        htop_table(2, 2, a)
        assert sorted(calls, key=str) == sorted(Q54.values(), key=str), a


def test_full_table_finds_each_richardson_orbit_once(monkeypatch):
    # Over a whole table the body of richardson, self-check included, runs
    # once per component, not once per (orbit, component) pair.
    collapses = []
    real = geometry.type_c_collapse

    def counted(p):
        collapses.append(p)
        return real(p)

    monkeypatch.setattr(geometry, "type_c_collapse", counted)
    assert len(htop_table(2, 3)) > 1
    assert len(collapses) == len(enumerate_sym_compositions(2, 6))


def test_failed_richardson_self_check_raises(monkeypatch):
    monkeypatch.setattr(geometry, "flag_dim", lambda c: 0)
    with pytest.raises(ArithmeticError, match="^1,1,0,1,1: orbit 4 has dim 8 but"):
        richardson(Q54["1,1,0,1,1"])
    with pytest.raises(ArithmeticError, match="but the flag variety has dim 0"):
        htop_table(2, 2)


def test_iter_flag_matrices_checks_before_the_first_matrix():
    with pytest.raises(CostBoundExceeded):
        iter_flag_matrices(5, 5)
    with pytest.raises(ValueError):
        iter_flag_matrices(2, 2, SymComposition.from_string("1,0,1"))
    # Input errors come before the ceilings: this pair is also too large.
    with pytest.raises(ValueError):
        iter_flag_matrices(5, 5, SymComposition.from_string("1,0,1"))
    with pytest.raises(ValueError):
        iter_flag_matrices(-1, 2)
    assert next(iter_flag_matrices(2, 2)) == ((1, 1, 5, 5), (2, 0, 0, 0, 2))
