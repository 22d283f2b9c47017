import json

import pytest

from springerc import geometry
from springerc.geometry import (
    component_nonempty,
    flag_dim,
    htop_report,
    iter_flag_matrices,
    orbit_dim,
    richardson,
    top_degree,
)
from springerc.limits import CostBoundExceeded
from springerc.partitions import (
    Partition,
    SymComposition,
    enumerate_sym_compositions,
    enumerate_type_c,
    gl_dim,
)

Q54 = {str(c): c for c in enumerate_sym_compositions(2, 4)}


def part(text):
    return Partition.from_string(text)


def test_orbit_dim_examples():
    assert orbit_dim(part("1,1,1,1")) == 0
    assert orbit_dim(part("2,1,1")) == 4
    assert orbit_dim(part("2,2")) == 6
    assert orbit_dim(part("4")) == 8
    with pytest.raises(ValueError):
        orbit_dim(part("3,1"))


def test_orbit_dim_bounds():
    for two_d in (2, 4, 6, 8):
        cone = two_d * two_d // 2
        for a in enumerate_type_c(two_d):
            dim = orbit_dim(a)
            assert 0 <= dim <= cone
            assert dim % 2 == 0
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
    for a in enumerate_type_c(4):
        empty = {
            text for text, dcomp in Q54.items() if not component_nonempty(a, dcomp)
        }
        assert empty == expected_empty[str(a)], str(a)
    with pytest.raises(ValueError):
        component_nonempty(part("2"), Q54["1,1,0,1,1"])


def test_top_degree_examples():
    assert top_degree(part("2,1,1"), Q54["0,1,2,1,0"]) == 2
    assert top_degree(part("2,1,1"), Q54["1,1,0,1,1"]) == 4
    assert top_degree(part("4"), Q54["1,1,0,1,1"]) == 0
    with pytest.raises(ValueError):
        top_degree(part("4"), Q54["0,0,4,0,0"])


def test_htop_report_main_orbit():
    report = htop_report(part("2,1,1"), 2, 2)
    assert report.total == 3
    per = {str(k): v for k, v in report.per_component.items()}
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
    assert report.degrees[Q54["1,1,0,1,1"]] == 4
    assert report.degrees[Q54["0,1,2,1,0"]] == 2
    assert report.degrees[Q54["0,0,4,0,0"]] is None


def test_htop_totals_all_orbits():
    expected = {"4": 1, "2,2": 9, "2,1,1": 3, "1,1,1,1": 6}
    totals = {}
    for a in enumerate_type_c(4):
        totals[str(a)] = htop_report(a, 2, 2).total
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
    report = htop_report(part("2,2"), 2, 2)
    per = {str(k): v for k, v in report.per_component.items()}
    assert per == {
        "1,1,0,1,1": 3,
        "0,1,2,1,0": 2,
        "1,0,2,0,1": 2,
        "0,2,0,2,0": 1,
        "2,0,0,0,2": 1,
        "0,0,4,0,0": 0,
    }


def test_htop_zero_orbit_counts_components():
    report = htop_report(part("1,1,1,1"), 2, 2)
    assert all(v == 1 for v in report.per_component.values())
    assert report.total == 6


def test_htop_vanishes_outside_image_closure():
    for a in enumerate_type_c(4):
        report = htop_report(a, 2, 2)
        for dcomp in enumerate_sym_compositions(2, 4):
            if not component_nonempty(a, dcomp):
                assert report.per_component[dcomp] == 0


def test_htop_report_json_schema():
    payload = htop_report(part("2,1,1"), 2, 2).to_json_dict()
    assert payload["orbit"] == "2,1,1"
    assert payload["total"] == 3
    assert payload["contributing"] == [{"rho": "-|1,1", "rho_dual": "-|2", "dim": 3}]
    by_component = {c["d"]: c for c in payload["components"]}
    assert by_component["1,1,0,1,1"] == {"d": "1,1,0,1,1", "degree": 4, "htop": 1}
    assert by_component["0,0,4,0,0"] == {"d": "0,0,4,0,0", "degree": None, "htop": 0}
    json.dumps(payload)  # must be serializable as-is


def test_htop_input_validation():
    with pytest.raises(ValueError):
        htop_report(part("3,1"), 2, 2)
    with pytest.raises(ValueError):
        htop_report(part("2,2"), 2, 3)


def test_htop_report_reads_a_given_fiber():
    from springerc.springer import springer_image

    image = springer_image(2)
    for a, fiber in image.items():
        assert htop_report(a, 2, 2, fiber) == htop_report(a, 2, 2)


def test_htop_empty_fiber_is_fine():
    # not every type-C partition needs a preimage; the report then carries
    # zero everywhere
    from springerc.springer import springer_image

    for d in (1, 2):
        image = springer_image(d)
        for a, fiber in image.items():
            if not fiber:
                report = htop_report(a, 2, d)
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
        htop_report(a, 2, 2)
        assert sorted(calls, key=str) == sorted(Q54.values(), key=str), a


def test_full_table_finds_each_richardson_orbit_once(monkeypatch):
    # Over a whole table the body of richardson, self-check included, runs
    # once per component, not once per (orbit, component) pair.
    from springerc.springer import springer_image

    collapses = []
    real = geometry.type_c_collapse

    def counted(p):
        collapses.append(p)
        return real(p)

    monkeypatch.setattr(geometry, "type_c_collapse", counted)
    geometry.richardson.cache_clear()
    image = springer_image(3)
    for a, fiber in image.items():
        htop_report(a, 2, 3, fiber)
    assert len(image) > 1
    assert len(collapses) == len(enumerate_sym_compositions(2, 6))


def test_failed_richardson_self_check_is_not_cached(monkeypatch):
    dcomp = Q54["1,1,0,1,1"]
    geometry.richardson.cache_clear()
    monkeypatch.setattr(geometry, "flag_dim", lambda c: 0)
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            richardson(dcomp)
    monkeypatch.undo()
    assert richardson(dcomp) == part("4")


def test_iter_flag_matrices_checks_before_the_first_matrix():
    with pytest.raises(CostBoundExceeded):
        iter_flag_matrices(5, 5)
    with pytest.raises(ValueError):
        iter_flag_matrices(2, 2, SymComposition.from_string("1,0,1"))
    assert next(iter_flag_matrices(2, 2)).col_rows == (1, 1, 5, 5)
