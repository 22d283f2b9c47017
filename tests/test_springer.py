import pytest
from oracles import b_invariant, springer_fiber_dim, symbol_label

from springerc.geometry import orbit_dim
from springerc.labels import Bipartition, Partition
from springerc.partitions import enumerate_bipartitions, enumerate_type_c, is_type_c
from springerc.springer import (
    interleave_bipartition,
    springer_image,
    springer_orbit,
)


def bp(text):
    return Bipartition.from_string(text)


def test_interleave_examples():
    assert interleave_bipartition(bp("1,1|-"), 6) == (0, 1, 0, 1, 0, 0)
    assert interleave_bipartition(bp("-|2"), 4) == (2, 0, 0, 0)
    assert interleave_bipartition(bp("-|-"), 2) == (0, 0)
    with pytest.raises(ValueError):
        interleave_bipartition(bp("1,1|-"), 5)


def test_rank_two_table():
    expected = {
        "1,1|-": "1,1,1,1",
        "-|1,1": "2,1,1",
        "2|-": "2,2",
        "1|1": "2,2",
        "-|2": "4",
    }
    for text, orbit in expected.items():
        assert springer_orbit(bp(text)) == Partition.from_string(orbit)


def test_output_is_type_c_of_double_size():
    for d in range(6):
        for rho in enumerate_bipartitions(d):
            orbit = springer_orbit(rho)
            assert is_type_c(orbit)
            assert orbit.size() == 2 * d


def test_padding_stability():
    for d in range(6):
        for rho in enumerate_bipartitions(d):
            base = springer_orbit(rho)
            for extra in (1, 2, 5):
                assert springer_orbit(rho, extra_padding=extra) == base


def test_orbit_fiber():
    image = springer_image(2)
    assert {str(r) for r in image[Partition([2, 2])]} == {"2|-", "1|1"}
    assert [str(r) for r in image[Partition([4])]] == ["-|2"]
    assert springer_image(1)[Partition([2])]
    assert Partition([2, 2]) not in springer_image(3)


def test_map_is_not_injective():
    image = springer_image(2)
    assert len(image[Partition([2, 2])]) == 2


def test_springer_image_structure():
    image = springer_image(2)
    assert set(image) == set(enumerate_type_c(4))
    total = sum(len(v) for v in image.values())
    assert total == len(enumerate_bipartitions(2))
    assert springer_image(0) == {Partition(): [bp("-|-")]}
    image1 = springer_image(1)
    assert set(image1) == {Partition([2]), Partition([1, 1])}
    assert all(len(v) == 1 for v in image1.values())


def test_fibers_partition_all_bipartitions():
    for d in range(1, 6):
        image = springer_image(d)
        seen = [rho for fiber in image.values() for rho in fiber]
        assert sorted(map(str, seen)) == sorted(
            map(str, enumerate_bipartitions(d))
        )


def test_coverage_report_small_ranks():
    # the scan hits every type-C partition through rank 8; verify checks
    # the same through rank 4
    coverage = {
        d: sum(1 for v in springer_image(d).values() if v) / len(springer_image(d))
        for d in range(1, 9)
    }
    assert coverage == dict.fromkeys(range(1, 9), 1.0)


@pytest.mark.parametrize("d", range(19))
def test_b_invariant_oracle(d):
    # Over each orbit the b-invariants of its labels are at least dim B_u,
    # and exactly one label (the trivial local system) reaches it: the one
    # its Lusztig symbol gives.  Labels whose scan output needed sorting
    # (from d = 6 on) are among those checked.
    for a, fiber in springer_image(d).items():
        dim_bu = springer_fiber_dim(a)
        assert 2 * dim_bu == 2 * d * d - orbit_dim(a)
        b_values = [b_invariant(rho) for rho in fiber]
        assert min(b_values) == dim_bu, a
        assert b_values.count(dim_bu) == 1, a
        assert fiber[b_values.index(dim_bu)] == symbol_label(a, d), a


SCAN_OVERFILLS = pytest.mark.xfail(
    strict=True,
    reason="the scan puts too many labels over some orbits from d = 6 on"
    " (ROADMAP.md, item 1: the Springer map is wrong from d = 6 on)",
)


@pytest.mark.parametrize(
    "d", [d if d < 6 else pytest.param(d, marks=SCAN_OVERFILLS) for d in range(19)]
)
def test_fibre_fits_the_component_group(d):
    # The correspondence sends the irreducibles of W to distinct pairs
    # (u, E), E an irreducible of A(u) = (Z/2)^k, where k counts the
    # distinct even parts of u (Collingwood-McGovern, section 6.1); so
    # the fibre over u holds at most 2^k labels.
    for u, fibre in springer_image(d).items():
        k = len({part for part in u if part % 2 == 0})
        assert len(fibre) <= 2**k, (str(u), [str(rho) for rho in fibre])
