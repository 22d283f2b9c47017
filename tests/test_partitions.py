import itertools
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from oracles import (
    count_semistandard_tableaux,
    count_standard_tableaux,
    count_tableaux_with_content,
    dominance_maximal_type_c,
    partition_number,
    partition_rule,
)
from springerc.labels import Bipartition, Partition, SymComposition
from springerc.limits import CostBoundExceeded
from springerc.partitions import (
    check_htop_work,
    dominance_leq,
    enumerate_bipartitions,
    enumerate_partitions,
    enumerate_sym_compositions,
    enumerate_type_c,
    gl_dim,
    hook_lengths,
    is_type_c,
    kostka,
    num_standard_tableaux,
    type_c_collapse,
)


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Partition()
    bins = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
    return Partition(sorted(Counter(bins).values(), reverse=True))


def test_partition_normalizes_and_validates():
    p = Partition([2, 1, 0, 0])
    assert p == (2, 1) and hash(p) == hash((2, 1))
    assert Partition() == ()
    assert isinstance(Partition(), tuple)
    assert type(p[:1]) is tuple and p[:1] == (2,)
    assert (str(p), repr(p)) == ("2,1", "Partition([2, 1])")
    assert (str(Partition()), repr(Partition())) == ("-", "Partition([])")
    with pytest.raises(AttributeError):
        p.extra = 1
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])
    # A float part is refused, not truncated to (2, 1).
    with pytest.raises(ValueError, match="non-integral part 2.7"):
        Partition([2.7, 1])
    with pytest.raises(ValueError, match="non-integral part 0.5"):
        Partition([1, 0.5])
    with pytest.raises(ValueError, match="non-integral part 2.0"):
        Partition((2.0, 1))


small_ints = st.lists(st.integers(min_value=-2, max_value=6), max_size=8)


@given(st.one_of(small_ints, small_ints.map(lambda xs: sorted(xs, reverse=True))))
def test_partition_accepts_and_rejects_like_the_plain_rule(parts):
    # Descending lists are drawn too, so most cases reach the zero cut.
    verdict, expected = partition_rule(parts)
    if verdict == "ok":
        assert Partition(parts) == expected
    else:
        with pytest.raises(ValueError) as exc:
            Partition(parts)
        assert str(exc.value) == expected


def test_partition_strings_round_trip():
    assert str(Partition([2, 1, 1])) == "2,1,1"
    assert str(Partition()) == "-"
    assert Partition.from_string("2,1,1") == Partition([2, 1, 1])
    assert Partition.from_string("-") == Partition()
    assert Partition.from_string("0") == Partition()
    with pytest.raises(ValueError):
        Partition.from_string("2,x")


def test_bipartition_strings():
    bp = Bipartition(Partition([2, 1]), Partition([1]))
    assert str(bp) == "2,1|1"
    assert Bipartition.from_string("2,1|1") == bp
    assert Bipartition.from_string("-|1,1") == Bipartition(Partition(), Partition([1, 1]))
    assert Bipartition.from_string("0|2") == Bipartition(Partition(), Partition([2]))
    with pytest.raises(ValueError):
        Bipartition.from_string("2,1")


def test_dual_examples():
    assert Partition().dual() == Partition()
    assert Partition([2]).dual() == Partition([1, 1])
    assert Partition([2, 1, 1]).dual() == Partition([3, 1])


@given(partition_strategy())
def test_dual_is_an_involution(p):
    assert p.dual().dual() == p
    assert p.dual().size() == p.size()


def test_enumerate_partitions_counts_and_order():
    counts = [len(enumerate_partitions(n)) for n in range(31)]
    assert counts == [partition_number(n) for n in range(31)]  # Euler's recurrence
    assert counts[:9] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert enumerate_partitions(2) == [(2,), (1, 1)]
    four = enumerate_partitions(4)
    assert four == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert four == sorted(four, reverse=True)


def test_largest_admitted_rank_per_n():
    # The work guard's frontier, which `springer --d` shares at n = 0.
    largest = {0: 18, 1: 15, 2: 10, 3: 8, 4: 6, 5: 5, 6: 5}
    largest |= dict.fromkeys(range(7, 11), 4) | {11: 3, 12: 3}
    for n, d in largest.items():
        check_htop_work(n, d)
        with pytest.raises(CostBoundExceeded, match="ceiling"):
            check_htop_work(n, d + 1)
    # The large-n edge, where a component has up to 4,999,999 entries.
    for n, d in {62: 2, 789: 1, 2_499_999: 0}.items():
        check_htop_work(n, d)
        for more in ((n + 1, d), (n, d + 1)):
            with pytest.raises(CostBoundExceeded, match="ceiling"):
                check_htop_work(*more)


def test_enumerate_bipartitions():
    assert [str(b) for b in enumerate_bipartitions(1)] == ["1|-", "-|1"]
    assert len(enumerate_bipartitions(2)) == 5
    assert len(enumerate_bipartitions(3)) == 10
    for d in range(6):
        expected = sum(
            len(enumerate_partitions(k)) * len(enumerate_partitions(d - k))
            for k in range(d + 1)
        )
        assert len(enumerate_bipartitions(d)) == expected


def test_is_type_c():
    assert is_type_c(Partition([2, 1, 1]))
    assert not is_type_c(Partition([3, 1]))
    assert is_type_c(Partition())
    assert not is_type_c(Partition([1]))
    assert is_type_c(Partition([3, 3]))


def test_enumerate_type_c():
    assert set(enumerate_type_c(4)) == {
        (4,),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    }
    assert set(enumerate_type_c(2)) == {(2,), (1, 1)}
    assert enumerate_type_c(0) == [()]
    with pytest.raises(ValueError):
        enumerate_type_c(3)


def test_enumerate_sym_compositions_worked_case():
    got = set(enumerate_sym_compositions(2, 4))
    assert got == {
        (1, 1, 0, 1, 1),
        (0, 1, 2, 1, 0),
        (1, 0, 2, 0, 1),
        (0, 2, 0, 2, 0),
        (2, 0, 0, 0, 2),
        (0, 0, 4, 0, 0),
    }
    assert list(enumerate_sym_compositions(0, 2)) == [(2,)]
    assert set(enumerate_sym_compositions(1, 2)) == {(1, 0, 1), (0, 2, 0)}
    with pytest.raises(ValueError):
        enumerate_sym_compositions(2, 3)
    # built once per (n, total) and shared, so callers cannot mutate it
    assert enumerate_sym_compositions(2, 4) is enumerate_sym_compositions(2, 4)
    # Against a filtered product: (head, middle) over the whole grid,
    # mirrored where the total is 2d, sorted descending.
    for n in range(6):
        for d in range(7):
            got = enumerate_sym_compositions(n, 2 * d)
            assert isinstance(got, tuple)
            assert all(isinstance(c, SymComposition) for c in got)
            grid = itertools.product(*[range(d + 1)] * n, range(0, 2 * d + 1, 2))
            expected = [h + h[-2::-1] for h in grid if 2 * sum(h[:-1]) + h[-1] == 2 * d]
            assert list(got) == sorted(expected, reverse=True), (n, d)


def test_sym_composition_validation():
    with pytest.raises(ValueError):
        SymComposition((1, 0, 1, 0, 1))  # odd total
    with pytest.raises(ValueError):
        SymComposition((1, 0, 0, 1, 2))  # not symmetric
    # Truncated, these would pass as (1, 0, 1), though their total is odd.
    with pytest.raises(ValueError, match="non-integral entry 1.5"):
        SymComposition([1.5, 0, 1.5])
    with pytest.raises(ValueError, match="non-integral entry 1.5"):
        SymComposition((1, 1.5, 1))
    with pytest.raises(ValueError, match="non-integral entry '1'"):
        SymComposition(["1", 0, 1])
    c = SymComposition.from_string("1,1,0,1,1")
    assert c.n == 2 and c.total == 4
    # symmetry + even total force an even middle entry
    for comp in enumerate_sym_compositions(3, 6):
        assert comp[3] % 2 == 0


def test_hook_lengths_examples():
    assert hook_lengths(Partition([1])) == [[1]]
    assert sorted(sum(hook_lengths(Partition([2, 1])), [])) == [1, 1, 3]
    assert sorted(sum(hook_lengths(Partition([2, 2])), [])) == [1, 2, 2, 3]


def test_num_standard_tableaux_examples():
    assert num_standard_tableaux(Partition([5])) == 1
    assert num_standard_tableaux(Partition([2, 1])) == 2
    assert num_standard_tableaux(Partition([2, 2])) == 2


@given(partition_strategy(max_n=8))
def test_num_standard_tableaux_matches_enumeration(p):
    assert num_standard_tableaux(p) == count_standard_tableaux(p)


def test_records_and_components_are_tuples_of_their_fields():
    from springerc.geometry import htop_table
    from springerc.hyperoctahedral import SignedPermutation, character_table
    from springerc.verify import CheckResult

    rho = Bipartition(Partition([1]), Partition())
    assert rho == Bipartition(Partition([1]), Partition()) == ((1,), ())
    assert hash(rho) == hash((Partition([1]), Partition()))
    assert repr(rho) == "Bipartition(first=Partition([1]), second=Partition([]))"
    c = SymComposition((1, 0, 1))
    assert c == (1, 0, 1) and hash(c) == hash((1, 0, 1))
    assert repr(c) == "SymComposition((1, 0, 1))"
    assert (c.n, c.total) == (1, 2)
    assert {c: 1}[SymComposition.from_string("1,0,1")] == 1
    with pytest.raises(ValueError):
        SymComposition((1, 1))  # even length, rejected by the constructor itself
    records = [
        (rho, "first"),
        (htop_table(1, 1)[0], "total"),
        (CheckResult("name", True), "ok"),
        (character_table(1), "d"),
        (SignedPermutation.identity(2), "signs"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert CheckResult("name", True).detail == ""
    with pytest.raises(AttributeError):
        c.n = 2


def test_tableau_counts_are_cached_per_shape_and_obey_branching():
    # count_standard_tableaux is the branching rule f(p) = sum of f(p - corner).
    num_standard_tableaux.cache_clear()
    shapes = [p for size in range(11) for p in enumerate_partitions(size)]
    for _ in range(2):
        for p in shapes:
            # A fresh Partition of the same shape finds the cached count.
            assert num_standard_tableaux(Partition(p)) == count_standard_tableaux(p)
    info = num_standard_tableaux.cache_info()
    assert (info.misses, info.hits) == (len(shapes), len(shapes))


@pytest.mark.parametrize("d", range(1, 9))
def test_sum_of_squares_is_factorial(d):
    total = sum(num_standard_tableaux(p) ** 2 for p in enumerate_partitions(d))
    assert total == factorial(d)


def test_gl_dim_examples():
    assert gl_dim(Partition(), 4) == 1
    assert gl_dim(Partition([2]), 2) == 3
    assert gl_dim(Partition([1, 1]), 3) == 3
    assert gl_dim(Partition([1, 1]), 1) == 0


def test_gl_dim_matches_tableau_count():
    for n in range(6):
        for p in enumerate_partitions(n):
            for m in range(5):
                assert gl_dim(p, m) == count_semistandard_tableaux(p, m), (p, m)


def test_kostka_examples():
    assert kostka(Partition([2, 1]), (1, 1, 1)) == 2
    assert kostka(Partition([3, 1]), (1, 2, 1)) == 2
    assert kostka(Partition([2, 2]), (2, 1, 1)) == 1
    assert kostka(Partition([1, 1]), (2,)) == 0
    assert kostka(Partition([2]), (1, 0, 1)) == 1
    assert kostka(Partition(), ()) == kostka(Partition(), (0, 0)) == 1
    assert kostka(Partition([2]), (1,)) == 0
    with pytest.raises(ValueError):
        kostka(Partition([1]), (2, -1))


def test_kostka_matches_tableau_enumeration():
    # every shape of size <= 6 against every weight of length <= 4, zero
    # entries included
    for size in range(7):
        for shape in enumerate_partitions(size):
            for length in range(5):
                for weight in itertools.product(range(size + 1), repeat=length):
                    if sum(weight) == size:
                        expected = count_tableaux_with_content(shape, weight)
                        assert kostka(shape, weight) == expected, (shape, weight)


def test_kostka_standard_weight_counts_standard_tableaux():
    for p in enumerate_partitions(7):
        assert kostka(p, (1,) * 7) == num_standard_tableaux(p)


@st.composite
def shape_and_weight(draw):
    shape = draw(partition_strategy(max_n=7))
    length = draw(st.integers(min_value=1, max_value=5))
    cuts = sorted(
        draw(st.lists(st.integers(0, shape.size()), min_size=length - 1, max_size=length - 1))
    )
    bounds = [0, *cuts, shape.size()]
    weight = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    return shape, weight, draw(st.permutations(weight))


@given(shape_and_weight())
def test_kostka_does_not_depend_on_weight_order(case):
    shape, weight, permuted = case
    value = kostka(shape, weight)
    assert kostka(shape, tuple(permuted)) == value
    assert count_tableaux_with_content(shape, tuple(permuted)) == value


def test_dominance():
    assert dominance_leq(Partition([2, 1, 1]), Partition([2, 2]))
    assert not dominance_leq(Partition([4]), Partition([2, 2]))
    p = Partition([3, 2])
    assert dominance_leq(p, p)
    with pytest.raises(ValueError):
        dominance_leq(Partition([2]), Partition([1]))
    # Plain tuples of unequal lengths, trailing zeros included.
    assert dominance_leq((1, 1), (2,)) and not dominance_leq((2,), (1, 1))
    assert dominance_leq((2, 0), (2,)) and dominance_leq((2,), (2, 0, 0))
    for n in range(9):
        for a, b in itertools.product(enumerate_partitions(n), repeat=2):
            by_prefix = all(sum(a[:i]) <= sum(b[:i]) for i in range(1, n + 1))
            assert dominance_leq(a, b) == by_prefix, (a, b)


def test_type_c_collapse_examples():
    assert type_c_collapse(Partition([2, 2])) == Partition([2, 2])
    assert type_c_collapse(Partition([3, 1])) == Partition([2, 2])
    assert type_c_collapse(Partition([1, 1, 1, 1])) == Partition([1, 1, 1, 1])
    with pytest.raises(ValueError):
        type_c_collapse(Partition([2, 1]))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_type_c_collapse_is_dominance_maximal(n):
    for p in enumerate_partitions(n):
        c = type_c_collapse(p)
        assert is_type_c(c)
        assert dominance_leq(c, p)
        assert type_c_collapse(c) == c
        assert (c == p) == is_type_c(p)
        assert c == dominance_maximal_type_c(p)
