from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from dense import generators
from oracles import (
    block_cycle_types,
    character_value_by_cosets,
    coset_character_by_group,
    sym_group_character,
)
from springerc import hyperoctahedral
from springerc.hyperoctahedral import (
    MAX_CHARACTER_TABLE_RANK,
    SignedPermutation,
    character_table,
    character_value,
    class_representative,
    class_size,
    conjugacy_class_labels,
    coset_permutation_character,
    cycle_type,
    decompose_character,
    group_order,
    iter_group,
)
from springerc.labels import Bipartition, Partition, SymComposition
from springerc.limits import CostBoundExceeded
from springerc.partitions import (
    enumerate_bipartitions,
    enumerate_partitions,
    enumerate_sym_compositions,
    irr_dim,
    num_standard_tableaux,
)
from springerc.theta import iter_flag_matrices


@st.composite
def element_strategy(draw, d):
    images = draw(st.permutations(range(1, d + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    return SignedPermutation(images, signs)


def label(pos, neg):
    return Bipartition(Partition(pos), Partition(neg))


def test_generator_relations():
    for d in range(1, 5):
        gens = generators(d)
        e = SignedPermutation.identity(d)
        s1 = gens[0]
        assert s1 * s1 == e
        if d >= 2:
            s2 = gens[1]
            assert (s1 * s2) * (s1 * s2) == (s2 * s1) * (s2 * s1)
        for i in range(2, d):  # s_1 commutes with s_i for i >= 3
            si = gens[i]
            assert s1 * si == si * s1
        for i in range(1, d):  # adjacent braid relations among the transpositions
            for j in range(i + 1, d):
                si, sj = gens[i], gens[j]
                if j == i + 1:
                    assert si * sj * si == sj * si * sj
                else:
                    assert si * sj == sj * si
    with pytest.raises(ValueError):
        generators(0)


def test_group_order_by_enumeration():
    for d in range(1, 5):
        elements = set(iter_group(d))
        assert len(elements) == group_order(d)


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.tuples(element_strategy(d), element_strategy(d), element_strategy(d))
))
def test_group_laws(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * a.inverse() == SignedPermutation.identity(a.d)
    assert a.inverse() * a == SignedPermutation.identity(a.d)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        SignedPermutation.identity(2) * SignedPermutation.identity(3)


def test_signed_permutation_validation():
    assert SignedPermutation(range(2, 0, -1), [-1, 1]) == ((2, 1), (-1, 1))
    # Non-integral images and signs are refused, not truncated to (2, 1), (-1, 1).
    with pytest.raises(ValueError, match="non-integral image 2.5"):
        SignedPermutation([2.5, 1], [1, 1])
    with pytest.raises(ValueError, match="non-integral image 2.0"):
        SignedPermutation([2.0, 1], [1, 1])
    with pytest.raises(ValueError, match="non-integral sign -1.5"):
        SignedPermutation([2, 1], [-1.5, 1])
    with pytest.raises(ValueError, match="not a permutation"):
        SignedPermutation([1, 1], [1, 1])
    with pytest.raises(ValueError, match="signs"):
        SignedPermutation([1, 2], [1, 0])
    with pytest.raises(ValueError, match="signs"):
        SignedPermutation([1, 2], [1])


def test_cycle_type_examples():
    assert isinstance(cycle_type(SignedPermutation.identity(2)), Bipartition)
    assert cycle_type(SignedPermutation.identity(2)) == label([1, 1], [])
    s1, s2 = generators(2)
    assert cycle_type(s1) == label([1], [1])
    assert cycle_type(s2) == label([2], [])


def test_cycle_type_is_conjugation_invariant():
    for d in (2, 3):
        elements = list(iter_group(d))
        for g in elements:
            t = cycle_type(g)
            for h in elements:
                assert cycle_type(h * g * h.inverse()) == t


def test_inverse_has_the_same_cycle_type():
    # Each element is conjugate to its inverse, so the isotypic projector
    # may read chi(w^-1) at the class of w.
    for d in range(1, 6):
        for w in iter_group(d):
            assert cycle_type(w.inverse()) == cycle_type(w)


def test_perm_sign_is_the_parity_of_the_inversions():
    for d in range(5):
        for w in iter_group(d):
            inversions = sum(
                1 for i in range(d) for j in range(i + 1, d) if w.images[i] > w.images[j]
            )
            assert w.perm_sign() == (-1) ** inversions, w


def test_class_labels_keep_their_order():
    assert [str(c) for c in conjugacy_class_labels(2)] == ["-|1,1", "-|2", "1|1", "1,1|-", "2|-"]


def test_class_sizes_match_enumeration():
    for d in range(1, 5):
        counts = {}
        for g in iter_group(d):
            t = cycle_type(g)
            counts[t] = counts.get(t, 0) + 1
        labels = conjugacy_class_labels(d)
        assert set(labels) == set(counts)
        assert len(labels) == len(enumerate_bipartitions(d))
        for cls in labels:
            assert class_size(cls) == counts[cls], cls
            assert cycle_type(class_representative(cls)) == cls


def test_sym_group_character_against_hooks():
    # the identity column of the Frobenius oracle is the standard-tableaux
    # count, and on classes of positive cycles the engine's mu|- column is
    # the symmetric-group character of mu
    for n in range(1, 7):
        ident = Partition([1] * n)
        for shape in enumerate_partitions(n):
            assert sym_group_character(shape, ident) == num_standard_tableaux(shape)
            for ctype in enumerate_partitions(n):
                assert character_value(
                    Bipartition(shape, Partition()), Bipartition(ctype, Partition())
                ) == sym_group_character(shape, ctype), (shape, ctype)
    assert sym_group_character(Partition([1, 1]), Partition([2])) == -1
    assert sym_group_character(Partition([2, 1]), Partition([3])) == -1


def test_irr_dim_examples():
    assert irr_dim(Bipartition.from_string("1|1")) == 2
    assert irr_dim(Bipartition.from_string("1,1|-")) == 1
    assert irr_dim(Bipartition.from_string("2,1|-")) == 2
    for d in range(1, 7):
        total = sum(irr_dim(rho) ** 2 for rho in enumerate_bipartitions(d))
        assert total == group_order(d)


def test_linear_characters():
    for d in (2, 3, 4):
        table = character_table(d)
        trivial = Bipartition(Partition(), Partition([d]))
        flip = Bipartition(Partition([d]), Partition())
        perm_sign = Bipartition(Partition(), Partition([1] * d))
        full_sign = Bipartition(Partition([1] * d), Partition())
        for cls in table.cols:
            w = class_representative(cls)
            sgn = (-1) ** (w.d - len(cls.first) - len(cls.second))
            assert table.value(trivial, cls) == 1
            assert table.value(flip, cls) == w.flip_character()
            assert table.value(perm_sign, cls) == sgn
            assert table.value(full_sign, cls) == sgn * w.flip_character()


def test_defining_representation_character():
    # character of the d-dimensional signed permutation matrices
    for d in (2, 3):
        table = character_table(d)
        rho = Bipartition(Partition([1]), Partition([d - 1]))
        for cls in table.cols:
            w = class_representative(cls)
            trace = sum(
                w.signs[k] for k in range(d) if w.images[k] == k + 1
            )
            assert table.value(rho, cls) == trace


def test_character_value_against_group_sum():
    # the engine's values are the average of the block character over the
    # whole group, each block character taken from the Frobenius oracle
    for d in (2, 3):
        elements = list(iter_group(d))
        for rho in enumerate_bipartitions(d):
            a = rho.first.size()
            subgroup_order = group_order(a) * group_order(d - a)
            for cls in conjugacy_class_labels(d):
                g = class_representative(cls)
                total = Fraction(0)
                for x in elements:
                    y = x.inverse() * g * x
                    if any(y.images[k] > a for k in range(a)):
                        continue
                    first, second, delta = block_cycle_types(y, a)
                    total += (
                        sym_group_character(rho.first, first)
                        * delta
                        * sym_group_character(rho.second, second)
                    )
                assert total / subgroup_order == character_value(rho, cls)


@pytest.mark.parametrize("d", range(1, 7))
def test_character_table_matches_the_coset_sum_oracle(d):
    table = character_table(d)
    assert table.values == {
        (rho, cls): character_value_by_cosets(rho, cls)
        for rho in enumerate_bipartitions(d)
        for cls in conjugacy_class_labels(d)
    }


def test_character_table_shape_and_orthogonality():
    for d in (1, 2, 3, 4):
        table = character_table(d)
        order = table.group_order
        assert len(table.rows) == len(table.cols)
        assert sum(table.class_sizes.values()) == order
        for rho in table.rows:
            assert table.dim(rho) == irr_dim(rho)
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
                expected = Fraction(order, table.class_sizes[c1]) if c1 == c2 else 0
                assert inner == expected
    assert sorted(character_table(2).dim(r) for r in character_table(2).rows) == [1, 1, 1, 1, 2]
    with pytest.raises(CostBoundExceeded):
        character_table(MAX_CHARACTER_TABLE_RANK + 1)
    with pytest.raises(ValueError):
        character_table(0)  # no rank-0 table, at any size bound
    assert character_value(Bipartition.from_string("-|-"), label([], [])) == 1
    with pytest.raises(ValueError):
        character_value(Bipartition.from_string("1|-"), label([1, 1], []))


def test_coset_permutation_character_values():
    comps = enumerate_sym_compositions(2, 4)
    ident = label([1, 1], [])
    total = 0
    for dcomp in comps:
        char = coset_permutation_character(dcomp)
        assert char[ident] == len(list(iter_flag_matrices(2, 2, dcomp)))
        total += char[ident]
        assert all(v >= 0 for v in char.values())
    assert total == 5**2
    d6 = next(c for c in comps if c == (0, 0, 4, 0, 0))
    assert all(v == 1 for v in coset_permutation_character(d6).values())


@pytest.mark.parametrize(
    "n,d", [(n, d) for n in range(4) for d in range(1, 5)] + [(1, 5)]
)
def test_coset_character_matches_the_group_pass(n, d):
    for dcomp in enumerate_sym_compositions(n, 2 * d):
        assert coset_permutation_character(dcomp) == coset_character_by_group(dcomp), dcomp


def test_coset_character_builds_no_group_element(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a group element")

    monkeypatch.setattr(hyperoctahedral, "iter_group", refuse)
    monkeypatch.setattr(SignedPermutation, "__new__", refuse)
    dcomp = SymComposition((1, 2, 6, 2, 1))
    char = coset_permutation_character(dcomp)
    # 6! / (1! 2! 3!) ways to fill the rows, 2 sign choices per head letter
    assert char[label([1] * 6, [])] == factorial(6) // (2 * 6) * 2**3
    assert decompose_character(char, character_table(6))[label([], [6])] == 1


def test_coset_character_guards_and_whole_group():
    with pytest.raises(ValueError):
        coset_permutation_character(SymComposition((0,)))
    with pytest.raises(CostBoundExceeded):
        coset_permutation_character(SymComposition((2 * MAX_CHARACTER_TABLE_RANK + 2,)))
    # the subgroup of the one-block component is the whole group
    char = coset_permutation_character(SymComposition((6,)))
    assert set(char) == set(conjugacy_class_labels(3))
    assert all(v == 1 for v in char.values())


def test_coset_character_decomposes_integrally():
    table = character_table(2)
    comps = enumerate_sym_compositions(2, 4)
    d1 = next(c for c in comps if c == (1, 1, 0, 1, 1))
    char = coset_permutation_character(d1)
    mults = decompose_character(char, table)
    assert sum(m * table.dim(rho) for rho, m in mults.items()) == 8
    # trivial always appears once in a transitive permutation character
    assert mults[Bipartition(Partition(), Partition([2]))] == 1


def test_decompose_character_roundtrip_and_errors():
    table = character_table(3)
    weights = {rho: (i * 7 + 3) % 5 for i, rho in enumerate(table.rows)}
    values = {
        c: sum(w * table.value(rho, c) for rho, w in weights.items())
        for c in table.cols
    }
    assert decompose_character(values, table) == weights
    regular = {
        c: (table.group_order if c == table.identity_class() else 0)
        for c in table.cols
    }
    mults = decompose_character(regular, table)
    assert all(mults[rho] == table.dim(rho) for rho in table.rows)
    bogus = dict(values)
    bogus[table.identity_class()] += 1
    with pytest.raises(ValueError):
        decompose_character(bogus, table)
