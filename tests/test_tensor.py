import pytest

from dense import (
    ExactMatrix,
    bareiss_rank,
    change_of_basis,
    g_action_matrix,
    involution_fixed_generators,
    isotypic_projector,
    scaled_projector,
    single_factor_change_of_basis,
    tensor_basis,
    tensor_grading,
    w_action_matrix,
    w_monomial,
)
from oracles import (
    SignedPermutation,
    generators,
    graded_multiplicity_by_projector,
    group_elements,
    graded_multiplicity_per_label,
    steinberg_count,
    steinberg_count_dp,
)
from springerc import tensor
from springerc.hyperoctahedral import (
    character_table,
    class_representative,
    conjugacy_class_labels,
    coset_permutation_character,
    decompose_character,
    iter_group,
)
from springerc.labels import Bipartition, Partition, SymComposition
from springerc.limits import CostBoundExceeded
from springerc.partitions import (
    enumerate_bipartitions,
    enumerate_sym_compositions,
    gl_dim,
    graded_multiplicities,
    irr_dim,
)
from springerc.tensor import (
    _apply_swap,
    _check_idempotent,
    scaled_projectors,
    schur_weyl_decompose,
)
from springerc.theta import iter_flag_matrices


def bp(text):
    return Bipartition.from_string(text)


def comp(text):
    return SymComposition.from_string(text)


def commutes(a, b):
    return (a @ b - b @ a).is_zero()


def test_flag_matrix_counts():
    assert len(list(iter_flag_matrices(2, 2))) == 25
    assert len(list(iter_flag_matrices(0, 1))) == 1
    assert len(list(iter_flag_matrices(2, 3))) == 125
    d6 = list(iter_flag_matrices(2, 2, comp("0,0,4,0,0")))
    assert len(d6) == 1
    assert d6[0][0][:2] == (3, 3)
    with pytest.raises(ValueError):
        iter_flag_matrices(2, 2, comp("1,0,1"))


def test_flag_matrix_structure():
    for cols, sums in iter_flag_matrices(2, 2):
        entries = [[int(r == i) for r in cols] for i in range(1, 6)]
        assert all(sum(col) == 1 for col in zip(*entries))
        assert sum(map(sum, entries)) == 4
        for i in range(5):
            for j in range(4):
                assert entries[i][j] == entries[5 - 1 - i][4 - 1 - j]
        assert sums == tuple(map(sum, entries))
        assert sums == tensor_grading(cols[:2], 2)


def test_chi_is_a_bijection():
    images = [cols[:2] for cols, _ in iter_flag_matrices(2, 2)]
    assert len(set(images)) == 25
    assert set(images) == set(tensor_basis(2, 2))


def test_component_sizes_sum_to_everything():
    sizes = {
        str(dcomp): len(list(iter_flag_matrices(2, 2, dcomp)))
        for dcomp in enumerate_sym_compositions(2, 4)
    }
    assert sizes == {
        "1,1,0,1,1": 8,
        "0,1,2,1,0": 4,
        "1,0,2,0,1": 4,
        "0,2,0,2,0": 4,
        "2,0,0,0,2": 4,
        "0,0,4,0,0": 1,
    }


def test_grading_examples():
    assert tensor_grading((3, 3), 2) == (0, 0, 4, 0, 0)
    assert tensor_grading((1, 2), 2) == (1, 1, 0, 1, 1)
    assert tensor_grading((1, 1), 0) == (4,)


def test_identity_acts_as_identity():
    for convention in ("swap", "sign"):
        m = w_action_matrix(SignedPermutation.identity(2), 2, 2, convention)
        assert m == ExactMatrix.identity(25)


@pytest.mark.parametrize("convention", ["swap", "sign"])
@pytest.mark.parametrize("n,d", [(1, 2), (2, 2)])
def test_action_is_a_homomorphism(convention, n, d):
    elements = [SignedPermutation(*w) for w in iter_group(d)]
    mats = {w: w_action_matrix(w, n, d, convention) for w in elements}
    for a in elements:
        for b in elements:
            assert mats[a] @ mats[b] == mats[a * b]


def test_generator_relations_hold_in_both_conventions():
    n = d = 2
    for convention in ("swap", "sign"):
        s1, s2 = (w_action_matrix(w, n, d, convention) for w in generators(d))
        size = 25
        eye = ExactMatrix.identity(size)
        assert s1 @ s1 == eye
        assert s2 @ s2 == eye
        assert (s1 @ s2) @ (s1 @ s2) == (s2 @ s1) @ (s2 @ s1)


def test_sign_flip_squares_to_identity():
    s1 = w_action_matrix(generators(2)[0], 2, 2, "sign")
    assert s1 @ s1 == ExactMatrix.identity(25)


def test_swap_action_is_block_diagonal_for_the_grading():
    n = d = 2
    basis = tensor_basis(n, d)
    gradings = [tensor_grading(t, n) for t in basis]
    for w in iter_group(d):
        for t, grading in zip(basis, gradings):
            assert tensor_grading(_apply_swap(w, t, 2 * n + 1), n) == grading


@pytest.mark.parametrize(
    "n, d", [(1, 1), (1, 2), (1, 3), (1, 4), (0, 3), (2, 2), (2, 3), (3, 2)]
)
def test_fixed_points_realize_coset_characters(n, d):
    # the flag matrices of one component form a copy of the coset space
    for dcomp in enumerate_sym_compositions(n, 2 * d):
        char = coset_permutation_character(dcomp)
        block = [cols[:d] for cols, _ in iter_flag_matrices(n, d, dcomp)]
        for cls in conjugacy_class_labels(d):
            w = class_representative(cls)
            fixed = sum(1 for t in block if _apply_swap(w, t, 2 * n + 1) == t)
            assert fixed == char[cls], (str(dcomp), str(cls))


def test_g_action_examples():
    n = d = 2
    e11 = g_action_matrix(1, 1, 1, n, d)
    basis = tensor_basis(n, d)
    all_ones = basis.index((1, 1))
    assert e11.entry(all_ones, all_ones) == d
    e12 = g_action_matrix(1, 1, 2, n, d)
    assert e12.trace() == 0
    with pytest.raises(ValueError):
        g_action_matrix(1, 4, 1, n, d)
    with pytest.raises(ValueError):
        g_action_matrix(2, 1, 1, 0, 1)


def _g_action_units(n, d):
    for block, size in ((1, n + 1), (2, n)):
        for r in range(1, size + 1):
            for c in range(1, size + 1):
                yield g_action_matrix(block, r, c, n, d)


def test_lie_algebra_commutes_with_sign_action():
    for n, d in ((1, 2), (2, 2)):
        w_mats = [w_action_matrix(w, n, d, "sign") for w in generators(d)]
        for g in _g_action_units(n, d):
            for wm in w_mats:
                assert commutes(g, wm)


def test_involution_fixed_generator_matrices():
    gens = involution_fixed_generators(2, 1)
    e1 = gens["E1"]
    expected = ExactMatrix.zeros(5, 5) + ExactMatrix(
        [[1 if (r, c) in ((0, 1), (4, 3)) else 0 for c in range(5)] for r in range(5)]
    )
    assert e1 == expected
    assert gens["F1"] == e1.transpose()
    assert gens["E3"] == gens["F2"]
    assert gens["H3"] == -1 * gens["H2"]
    with pytest.raises(ValueError):
        involution_fixed_generators(0, 1)


def test_involution_fixed_commutes_with_swap_action():
    for n, d in ((1, 2), (2, 2)):
        gens = involution_fixed_generators(n, d)
        w_mats = [w_action_matrix(w, n, d, "swap") for w in generators(d)]
        for m in gens.values():
            for wm in w_mats:
                assert commutes(m, wm)
        h_mats = [m for name, m in gens.items() if name.startswith("H")]
        for a in h_mats:
            for b in h_mats:
                assert commutes(a, b)


def test_change_of_basis_single_factor():
    n = 1
    c = single_factor_change_of_basis(n)
    swap = ExactMatrix(
        [[1 if r + c_ == 2 else 0 for c_ in range(3)] for r in range(3)]
    )
    conj = c.inverse() @ swap @ c
    assert conj == ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])


def test_change_of_basis_conjugates_up_to_flip_character():
    n = d = 2
    c = change_of_basis(n, d)
    c_inv = c.inverse()
    for w in iter_group(d):
        lhs = c_inv @ w_action_matrix(w, n, d, "swap") @ c
        rhs = SignedPermutation(*w).flip_character() * w_action_matrix(w, n, d, "sign")
        assert lhs == rhs


def test_change_of_basis_block_diagonalizes_fixed_generators():
    # the Lie-algebra side of the conjugation is exact: each fixed
    # generator becomes a block matrix of gl_{n+1} (+) gl_n
    for n in (1, 2):
        c = single_factor_change_of_basis(n)
        c_inv = c.inverse()
        split = n + 1
        for name, m in involution_fixed_generators(n, 1).items():
            conj = c_inv @ m @ c
            for i in range(2 * n + 1):
                for j in range(2 * n + 1):
                    if (i < split) != (j < split):
                        assert conj.entry(i, j) == 0, (name, i, j)


def test_projector_algebra():
    n = d = 2
    projectors = {
        rho: isotypic_projector(rho, n, d, "sign")
        for rho in enumerate_bipartitions(d)
    }
    eye = ExactMatrix.identity(25)
    total = ExactMatrix.zeros(25, 25)
    for rho, p in projectors.items():
        assert p @ p == p
        total = total + p
    assert total == eye
    items = list(projectors.items())
    for i, (_, p) in enumerate(items):
        for _, q in items[i + 1 :]:
            assert (p @ q).is_zero()


@pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 2), (0, 3), (1, 3)])
def test_engine_action_and_projectors_match_the_dense_oracle(n, d):
    # The engine reads basis positions from place values; the oracle looks
    # the image tuples up in its own basis, and sums its own accumulators.
    for w in group_elements(d):
        assert tensor.w_action_monomial(w, n, d) == tuple(w_monomial(w, n, d, "sign")), w
    for rho, acc, dim in scaled_projectors(n, d):
        assert scaled_projector(rho, n, d) == (acc, dim, len(group_elements(d))), str(rho)


def test_idempotence_check_sees_one_changed_entry():
    # dim * A @ A == |W| * A is compared at every entry, on or off the
    # support.  For this label, adding 1 anywhere breaks idempotence (for
    # some others it can give another idempotent).
    rho = bp("1,1|-")
    acc, dim, order = scaled_projector(rho, 2, 2)
    _check_idempotent(acc, dim, order, rho)
    for i in range(25):
        for j in range(25):
            grid = [list(row) for row in acc]
            grid[i][j] += 1
            with pytest.raises(ArithmeticError, match="not idempotent"):
                _check_idempotent(grid, dim, order, rho)


def projector_rank(rho, n, d):
    """The rank the package reads as a trace: multiplicity times dimension."""
    return schur_weyl_decompose(n, d)[rho] * irr_dim(rho)


def test_projector_rank_equals_trace():
    # the package reads each rank as a trace, which holds for an
    # idempotent; fraction-free elimination is the independent rank
    for n, d in ((1, 2), (2, 2)):
        for rho in enumerate_bipartitions(d):
            p = isotypic_projector(rho, n, d, "sign")
            assert p.rank() == p.trace() == projector_rank(rho, n, d)
    for n, d in ((1, 1), (1, 2), (2, 2), (0, 3), (1, 3), (2, 3)):
        for rho, acc, _dim in scaled_projectors(n, d):
            assert bareiss_rank(acc) == projector_rank(rho, n, d), (n, d, str(rho))


def test_one_group_walk_per_point(monkeypatch):
    # Every projector of (n, d) comes from one cached walk of the group:
    # `verify sw` decomposes (1, 1), (1, 2) and (2, 2), and its projector
    # algebra check reuses the (2, 2) walk.
    from springerc.verify import run_suite

    walks = []
    real = tensor.iter_group

    def counted(d):
        walks.append(d)
        yield from real(d)

    monkeypatch.setattr(tensor, "iter_group", counted)
    scaled_projectors.cache_clear()
    schur_weyl_decompose(2, 2)
    schur_weyl_decompose(2, 2)
    scaled_projectors(2, 2)
    assert walks == [2]
    scaled_projectors.cache_clear()
    walks.clear()
    run_suite("sw")
    assert sorted(walks) == [1, 2, 2]
    scaled_projectors.cache_clear()


def test_projector_input_validation():
    with pytest.raises(ValueError):
        isotypic_projector(bp("1|-"), 2, 2)
    # a rank-0 character table is invalid input, not a resource bound
    with pytest.raises(ValueError):
        schur_weyl_decompose(1, 0)
    with pytest.raises(ValueError):
        scaled_projectors(1, 0)
    # invalid input is refused ahead of the cost guard
    with pytest.raises(ValueError):
        schur_weyl_decompose(10**6, 0)
    with pytest.raises(ValueError):
        schur_weyl_decompose(-1, 2)
    with pytest.raises(CostBoundExceeded):
        isotypic_projector(bp("3,2|-"), 5, 5)


def test_row_length_constraint_gives_rank_zero():
    assert projector_rank(bp("-|1,1"), 1, 2) == 0
    assert gl_dim(Partition([1, 1]), 1) == 0


def test_schur_weyl_multiplicities():
    expected_22 = {"2|-": 6, "1,1|-": 3, "1|1": 6, "-|2": 3, "-|1,1": 1}
    got = {str(k): v for k, v in schur_weyl_decompose(2, 2).items()}
    assert got == expected_22
    for n, d in ((1, 1), (1, 2), (2, 2), (0, 2)):
        mults = schur_weyl_decompose(n, d)
        for rho, mult in mults.items():
            assert mult == gl_dim(rho.first, n + 1) * gl_dim(rho.second, n)
        mass = sum(irr_dim(rho) * m for rho, m in mults.items())
        assert mass == (2 * n + 1) ** d


def test_d_one_projector_ranks_sum_to_dimension():
    total = sum(projector_rank(rho, 2, 1) for rho in enumerate_bipartitions(1))
    assert total == 5


def test_graded_multiplicity_golden_profiles():
    # component-by-component multiplicities at n=2, d=2, keyed in the
    # conventional component order d1..d6
    order = ["1,1,0,1,1", "0,1,2,1,0", "1,0,2,0,1", "0,2,0,2,0", "2,0,0,0,2", "0,0,4,0,0"]
    expected = {
        "2|-": [1, 1, 1, 1, 1, 1],
        "1,1|-": [1, 1, 1, 0, 0, 0],
        "1|1": [2, 1, 1, 1, 1, 0],
        "-|2": [1, 0, 0, 1, 1, 0],
        "-|1,1": [1, 0, 0, 0, 0, 0],
    }
    table = graded_multiplicities(2, 2, [bp(text) for text in expected])
    assert [str(rho) for rho in table] == list(expected)
    for rho_text, profile in expected.items():
        got = {str(k): v for k, v in table[bp(rho_text)].items()}
        assert [got[c] for c in order] == profile, rho_text


@pytest.mark.parametrize(
    "n,d", [(n, d) for n in range(4) for d in range(1, 4)] + [(1, 4)]
)
def test_kostka_engine_matches_projector_block_ranks(n, d):
    table = graded_multiplicities(n, d, enumerate_bipartitions(d))
    for rho, per_weight in table.items():
        assert per_weight == graded_multiplicity_by_projector(rho, n, d), rho
        assert sum(per_weight.values()) == gl_dim(rho.first, n + 1) * gl_dim(rho.second, n)


@pytest.mark.parametrize(
    "n,d", [(n, d) for n in range(4) for d in range(1, 7)] + [(0, 7), (1, 7), (2, 7), (1, 8)]
)
def test_kostka_engine_matches_induced_characters(n, d):
    # The flags of component D are the cosets of its subgroup W_D, so
    # Ind_{W_D}^W 1 holds each label, twisted by the flip character, as
    # often as the Kostka engine counts it at D.  No projector is built.
    table = character_table(d)
    graded = graded_multiplicities(n, d, enumerate_bipartitions(d))
    for dcomp in enumerate_sym_compositions(n, 2 * d):
        induced = decompose_character(coset_permutation_character(dcomp), table)
        for rho, per_weight in graded.items():
            assert per_weight[dcomp] == induced[Bipartition(rho.second, rho.first)], (
                str(dcomp),
                str(rho),
            )


@pytest.mark.parametrize("n,d", [(2, 5), (1, 7), (0, 9), (4, 3), (3, 4)])
def test_table_matches_the_per_label_engine(n, d):
    # Points beyond the projector's reach: the reference walks one label
    # at a time and shares no Kostka rows.
    table = graded_multiplicities(n, d, enumerate_bipartitions(d))
    assert list(table) == enumerate_bipartitions(d)
    for rho, per_weight in table.items():
        assert per_weight == graded_multiplicity_per_label(rho, n, d), rho
        assert sum(per_weight.values()) == gl_dim(rho.first, n + 1) * gl_dim(rho.second, n)


BRUTE_FORCE_STEINBERG = [(0, 3), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]


@pytest.mark.parametrize("n,d", BRUTE_FORCE_STEINBERG + [(2, 5), (1, 7), (2, 6)])
def test_table_gram_matrix_counts_double_cosets(n, d):
    # The Steinberg-variety piece over a pair of components has dimension
    # |W_D \ W / W_D'|, which the Gram matrix of the table must reproduce.
    # The dynamic-programming count is checked against the brute-force one
    # where that is cheap, and carries the check to the larger points.
    table = graded_multiplicities(n, d, enumerate_bipartitions(d))
    components = enumerate_sym_compositions(n, 2 * d)
    for row in components:
        for col in components:
            count = steinberg_count_dp(row, col)
            if (n, d) in BRUTE_FORCE_STEINBERG:
                assert count == steinberg_count(row, col), (row, col)
            gram = sum(per_weight[row] * per_weight[col] for per_weight in table.values())
            assert gram == count, (row, col)


def test_table_computes_only_the_requested_labels():
    full = graded_multiplicities(2, 4, enumerate_bipartitions(4))
    labels = [bp("2,1|1"), bp("-|4"), bp("1,1,1,1|-")]
    assert graded_multiplicities(2, 4, labels) == {rho: full[rho] for rho in labels}


def test_graded_multiplicity_at_rank_zero():
    # no projector exists at d = 0; the single component carries the
    # trivial module once
    for n in range(3):
        table = graded_multiplicities(n, 0, [bp("-|-")])
        assert list(table[bp("-|-")].values()) == [1]


def test_graded_multiplicity_guards():
    with pytest.raises(ValueError):
        graded_multiplicities(2, 3, [bp("1|1")])
    with pytest.raises(CostBoundExceeded):
        graded_multiplicities(6, 8, [bp("3,3,2|")])


def test_graded_blocks_account_for_every_basis_vector():
    n = d = 2
    sizes = {str(c): 0 for c in enumerate_sym_compositions(n, 2 * d)}
    for rho, per_weight in graded_multiplicities(n, d, enumerate_bipartitions(d)).items():
        for dcomp, mult in per_weight.items():
            sizes[str(dcomp)] += irr_dim(rho) * mult
    assert sizes == {
        "1,1,0,1,1": 8,
        "0,1,2,1,0": 4,
        "1,0,2,0,1": 4,
        "0,2,0,2,0": 4,
        "2,0,0,0,2": 4,
        "0,0,4,0,0": 1,
    }


def test_isotypic_images_are_stable_under_both_algebras():
    # P X P == X P says the image of the projector is invariant
    n = d = 2
    for rho in (bp("-|2"), bp("1|1")):
        p_sign = isotypic_projector(rho, n, d, "sign")
        for x in _g_action_units(n, d):
            assert p_sign @ (x @ p_sign) == x @ p_sign
        p_swap = isotypic_projector(rho, n, d, "swap")
        for x in involution_fixed_generators(n, d).values():
            assert p_swap @ (x @ p_swap) == x @ p_swap


def test_conventions_differ_by_the_flip_character():
    # the two conventions are related by tensoring with the flip character,
    # which swaps the components of every bipartition label; projector
    # ranks therefore match after the swap, never labelwise
    for n, d in ((1, 2), (2, 2)):
        for rho in enumerate_bipartitions(d):
            swapped = Bipartition(rho.second, rho.first)
            assert isotypic_projector(rho, n, d, "swap").rank() == projector_rank(swapped, n, d)


def test_cost_guard():
    with pytest.raises(CostBoundExceeded):
        iter_flag_matrices(5, 5)
    with pytest.raises(CostBoundExceeded):
        schur_weyl_decompose(5, 5)


@pytest.mark.parametrize(
    "n, d", [(0, 7), (1, 7), (0, 8), (1, 8), (2, 4), (1, 5), (0, 6), (2, 6), (0, 10**6)]
)
def test_group_pass_refuses_ranks_the_cell_ceiling_admits(monkeypatch, n, d):
    # A ceiling of 20,000 on N^d admits each of these.  At (2, 6) one
    # accumulator alone would hold 15,625^2 entries; at n = 0 the group
    # pass walks 2^d * d! elements and fills #bipartitions(d) accumulators.
    # Each refusal comes before any label, character or group element is
    # built.
    def build(*_args):
        raise AssertionError("the projectors were started")

    for name in ("enumerate_bipartitions", "character_table", "iter_group"):
        monkeypatch.setattr(tensor, name, build)
    with pytest.raises(CostBoundExceeded, match="ceiling"):
        schur_weyl_decompose(n, d)
    with pytest.raises(CostBoundExceeded, match="ceiling"):
        scaled_projectors(n, d)


def test_largest_admitted_projector_per_rank():
    # The frontier of the projector work model; each point took under 2 s.
    largest = {1: 1117, 2: 18, 3: 4, 4: 1}
    for d in range(1, 7):
        n = largest.get(d, -1)
        if n >= 0:
            tensor._check_projector_work(n, d)
        with pytest.raises(CostBoundExceeded):
            tensor._check_projector_work(n + 1, d)
