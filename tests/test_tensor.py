import pytest

from dense import (
    ExactMatrix,
    change_of_basis,
    g_action_matrix,
    generators,
    involution_fixed_generators,
    isotypic_projector,
    single_factor_change_of_basis,
    tensor_grading,
    w_action_matrix,
)
from oracles import graded_multiplicity_by_projector
from springerc.geometry import FlagMatrix, iter_flag_matrices
from springerc.hyperoctahedral import (
    SignedPermutation,
    class_representative,
    conjugacy_class_labels,
    coset_permutation_character,
    iter_group,
)
from springerc.limits import CostBoundExceeded
from springerc.partitions import (
    Bipartition,
    Partition,
    SymComposition,
    enumerate_bipartitions,
    enumerate_sym_compositions,
    gl_dim,
    graded_multiplicity,
    irr_dim,
)
from springerc.tensor import (
    _apply_swap,
    projector_rank,
    schur_weyl_decompose,
    tensor_basis,
    w_action_monomial,
)


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
    assert d6[0].tensor_index() == (3, 3)
    with pytest.raises(ValueError):
        iter_flag_matrices(2, 2, comp("1,0,1"))


def test_flag_matrix_structure():
    for m in iter_flag_matrices(2, 2):
        entries = m.entries()
        assert all(sum(col) == 1 for col in zip(*entries))
        assert sum(map(sum, entries)) == 4
        for i in range(5):
            for j in range(4):
                assert entries[i][j] == entries[5 - 1 - i][4 - 1 - j]
        assert m.row_sums() == tensor_grading(m.tensor_index(), 2).entries
    with pytest.raises(ValueError):
        FlagMatrix(2, 2, (1, 1, 1, 1))


def test_chi_is_a_bijection():
    images = [m.tensor_index() for m in iter_flag_matrices(2, 2)]
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
    assert tensor_grading((3, 3), 2).entries == (0, 0, 4, 0, 0)
    assert tensor_grading((1, 2), 2).entries == (1, 1, 0, 1, 1)
    assert tensor_grading((1, 1), 0).entries == (4,)


def test_identity_acts_as_identity():
    for convention in ("swap", "sign"):
        m = w_action_matrix(SignedPermutation.identity(2), 2, 2, convention)
        assert m == ExactMatrix.identity(25)


@pytest.mark.parametrize("convention", ["swap", "sign"])
@pytest.mark.parametrize("n,d", [(1, 2), (2, 2)])
def test_action_is_a_homomorphism(convention, n, d):
    elements = list(iter_group(d))
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


def test_unknown_convention_rejected():
    with pytest.raises(ValueError):
        w_action_matrix(SignedPermutation.identity(2), 2, 2, "other")


def test_swap_action_is_block_diagonal_for_the_grading():
    n = d = 2
    basis = tensor_basis(n, d)
    gradings = [tensor_grading(t, n) for t in basis]
    for w in iter_group(d):
        target, _coeff = w_action_monomial(w, n, d, "swap")
        for p in range(len(basis)):
            assert gradings[target[p]] == gradings[p]


def test_fixed_points_realize_coset_characters():
    # the flag matrices of one component form a copy of the coset space
    for dcomp in enumerate_sym_compositions(2, 4):
        char = coset_permutation_character(dcomp)
        block = [m.tensor_index() for m in iter_flag_matrices(2, 2, dcomp)]
        for cls in conjugacy_class_labels(2):
            w = class_representative(cls)
            fixed = sum(1 for t in block if _apply_swap(w, t, 5) == t)
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
        rhs = w.flip_character() * w_action_matrix(w, n, d, "sign")
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


def test_projector_rank_equals_trace():
    # rank of an idempotent equals its trace: independent cross-check of
    # the fraction-free elimination path
    for n, d in ((1, 2), (2, 2)):
        for rho in enumerate_bipartitions(d):
            p = isotypic_projector(rho, n, d, "sign")
            assert p.rank() == p.trace() == projector_rank(rho, n, d, "sign")


def test_projector_input_validation():
    with pytest.raises(ValueError):
        isotypic_projector(bp("1|-"), 2, 2)
    with pytest.raises(ValueError):
        isotypic_projector(bp("1|1"), 2, 2, "bogus")
    with pytest.raises(CostBoundExceeded):
        isotypic_projector(bp("3,2|-"), 5, 5)


def test_row_length_constraint_gives_rank_zero():
    assert projector_rank(bp("-|1,1"), 1, 2, "sign") == 0
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
    total = sum(projector_rank(rho, 2, 1, "sign") for rho in enumerate_bipartitions(1))
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
    for rho_text, profile in expected.items():
        g = graded_multiplicity(bp(rho_text), 2, 2)
        got = {str(k): v for k, v in g.per_weight.items()}
        assert [got[c] for c in order] == profile, rho_text
        assert g.total == sum(profile)


@pytest.mark.parametrize(
    "n,d", [(n, d) for n in range(4) for d in range(1, 4)] + [(1, 4)]
)
def test_kostka_engine_matches_projector_block_ranks(n, d):
    for rho in enumerate_bipartitions(d):
        g = graded_multiplicity(rho, n, d)
        assert g.per_weight == graded_multiplicity_by_projector(rho, n, d), rho
        assert g.total == gl_dim(rho.first, n + 1) * gl_dim(rho.second, n)


def test_graded_multiplicity_at_rank_zero():
    # no projector exists at d = 0; the single component carries the
    # trivial module once
    for n in range(3):
        g = graded_multiplicity(bp("-|-"), n, 0)
        assert list(g.per_weight.values()) == [1]
        assert g.total == 1


def test_graded_multiplicity_guards():
    with pytest.raises(ValueError):
        graded_multiplicity(bp("1|1"), 2, 3)
    with pytest.raises(CostBoundExceeded):
        graded_multiplicity(bp("3,3,2|"), 6, 8)


def test_graded_blocks_account_for_every_basis_vector():
    n = d = 2
    sizes = {str(c): 0 for c in enumerate_sym_compositions(n, 2 * d)}
    for rho in enumerate_bipartitions(d):
        g = graded_multiplicity(rho, n, d)
        for dcomp, mult in g.per_weight.items():
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
            assert projector_rank(rho, n, d, "swap") == projector_rank(
                swapped, n, d, "sign"
            )


def test_cost_guard():
    with pytest.raises(CostBoundExceeded):
        iter_flag_matrices(5, 5)
    with pytest.raises(CostBoundExceeded):
        schur_weyl_decompose(5, 5)
