"""Hochschild/cyclic complexes: identities, dimensions, class splitting,
the decomposition comparison maps, and simplicial weight subadditivity."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

import ggtkit.homology
from ggtkit.errors import DomainError, PartitionViolation, ResourceCapError
from ggtkit.exactla import SparseRationalMatrix, bareiss_rank
from ggtkit.groups import FreeAbelian, FreeGroup, cyclic_group, symmetric_group_3
from ggtkit.homology import (
    burghelea_split,
    chain_identities,
    conj_classes,
    connes_B,
    cyclic_quotient,
    hochschild_boundary,
    hochschild_slice,
    homology_dims,
    decomposition_maps,
    tau_matrix,
    weight_check,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
S3 = symmetric_group_3()
GROUPS = [("Z2", Z2, 2), ("Z3", Z3, 3), ("S3", S3, 3)]
# GROUPS first, so the shared cases keep their test ids
ALL_GROUPS = GROUPS + [(f"Z{o}", cyclic_group(o), o) for o in (4, 5, 6)]


def _sum_matrices(a, b):
    out = SparseRationalMatrix(a.rows, a.cols, dict(a.entries))
    for (i, j), v in b.entries.items():
        out.add_at(i, j, v)
    return out


def _B_flipped(G, n, basis_cap=None):
    """connes_B with the sign of the degenerate sum flipped."""
    o = G.order
    out = SparseRationalMatrix(o ** (n + 2), o ** (n + 1))
    for t in itertools.product(range(o), repeat=n + 1):
        col = 0
        for g in t:
            col = col * o + g
        for i in range(n + 1):
            rot = t[i:] + t[:i]
            sign = (-1) ** (n * i)
            for tup, s in (((0,) + rot, sign), ((rot[0], 0) + rot[1:], -sign)):
                idx = 0
                for g in tup:
                    idx = idx * o + g
                out.add_at(idx, col, s)
    return out


def _dense_rank(m):
    """Dense Bareiss rank of an integral sparse matrix: the oracle for the
    sparse elimination in ``SparseRationalMatrix.rank``."""
    dense = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        dense[i][j] = int(v)
    return bareiss_rank(dense)


def _full_rank_dims(slice_):
    """Reference dims from dense ranks of the whole boundary matrices."""
    rank = {n: _dense_rank(slice_.boundaries[n]) for n in range(1, slice_.n_max + 1)}
    return tuple(
        slice_.dims[n] - rank.get(n, 0) - rank.get(n + 1, 0) for n in range(slice_.n_max)
    )


# -- conjugacy classes -----------------------------------------------------------


def test_abelian_classes_are_singletons():
    table = conj_classes(Z2)
    assert len(table) == 2
    table = conj_classes(Z3)
    assert len(table) == 3
    assert all(len(c.members) == 1 for c in table.classes)


def test_s3_class_equation():
    table = conj_classes(S3)
    sizes = sorted(len(c.members) for c in table.classes)
    assert sizes == [1, 2, 3]
    assert sum(sizes) == 6
    orders = sorted(c.centralizer_order for c in table.classes)
    assert orders == [2, 3, 6]
    for c in table.classes:
        assert len(c.members) * c.centralizer_order == 6
        assert c.elliptic


# -- boundary and degree +1 operators ----------------------------------------------


def test_b1_formula_spot():
    b1 = hochschild_boundary(S3, 1)
    # b1(g0, g1) = (g0 g1) - (g1 g0) on one non-commuting pair
    t = S3.names.index("(12)")
    r = S3.names.index("(123)")
    col = t * 6 + r
    expect = {(S3.multiply(t, r), col): Fraction(1), (S3.multiply(r, t), col): Fraction(-1)}
    got = {k: v for k, v in b1.entries.items() if k[1] == col}
    assert got == expect


def test_B0_formula_spot():
    B0 = connes_B(Z2, 0)
    # B0(a) = (1, a) - (a, 1) + (a, 1) - ... for a != 1: (1,a) appears from
    # the non-degenerate sum; the degenerate sum contributes (a, 1)
    col = 1
    got = {k: v for k, v in B0.entries.items() if k[1] == col}
    assert got == {(0 * 2 + 1, col): Fraction(1), (1 * 2 + 0, col): Fraction(1)}


def test_B_spot_value_vs_hand_expansion():
    # one full column of B_1 for Z3, expanded by hand from the two sums
    B1 = connes_B(Z3, 1)
    a, b = 1, 2
    col = a * 3 + b
    expect = {}
    for i, rot in enumerate([(a, b), (b, a)]):
        sign = (-1) ** i
        first = (0,) + rot
        second = (rot[0], 0) + rot[1:]
        for t, s in ((first, sign), (second, sign)):
            idx = (t[0] * 3 + t[1]) * 3 + t[2]
            expect[(idx, col)] = expect.get((idx, col), 0) + s
    expect = {k: Fraction(v) for k, v in expect.items() if v}
    got = {k: v for k, v in B1.entries.items() if k[1] == col}
    assert got == expect


@pytest.mark.parametrize("name,G,nclasses", GROUPS)
def test_chain_identities_exact(name, G, nclasses):
    for n in (2, 3):
        assert hochschild_boundary(G, n - 1).matmul(hochschild_boundary(G, n)).is_zero()
    for n in (0, 1):
        assert connes_B(G, n + 1).matmul(connes_B(G, n)).is_zero()
    for n in (1, 2):
        anti = _sum_matrices(
            hochschild_boundary(G, n + 1).matmul(connes_B(G, n)),
            connes_B(G, n - 1).matmul(hochschild_boundary(G, n)),
        )
        assert anti.is_zero()


def test_degenerate_sum_sign_is_forced():
    # flipping the sign of the degenerate sum breaks B^2 = 0 already over Z/2
    assert not _B_flipped(Z2, 1).matmul(_B_flipped(Z2, 0)).is_zero()
    assert connes_B(Z2, 1).matmul(connes_B(Z2, 0)).is_zero()


@pytest.mark.parametrize("name,G,nclasses", ALL_GROUPS)
def test_chain_identities_all_zero(name, G, nclasses):
    got = chain_identities(hochschild_slice(G, 3))
    assert got == {
        "b1b2": "0", "b2b3": "0", "B1B0": "0", "B2B1": "0", "bB+Bb@1": "0", "bB+Bb@2": "0"
    }


def test_chain_identities_flag_flipped_B(monkeypatch):
    monkeypatch.setattr(ggtkit.homology, "connes_B", _B_flipped)
    got = chain_identities(hochschild_slice(Z2, 3))
    assert got["B1B0"] == "NONZERO"
    assert got["b1b2"] == got["b2b3"] == "0"


def test_chain_identities_need_a_hochschild_slice():
    with pytest.raises(DomainError):
        chain_identities(cyclic_quotient(Z2, 2))


def test_z2_rank_b1_gives_hh0():
    b1 = hochschild_boundary(Z2, 1)
    assert b1.is_zero()  # abelian group
    assert 2 - b1.rank() == 2


def test_basis_cap_enforced():
    with pytest.raises(ResourceCapError):
        hochschild_boundary(S3, 3, basis_cap=100)


# -- homology dimensions ------------------------------------------------------------


@pytest.mark.parametrize("name,G,nclasses", GROUPS)
def test_hochschild_dims(name, G, nclasses):
    hh = homology_dims(hochschild_slice(G, 3))
    assert hh.total == (nclasses, 0, 0)


@pytest.mark.parametrize("name,G,nclasses", GROUPS)
def test_cyclic_dims(name, G, nclasses):
    cy = cyclic_quotient(G, 3)
    assert cy.dims[0] == G.order  # degree-0 rotation is trivial
    hc = homology_dims(cy)
    assert hc.total == (nclasses, 0, nclasses)


@pytest.mark.parametrize("G,top", [(Z2, 3), (Z3, 3), (S3, 2)], ids=["Z2", "Z3", "S3"])
def test_cyclic_coinvariants_two_ways(G, top):
    # orbit analysis vs rank(1 - tau)
    for n in range(top + 1):
        cy = cyclic_quotient(G, n)
        tau = tau_matrix(G, n)
        dim = G.order ** (n + 1)
        one_minus = SparseRationalMatrix(dim, dim)
        for i in range(dim):
            one_minus.add_at(i, i, 1)
        for (i, j), v in tau.entries.items():
            one_minus.add_at(i, j, -v)
        assert cy.dims[n] == dim - one_minus.rank()


@pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
def test_cyclic_quotient_reuses_hochschild_boundaries(split, monkeypatch):
    built = cyclic_quotient(S3, 3, split=split)
    hh = hochschild_slice(S3, 3, split=split)
    wrong_slices = (hochschild_slice(S3, 2), hochschild_slice(Z3, 3), built)
    monkeypatch.setattr(ggtkit.homology, "hochschild_boundary", None)  # must not be called
    reused = cyclic_quotient(S3, 3, split=split, hochschild=hh)
    assert reused.dims == built.dims
    assert all(reused.boundaries[n].entries == built.boundaries[n].entries for n in (1, 2, 3))
    assert reused.class_of_basis == built.class_of_basis
    for wrong in wrong_slices:
        with pytest.raises(DomainError):
            cyclic_quotient(S3, 3, hochschild=wrong)


@pytest.mark.parametrize("name,G,nclasses", GROUPS)
def test_boundary_descends_to_quotient(name, G, nclasses):
    cy = cyclic_quotient(G, 3)
    for n in (1, 2, 3):
        lhs = cy.projections[n - 1].matmul(hochschild_boundary(G, n))
        rhs = cy.boundaries[n].matmul(cy.projections[n])
        diff = SparseRationalMatrix(lhs.rows, lhs.cols, dict(lhs.entries))
        for (i, j), v in rhs.entries.items():
            diff.add_at(i, j, -v)
        assert diff.is_zero()


# -- class splitting ------------------------------------------------------------------


def test_z2_degree1_blocks():
    sl = burghelea_split(Z2, 1)
    blocks = sl.class_blocks(1)
    assert sorted(len(v) for v in blocks.values()) == [2, 2]


@pytest.mark.parametrize("name,G,nclasses", ALL_GROUPS)
def test_split_blocks_sum_to_totals(name, G, nclasses):
    # block-sum totals, split and unsplit, against whole-matrix ranks
    unsplit = hochschild_slice(G, 3)
    assert homology_dims(unsplit).total == _full_rank_dims(unsplit) == (nclasses, 0, 0)
    hh = homology_dims(burghelea_split(G, 3))
    assert hh.total == (nclasses, 0, 0)
    assert hh.per_class is not None and len(hh.per_class) == nclasses
    assert all(v == (1, 0, 0) for v in hh.per_class.values())


def test_block_preservation_verified_for_s3():
    sl = burghelea_split(S3, 3)
    rows = sl.class_of_basis[1]
    cols = sl.class_of_basis[2]
    for (i, j) in sl.boundaries[2].entries:
        assert rows[i] == cols[j]


def test_partition_violation_detected():
    sl = burghelea_split(Z2, 2)
    # sabotage the partition: move one basis vector to the wrong class
    sl.class_of_basis[1][0] ^= 1
    from ggtkit.homology import _verify_block_structure

    with pytest.raises(PartitionViolation):
        _verify_block_structure(sl)


def test_cyclic_split_blocks_sum():
    # block-sum totals, split and unsplit, against whole-matrix ranks
    for _, G, nclasses in ALL_GROUPS:
        unsplit = cyclic_quotient(G, 3)
        ref = _full_rank_dims(unsplit)
        assert ref == (nclasses, 0, nclasses)
        assert homology_dims(unsplit).total == ref
        hc = homology_dims(cyclic_quotient(G, 3, split=True))
        assert hc.total == ref
        assert all(v == (1, 0, 1) for v in hc.per_class.values())


def _class_block_dims(sl, rank):
    """Per-class dims of a split slice with ``rank`` applied to each block."""
    top = sl.n_max
    blocks = [sl.class_blocks(n) for n in range(top + 1)]
    want = {}
    for cid in blocks[0]:
        ranks = [0] * (top + 2)
        for n in range(1, top + 1):
            block = sl.boundaries[n].restrict(blocks[n - 1].get(cid, []), blocks[n].get(cid, []))
            ranks[n] = rank(block)
        want[cid] = tuple(len(blocks[n].get(cid, [])) - ranks[n] - ranks[n + 1] for n in range(top))
    return want


@pytest.mark.parametrize("name,G,nclasses", ALL_GROUPS)
def test_class_block_dims_match_dense_bareiss(name, G, nclasses):
    for sl in (burghelea_split(G, 3), cyclic_quotient(G, 3, split=True)):
        assert homology_dims(sl).per_class == _class_block_dims(sl, _dense_rank)


@pytest.mark.parametrize("G", [cyclic_group(4), S3], ids=["Z4", "S3"])
def test_class_block_dims_match_sympy(G):
    sympy = pytest.importorskip("sympy")

    def sympy_rank(m):
        dense = sympy.zeros(m.rows, m.cols)
        for (i, j), v in m.entries.items():
            dense[i, j] = sympy.Rational(v.numerator, v.denominator)
        return dense.rank()

    for sl in (burghelea_split(G, 3), cyclic_quotient(G, 3, split=True)):
        assert homology_dims(sl).per_class == _class_block_dims(sl, sympy_rank)


@pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
def test_s3_degree_four(split):
    # the measured range at n = 4, within the default basis cap
    hs = hochschild_slice(S3, 4, split=split)
    hh = homology_dims(hs)
    assert hh.total == (3, 0, 0, 0)
    hc = homology_dims(cyclic_quotient(S3, 4, split=split))
    assert hc.total == (3, 0, 3, 0)
    if split:
        assert all(v == (1, 0, 0, 0) for v in hh.per_class.values())
        assert all(v == (1, 0, 1, 0) for v in hc.per_class.values())
    got = chain_identities(hs)
    assert len(got) == 9 and set(got.values()) == {"0"}


# -- the comparison maps -----------------------------------------------------------------


def test_decomposition_maps_degree0_round_trip():
    rep = decomposition_maps(Z3, 1, 0)
    assert rep.ok and rep.tuple_count == rep.orbit_count == 1


def test_decomposition_maps_transposition_class_cardinalities():
    table = conj_classes(S3)
    cid = next(i for i, c in enumerate(table.classes) if len(c.members) == 3)
    rep = decomposition_maps(S3, cid, 1)
    assert rep.tuple_count == 3 * 6  # |S_x| * |G|^n
    assert rep.ok


@pytest.mark.parametrize("G", [Z3, S3], ids=["Z3", "S3"])
def test_decomposition_maps_all_classes_exhaustive(G):
    table = conj_classes(G)
    for cid in range(len(table)):
        for n in (0, 1, 2):
            rep = decomposition_maps(G, cid, n)
            assert rep.ok, (cid, n)


# -- weight functions ----------------------------------------------------------------------


def test_weight_subadditivity_instance(f2):
    b = weight_check(f2, 1, 1)
    assert b.ok


def test_weight_exhaustive_f2_ball2():
    report = weight_check(FreeGroup(2), 2, 2)
    assert report.ok
    assert report.face_checks > 0 and report.degeneracy_checks > 0


def test_weight_check_other_models():
    assert weight_check(FreeAbelian(2), 2, 2, basis_cap=10**4).ok
    assert weight_check(cyclic_group(4), 3, 2).ok
