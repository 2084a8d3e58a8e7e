"""Hochschild/cyclic complexes: identities, dimensions, class splitting,
the centralizer complexes against the whole slice, the decomposition
comparison maps, and simplicial weight subadditivity."""

from __future__ import annotations

import itertools
import json
from dataclasses import replace
from fractions import Fraction

import pytest

import ggtkit.homology
from ggtkit.cli import run
from ggtkit.errors import ConfigError, DomainError, PartitionViolation, ResourceCapError
from ggtkit.exactla import SparseRationalMatrix
from ggtkit.groups import FiniteGroup, FreeAbelian, FreeGroup, cyclic_group, symmetric_group_3
from ggtkit.homology import (
    ComplexSlice,
    ConjClassTable,
    _b_faces,
    _B_faces,
    centralizer_slices,
    chain_identities,
    conj_classes,
    connes_B,
    cyclic_quotient,
    hochschild_boundary,
    homology_dims,
)
from oracles import (
    bareiss_rank,
    centralizer_blocks,
    decomposition_maps,
    hochschild_bases,
    hochschild_slice,
    tau_matrix,
    weight_check,
    whole_b,
    whole_B,
)


def _dihedral_group_8() -> FiniteGroup:
    """D4 as r^i s^j -> index i + 4j, with s r s = r^-1."""

    def mul(x, y):
        b, a = divmod(x, 4)
        d, c = divmod(y, 4)
        return (a + (-1) ** b * c) % 4 + 4 * ((b + d) % 2)

    return FiniteGroup([[mul(x, y) for y in range(8)] for x in range(8)], label="D4")


def _quaternion_group() -> FiniteGroup:
    """Q8 as the units +-1, +-i, +-j, +-k -> index unit + 4 (sign is -)."""
    units = {  # unit * unit -> (sign, unit) for 1, i, j, k
        (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def mul(x, y):
        (sx, ux), (sy, uy) = divmod(x, 4), divmod(y, 4)
        sign, unit = (1, ux or uy) if not (ux and uy) else units[ux, uy]
        return unit + 4 * ((sx + sy + (sign < 0)) % 2)

    return FiniteGroup([[mul(x, y) for y in range(8)] for x in range(8)], label="Q8")


Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
S3 = symmetric_group_3()
D4 = _dihedral_group_8()
Q8 = _quaternion_group()
GROUPS = [("Z2", Z2, 2), ("Z3", Z3, 3), ("S3", S3, 3)]
# GROUPS first, so the shared cases keep their test ids
ALL_GROUPS = GROUPS + [(f"Z{o}", cyclic_group(o), o) for o in (4, 5, 6)]
ORDER_EIGHT = [("D4", D4, 5), ("Q8", Q8, 5)]


def _sum_matrices(a, b):
    out = SparseRationalMatrix(a.rows, a.cols, dict(a.entries))
    for (i, j), v in b.entries.items():
        out.add_at(i, j, v)
    return out


def _B_faces_flipped(model, t):
    """The faces of connes_B with the sign of the degenerate sum flipped."""
    for k, (face, sign) in enumerate(_B_faces(model, t)):
        yield face, -sign if k % 2 else sign


def _dense_rank(m):
    """Dense Bareiss rank of an integral sparse matrix: the oracle for the
    sparse elimination in ``SparseRationalMatrix.rank``."""
    dense = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        dense[i][j] = int(v)
    return bareiss_rank(dense)


def _full_rank_dims(dims, boundaries):
    """Reference dims from dense ranks of the whole boundary matrices."""
    top = len(dims) - 1
    rank = {n: _dense_rank(boundaries[n]) for n in range(1, top + 1)}
    return tuple(dims[n] - rank.get(n, 0) - rank.get(n + 1, 0) for n in range(top))


def _restrict(m, rows, cols):
    """Submatrix of m on the given ordered row and column index lists."""
    rpos = {r: i for i, r in enumerate(rows)}
    cpos = {c: j for j, c in enumerate(cols)}
    out = SparseRationalMatrix(len(rows), len(cols))
    for (i, j), v in m.entries.items():
        if i in rpos and j in cpos:
            out.entries[(rpos[i], cpos[j])] = v
    return out


def _tuple_index(order, t):
    idx = 0
    for g in t:
        idx = idx * order + g
    return idx


def _class_of_tuple(G, table, t):
    p = 0
    for g in t:
        p = G.multiply(p, g)
    return table.class_of[p]


def _oracle_cyclic_quotient(G, n_max):
    """The cyclic quotient on the whole tuple bases, by orbit analysis:
    the surviving orbit representatives per degree (tuple indices in
    increasing order), the projections from the Hochschild basis, and the
    induced boundaries read off the whole b_n column by column."""
    o = G.order
    reps_per_degree, projections, orbit_info = [], {}, []
    for n in range(n_max + 1):
        seen = {}
        for t in itertools.product(range(o), repeat=n + 1):
            if t in seen:
                continue
            orbit, cur, sign = [], t, 1
            while True:
                orbit.append((cur, sign))
                cur = (cur[-1],) + cur[:-1]
                sign *= (-1) ** n
                if cur == t:
                    break
            rep = min(c for c, _ in orbit)
            rep_sign = next(s for c, s in orbit if c == rep)
            for c, s in orbit:
                seen[c] = (rep, s * rep_sign, sign == 1)
        reps = sorted({info[0] for info in seen.values() if info[2]})
        rep_pos = {r: i for i, r in enumerate(reps)}
        proj = SparseRationalMatrix(len(reps), o ** (n + 1))
        for t, (rep, rel_sign, alive) in seen.items():
            if alive:
                proj.add_at(rep_pos[rep], _tuple_index(o, t), rel_sign)
        reps_per_degree.append(reps)
        projections[n] = proj
        orbit_info.append((seen, rep_pos))
    boundaries = {}
    for n in range(1, n_max + 1):
        tuples_lo = list(itertools.product(range(o), repeat=n))
        seen_lo, rep_pos_lo = orbit_info[n - 1]
        by_col = {}
        for (i, j), v in whole_b(G, n).entries.items():
            by_col.setdefault(j, []).append((i, v))
        induced = SparseRationalMatrix(len(rep_pos_lo), len(reps_per_degree[n]))
        for col, rep in enumerate(reps_per_degree[n]):
            for i, v in by_col.get(_tuple_index(o, rep), ()):
                rep_lo, rel_sign, alive = seen_lo[tuples_lo[i]]
                if alive:
                    induced.add_at(rep_pos_lo[rep_lo], col, v * rel_sign)
        boundaries[n] = induced
    dims = [len(r) for r in reps_per_degree]
    return dims, reps_per_degree, projections, boundaries


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


# -- boundary and degree +1 operators ----------------------------------------------


def test_b1_formula_spot():
    b1 = whole_b(S3, 1)
    # b1(g0, g1) = (g0 g1) - (g1 g0) on one non-commuting pair
    t = S3.names.index("(12)")
    r = S3.names.index("(123)")
    col = t * 6 + r
    expect = {(S3.multiply(t, r), col): Fraction(1), (S3.multiply(r, t), col): Fraction(-1)}
    got = {k: v for k, v in b1.entries.items() if k[1] == col}
    assert got == expect


def test_B0_formula_spot():
    B0 = whole_B(Z2, 0)
    # B0(a) = (1, a) - (a, 1) + (a, 1) - ... for a != 1: (1,a) appears from
    # the non-degenerate sum; the degenerate sum contributes (a, 1)
    col = 1
    got = {k: v for k, v in B0.entries.items() if k[1] == col}
    assert got == {(0 * 2 + 1, col): Fraction(1), (1 * 2 + 0, col): Fraction(1)}


def test_B_spot_value_vs_hand_expansion():
    # one full column of B_1 for Z3, expanded by hand from the two sums
    B1 = whole_B(Z3, 1)
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
        assert whole_b(G, n - 1).matmul(whole_b(G, n)).is_zero()
    for n in (0, 1):
        assert whole_B(G, n + 1).matmul(whole_B(G, n)).is_zero()
    for n in (1, 2):
        anti = _sum_matrices(
            whole_b(G, n + 1).matmul(whole_B(G, n)),
            whole_B(G, n - 1).matmul(whole_b(G, n)),
        )
        assert anti.is_zero()


def test_degenerate_sum_sign_is_forced(monkeypatch):
    # flipping the sign of the degenerate sum breaks B^2 = 0 already over Z/2
    assert whole_B(Z2, 1).matmul(whole_B(Z2, 0)).is_zero()
    monkeypatch.setattr(ggtkit.homology, "_B_faces", _B_faces_flipped)
    assert not whole_B(Z2, 1).matmul(whole_B(Z2, 0)).is_zero()


@pytest.mark.parametrize("name,G,nclasses", ALL_GROUPS + ORDER_EIGHT)
def test_chain_identities_all_zero(name, G, nclasses):
    want = {"b1b2": "0", "b2b3": "0", "B1B0": "0", "B2B1": "0", "bB+Bb@1": "0", "bB+Bb@2": "0"}
    # on S_x and the two complexes that are ranked, and on the whole slice
    assert chain_identities(*centralizer_slices(G, 3)) == want
    assert chain_identities(hochschild_slice(G, 3)) == want


def test_chain_identities_flag_flipped_B(monkeypatch):
    monkeypatch.setattr(ggtkit.homology, "_B_faces", _B_faces_flipped)
    got = chain_identities(*centralizer_slices(Z2, 3))
    assert got["B1B0"] == "NONZERO"
    assert got["b1b2"] == got["b2b3"] == "0"


@pytest.mark.parametrize("ranked", [1, 2], ids=["normalized", "cyclic"])
def test_chain_identities_flag_a_flipped_entry_of_a_ranked_complex(ranked):
    slices = centralizer_slices(S3, 3)
    assert set(chain_identities(*slices).values()) == {"0"}
    b = slices[ranked].boundaries
    # negate an entry (i, j) of a b_3 block where column i of b_2 is nonzero:
    # column j of b_2 b_3 becomes -2 b_3[i, j] times that column
    c, (i, j) = next(
        (c, (i, j))
        for c, m in enumerate(b[3])
        for (i, j) in m.entries
        if any(col == i for _, col in b[2][c].entries)
    )
    b[3][c].entries[i, j] *= -1
    got = chain_identities(*slices)
    assert got.pop("b2b3") == "NONZERO"
    assert set(got.values()) == {"0"}


def test_chain_identities_need_a_hochschild_slice():
    _, _, cyclic = centralizer_slices(Z2, 2)
    with pytest.raises(DomainError):
        chain_identities(cyclic)
    with pytest.raises(DomainError):
        cyclic_quotient(cyclic)


def test_z2_rank_b1_gives_hh0():
    b1 = whole_b(Z2, 1)
    assert b1.is_zero()  # abelian group
    assert 2 - b1.rank() == 2


def test_basis_cap_enforced():
    # the cap bounds the |G|^(n_max+1) tuples of the whole top degree
    with pytest.raises(ResourceCapError, match="basis of degree 3 has 1296 tuples, over cap 1295"):
        centralizer_slices(S3, 3, basis_cap=1295)
    centralizer_slices(S3, 3, basis_cap=1296)


def test_cli_cap_basis_is_checked_before_anything_is_built(monkeypatch, capsys):
    built = []
    tuples = ggtkit.homology._centralizer_tuples
    monkeypatch.setattr(ggtkit.homology, "_centralizer_tuples", lambda *args: built.append(1) or tuples(*args))
    argv = ["homology", "--group", "S3", "--nmax", "3", "--cap-basis"]
    assert run(argv + ["1295"]) == 3
    assert built == [] and "over cap 1295" in capsys.readouterr().err
    assert run(argv + ["1296"]) == 0
    assert built == [1, 1, 1]
    capsys.readouterr()


@pytest.mark.parametrize(
    "build",
    [
        lambda G: centralizer_slices(G, 2),
        conj_classes,
        lambda G: whole_b(G, 1),
        lambda G: whole_B(G, 0),
        lambda G: tau_matrix(G, 1),
        lambda G: decomposition_maps(G, 0, 1),
    ],
    ids=["slice", "classes", "boundary", "connes_B", "tau", "decomposition"],
)
@pytest.mark.parametrize("G", [FreeGroup(2), FreeAbelian(2)], ids=["F2", "Z2"])
def test_infinite_group_is_a_config_error(build, G):
    with pytest.raises(ConfigError, match="homology needs a finite group"):
        build(G)


# -- homology dimensions ------------------------------------------------------------


@pytest.mark.parametrize("name,G,nclasses", GROUPS)
def test_hochschild_dims(name, G, nclasses):
    hh = homology_dims(hochschild_slice(G, 3))
    assert hh.total == (nclasses, 0, 0)


@pytest.mark.parametrize("name,G,nclasses", GROUPS)
def test_cyclic_dims(name, G, nclasses):
    cy = cyclic_quotient(hochschild_slice(G, 3))
    assert sum(map(len, cy.bases[0].blocks)) == G.order  # degree-0 rotation is trivial
    hc = homology_dims(cy)
    assert hc.total == (nclasses, 0, nclasses)


@pytest.mark.parametrize("G,top", [(Z2, 3), (Z3, 3), (S3, 2)], ids=["Z2", "Z3", "S3"])
def test_cyclic_coinvariants_two_ways(G, top):
    # orbit analysis vs rank(1 - tau)
    for n in range(top + 1):
        cy = cyclic_quotient(hochschild_slice(G, n))
        tau = tau_matrix(G, n)
        dim = G.order ** (n + 1)
        one_minus = SparseRationalMatrix(dim, dim)
        for i in range(dim):
            one_minus.add_at(i, i, 1)
        for (i, j), v in tau.entries.items():
            one_minus.add_at(i, j, -v)
        assert sum(map(len, cy.bases[n].blocks)) == dim - one_minus.rank()


@pytest.mark.parametrize("name,G,nclasses", GROUPS)
def test_boundary_descends_to_quotient(name, G, nclasses):
    _, _, projections, boundaries = _oracle_cyclic_quotient(G, 3)
    for n in (1, 2, 3):
        lhs = projections[n - 1].matmul(whole_b(G, n))
        rhs = boundaries[n].matmul(projections[n])
        diff = SparseRationalMatrix(lhs.rows, lhs.cols, dict(lhs.entries))
        for (i, j), v in rhs.entries.items():
            diff.add_at(i, j, -v)
        assert diff.is_zero()


# -- class splitting ------------------------------------------------------------------


def test_z2_degree1_blocks():
    sl = hochschild_slice(Z2, 1)
    assert sorted(len(block) for block in sl.bases[1].blocks) == [2, 2]
    assert [(m.rows, m.cols) for m in sl.boundaries[1]] == [(1, 2), (1, 2)]


@pytest.mark.parametrize("name,G,nclasses", ALL_GROUPS)
def test_split_blocks_sum_to_totals(name, G, nclasses):
    # block-sum totals against dense ranks of the whole matrices
    whole = {n: whole_b(G, n) for n in (1, 2, 3)}
    dims = [G.order ** (n + 1) for n in range(4)]
    assert _full_rank_dims(dims, whole) == (nclasses, 0, 0)
    hh = homology_dims(hochschild_slice(G, 3))
    assert hh.total == (nclasses, 0, 0)
    assert len(hh.per_class) == nclasses
    assert all(v == (1, 0, 0) for v in hh.per_class.values())


def test_block_preservation_verified_for_s3():
    # the whole b_2 never joins tuples whose products lie in different classes
    table = conj_classes(S3)
    tuples = [list(itertools.product(range(6), repeat=n + 1)) for n in (1, 2)]
    for (i, j) in whole_b(S3, 2).entries:
        assert _class_of_tuple(S3, table, tuples[0][i]) == _class_of_tuple(S3, table, tuples[1][j])


def test_partition_violation_detected(monkeypatch):
    # sabotage the class map: one transposition moves to the identity's class
    table = conj_classes(S3)
    moved = list(table.class_of)
    moved[S3.names.index("(12)")] = table.class_of[0]
    sabotaged = ConjClassTable(S3, table.classes, tuple(moved))
    monkeypatch.setattr(ggtkit.homology, "conj_classes", lambda G: sabotaged)
    with pytest.raises(PartitionViolation):
        hochschild_slice(S3, 2)
    monkeypatch.undo()
    # the cyclic quotient checks the bases it is handed, too
    bases = hochschild_bases(S3, 2, sabotaged.class_of)
    with pytest.raises(PartitionViolation):
        cyclic_quotient(ComplexSlice(S3, "hochschild", sabotaged, bases, {}))

    # sabotage a face: the wrap-around face multiplies in the wrong order
    def faces(model, t):
        *merges, _ = _b_faces(model, t)
        yield from merges
        yield (model.multiply(t[0], t[-1]),) + t[1:-1], (-1) ** (len(t) - 1)

    hh = hochschild_slice(S3, 2)
    monkeypatch.setattr(ggtkit.homology, "_b_faces", faces)
    with pytest.raises(PartitionViolation):
        hochschild_slice(S3, 2)
    with pytest.raises(PartitionViolation):
        cyclic_quotient(hh)
    with pytest.raises(PartitionViolation):
        centralizer_slices(S3, 2)


# -- centralizer subcomplexes ---------------------------------------------------------


@pytest.mark.parametrize("name,G,nclasses", ALL_GROUPS + ORDER_EIGHT)
def test_centralizer_complexes_match_the_class_blocks(name, G, nclasses):
    # the oracle: the whole class blocks of the slice and of its cyclic quotient
    for n_max in range(1, 5):
        sl = hochschild_slice(G, n_max, basis_cap=G.order ** (n_max + 1))
        _, hh, hc = centralizer_slices(G, n_max, basis_cap=G.order ** (n_max + 1))
        assert homology_dims(hh) == homology_dims(sl)
        assert homology_dims(hc) == homology_dims(cyclic_quotient(sl))


@pytest.mark.parametrize("name,G,nclasses", ALL_GROUPS + ORDER_EIGHT)
def test_centralizer_bases_equal_the_filtered_class_blocks(name, G, nclasses):
    # S_x built from its tails is the oracle's class block filtered to the
    # tuples over C_G(x) with product x, in the same order
    sx, _, _ = centralizer_slices(G, 4, basis_cap=G.order**5)
    for n, blocks in enumerate(centralizer_blocks(G, 4)):
        assert list(map(list, sx.bases[n].blocks)) == blocks
        assert sx.bases[n].where == {t: (c, i, 1) for c, block in enumerate(blocks) for i, t in enumerate(block)}
    # |C_G(x)|^n tuples, one per tail, against the class's share of |G|^(n+1)
    classes = sx.class_table.classes
    assert [len(block) for block in sx.bases[4].blocks] == [cls.centralizer_order**4 for cls in classes]


def test_centralizer_complexes_s3_degree_five():
    # closed form: class c contributes H_*(C_G(x); C), which is C in degree 0
    _, hh, hc = centralizer_slices(S3, 5, basis_cap=6**6)
    assert set(homology_dims(hh).per_class.values()) == {(1, 0, 0, 0, 0)}
    assert set(homology_dims(hc).per_class.values()) == {(1, 0, 1, 0, 1)}
    # (|C_G(x)| - 1)^n normalized tuples: centralizers of order 6, 2 and 3
    assert [len(b) for b in hh.bases[5].blocks] == [5**5, 1**5, 2**5]


def test_cli_s3_degree_five(capsys):
    assert run(["homology", "--group", "S3", "--nmax", "5", "--cap-basis", "100000"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["hochschild"]["total"] == [3, 0, 0, 0, 0]
    assert results["cyclic"]["total"] == [3, 0, 3, 0, 3]
    assert len(results["identities"]) == 11 and set(results["identities"].values()) == {"0"}


@pytest.mark.parametrize("G,centralizers", [(cyclic_group(6), 1), (S3, 3)], ids=["Z6", "S3"])
def test_classes_with_one_centralizer_rank_one_bar_complex(monkeypatch, G, centralizers):
    _, hh, hc = centralizer_slices(G, 3)
    for n in (1, 2, 3):
        assert len({id(m) for m in hh.boundaries[n]}) == centralizers
    ranked = []
    original = SparseRationalMatrix.rank
    monkeypatch.setattr(SparseRationalMatrix, "rank", lambda m: ranked.append(m) or original(m))
    assert set(homology_dims(hh).per_class.values()) == {(1, 0, 0)}
    assert len(ranked) == 3 * centralizers
    if centralizers == 1:  # abelian: every S_x is its whole class block
        assert hc.bases == cyclic_quotient(hochschild_slice(G, 3)).bases


def test_sabotaged_centralizer_detected(monkeypatch):
    table = conj_classes(S3)
    e, t23, t12 = (S3.names.index(x) for x in ("e", "(23)", "(12)"))
    assert [cls.representative for cls in table.classes] == [e, t23, S3.names.index("(123)")]

    def sabotage(c, centralizer):
        classes = list(table.classes)
        classes[c] = replace(classes[c], centralizer=centralizer)
        monkeypatch.setattr(ggtkit.homology, "conj_classes", lambda G: replace(table, classes=tuple(classes)))

    # not a subgroup, and (12) does not commute with (23): a face leaves S_x
    sabotage(1, (e, t23, t12))
    with pytest.raises(PartitionViolation, match="outside the complex"):
        centralizer_slices(S3, 3)
    # the 3-cycles given the whole group: the wrap-around face conjugates
    # the product out of S_x
    sabotage(2, table.classes[0].centralizer)
    with pytest.raises(PartitionViolation, match="outside the complex"):
        centralizer_slices(S3, 3)


def test_cli_homology_builds_the_tuple_bases_once(monkeypatch, capsys):
    calls = []
    tuples = ggtkit.homology._centralizer_tuples
    monkeypatch.setattr(ggtkit.homology, "_centralizer_tuples", lambda *args: calls.append(args[2]) or tuples(*args))
    for group, nclasses in (("S3", 3), ("Z6", 6)):
        calls.clear()
        assert run(["homology", "--group", group, "--nmax", "3", "--split"]) == 0
        assert calls == [3] * nclasses  # S_x(0..3) once per class
    capsys.readouterr()


def test_cyclic_split_blocks_sum():
    # block-sum totals against dense ranks of the oracle's whole matrices
    for _, G, nclasses in ALL_GROUPS:
        dims, _, _, boundaries = _oracle_cyclic_quotient(G, 3)
        assert _full_rank_dims(dims, boundaries) == (nclasses, 0, nclasses)
        hc = homology_dims(cyclic_quotient(hochschild_slice(G, 3)))
        assert hc.total == (nclasses, 0, nclasses)
        assert all(v == (1, 0, 1) for v in hc.per_class.values())


def _class_block_dims(sl, rank):
    """Per-class dims of a slice with ``rank`` applied to each block."""
    top = sl.n_max
    want = {}
    for c in range(len(sl.class_table)):
        ranks = [0] + [rank(sl.boundaries[n][c]) for n in range(1, top + 1)] + [0]
        want[c] = tuple(len(sl.bases[n].blocks[c]) - ranks[n] - ranks[n + 1] for n in range(top))
    return want


@pytest.mark.parametrize("name,G,nclasses", ALL_GROUPS)
def test_class_block_dims_match_dense_bareiss(name, G, nclasses):
    hh = hochschild_slice(G, 3)
    for sl in (hh, cyclic_quotient(hh), *centralizer_slices(G, 3)[1:]):
        assert homology_dims(sl).per_class == _class_block_dims(sl, _dense_rank)


@pytest.mark.parametrize("G", [cyclic_group(4), S3], ids=["Z4", "S3"])
def test_class_block_dims_match_sympy(G):
    sympy = pytest.importorskip("sympy")

    def sympy_rank(m):
        dense = sympy.zeros(m.rows, m.cols)
        for (i, j), v in m.entries.items():
            dense[i, j] = sympy.Rational(v.numerator, v.denominator)
        return dense.rank()

    hh = hochschild_slice(G, 3)
    for sl in (hh, cyclic_quotient(hh), *centralizer_slices(G, 3)[1:]):
        assert homology_dims(sl).per_class == _class_block_dims(sl, sympy_rank)


@pytest.mark.parametrize("name,G,nclasses", ALL_GROUPS + ORDER_EIGHT)
def test_class_blocks_equal_the_restricted_whole_matrices(name, G, nclasses):
    """Every class block of b_n, B_n (n <= 3) and of the cyclic b_n is its
    class's restriction of the whole matrix: the one-class call for b and
    B, the orbit-analysis oracle for the cyclic b."""
    table = conj_classes(G)
    o = G.order
    cap = o ** 5
    bases = hochschild_bases(G, 4, table.class_of, cap)
    by_class = []  # per degree: class -> tuple indices in increasing order
    for n in range(5):
        degree = [[] for _ in range(nclasses)]
        for t in itertools.product(range(o), repeat=n + 1):
            degree[_class_of_tuple(G, table, t)].append(_tuple_index(o, t))
        by_class.append(degree)
        assert [[_tuple_index(o, t) for t in block] for block in bases[n].blocks] == degree
    for c in range(nclasses):
        for n in (1, 2, 3):
            want = _restrict(whole_b(G, n), by_class[n - 1][c], by_class[n][c])
            got = hochschild_boundary(G, n, bases, c)
            assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)
        for n in (0, 1, 2, 3):
            want = _restrict(whole_B(G, n, basis_cap=cap), by_class[n + 1][c], by_class[n][c])
            got = connes_B(G, n, bases, c)
            assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)

    _, reps, _, whole = _oracle_cyclic_quotient(G, 3)
    cy = cyclic_quotient(hochschild_slice(G, 3))
    rep_blocks = []  # per degree: class -> positions of its representatives
    for n, degree in enumerate(reps):
        blocks = [[] for _ in range(nclasses)]
        for pos, t in enumerate(degree):
            blocks[_class_of_tuple(G, table, t)].append(pos)
        rep_blocks.append(blocks)
        assert [[degree[p] for p in block] for block in blocks] == list(cy.bases[n].blocks)
    for n in (1, 2, 3):
        for c in range(nclasses):
            want = _restrict(whole[n], rep_blocks[n - 1][c], rep_blocks[n][c])
            got = cy.boundaries[n][c]
            assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)


@pytest.mark.parametrize("name,G,nclasses", ORDER_EIGHT)
def test_order_eight_groups_certified(name, G, nclasses):
    assert all(
        G.multiply(G.multiply(x, y), z) == G.multiply(x, G.multiply(y, z))
        for x, y, z in itertools.product(range(8), repeat=3)
    )
    assert len(conj_classes(G)) == nclasses
    hh_slice = hochschild_slice(G, 3)
    hh = homology_dims(hh_slice)
    hc = homology_dims(cyclic_quotient(hh_slice))
    assert hh.total == (5, 0, 0) and hc.total == (5, 0, 5)
    assert set(hh.per_class.values()) == {(1, 0, 0)}
    assert set(hc.per_class.values()) == {(1, 0, 1)}


@pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
def test_s3_degree_four(split, capsys):
    # the measured range at n = 4, within the default basis cap
    code = run(["homology", "--group", "S3", "--nmax", "4"] + (["--split"] if split else []))
    assert code == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["hochschild"]["total"] == [3, 0, 0, 0]
    assert results["cyclic"]["total"] == [3, 0, 3, 0]
    if split:
        assert set(map(tuple, results["hochschild"]["per_class"].values())) == {(1, 0, 0, 0)}
        assert set(map(tuple, results["cyclic"]["per_class"].values())) == {(1, 0, 1, 0)}
    else:
        assert "per_class" not in results["hochschild"] and "per_class" not in results["cyclic"]
    assert len(results["identities"]) == 9 and set(results["identities"].values()) == {"0"}


@pytest.mark.parametrize("name,G,nclasses", ALL_GROUPS)
def test_split_and_unsplit_reports_agree(name, G, nclasses, capsys):
    for nmax in ("2", "3"):
        reports = []
        for extra in ([], ["--split"]):
            assert run(["homology", "--group", name, "--nmax", nmax] + extra) == 0
            report = json.loads(capsys.readouterr().out)
            del report["inputs"]["split"]
            for kind in ("hochschild", "cyclic"):
                report["results"][kind].pop("per_class", None)
            reports.append(report)
        assert reports[0] == reports[1]


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
