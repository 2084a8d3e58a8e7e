"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its stated tolerance and time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from ggtkit.bounds import PresentationConstants, bcp_epsilon, n_tilde
from ggtkit.cayley import CyclicSubgroup, ball, cayley_graph, coned_off, estimate_delta_4point
from ggtkit.cli import run as cli_run
from ggtkit.conjugacy import free_group_conjugacy, nilpotent_conjugator, profile_conjugacy_bound
from ggtkit.groups import FreeAbelian, cyclic_group, exact_length, symmetric_group_3
from ggtkit.homology import centralizer_slices, conj_classes, cyclic_quotient, homology_dims
from ggtkit.rdalgebra import Const, Poly, SupportedVector, check_product_estimate
from oracles import decomposition_maps, hochschild_slice, neighborhood_n, weight_check, whole_b, whole_B


class Budget:
    def __init__(self, seconds: float, label: str):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.label}: PASS ({self.elapsed:.1f}s)")
            assert self.elapsed < self.seconds, (
                f"{self.label} exceeded its {self.seconds}s budget: {self.elapsed:.1f}s"
            )
        else:
            print(f"ACCEPTANCE {self.label}: FAIL ({self.elapsed:.1f}s)")
        return False


def conjugate_pair_map(model, base, search):
    """Brute-force oracle: minimal conjugator length and witness for every
    ordered pair of base-ball elements conjugate within the search ball."""
    found = {}
    for gi, g in enumerate(search.elements):
        inv = model.inverse(g)
        glen = search.lengths[gi]
        for ui, u in enumerate(base.elements):
            w = model.multiply(inv, model.multiply(u, g))
            vi = base.index.get(w)
            if vi is not None and (ui, vi) not in found:
                found[(ui, vi)] = (glen, g)
    return found


def test_criterion_1_nilpotent_oracle_equivalence(heis, heis_ball3, heis_ball10):
    with Budget(60, "1 nilpotent oracle equivalence (Heisenberg r=3)"):
        # BFS order makes the first witness minimal, so the map is the oracle
        pairs = conjugate_pair_map(heis, heis_ball3, heis_ball10)
        n = len(heis_ball3)
        for ui in range(n):
            u = heis_ball3.elements[ui]
            for vi in range(n):
                v = heis_ball3.elements[vi]
                exact = nilpotent_conjugator(heis, u, v)
                got = pairs.get((ui, vi))
                if got is not None:
                    # oracle says conjugate: solver must agree, both witnesses valid
                    glen, g = got
                    assert heis.multiply(heis.multiply(heis.inverse(g), u), g) == v
                    assert exact.is_conjugate
                    assert heis.conjugate(exact.witness, u) == v
                    # the claimed minimum is the oracle's, and the witness's length
                    assert exact.witness_length == glen
                    assert exact_length(heis, exact.witness) == exact.witness_length
                else:
                    # no conjugator within radius 10: a valid solver witness
                    # would have to be longer (and none exists when the
                    # central system is unsolvable)
                    if exact.is_conjugate:
                        assert heis.conjugate(exact.witness, u) == v
                        assert exact.witness_length > heis_ball10.radius
                    else:
                        assert exact.status == "not_conjugate"


def test_nilpotent_large_central_offset(heis):
    # (1,0|0) and (1,0|c) are conjugate only by (z1, c | *), of length >= c:
    # the solver must not grow a ball out to radius c
    with Budget(1, "nilpotent solve at central offset 64 (Heisenberg)"):
        res = nilpotent_conjugator(heis, ((1, 0), (0,)), ((1, 0), (64,)))
    assert res.witness == ((0, 64), (0,))
    assert res.witness_length == 64


def test_criterion_2_free_oracle_equivalence(f2, f2_ball4, f2_ball8):
    with Budget(60, "2 free oracle equivalence (F2 r=4)"):
        pairs = conjugate_pair_map(f2, f2_ball4, f2_ball8)
        n = len(f2_ball4)
        for ui in range(n):
            u = f2_ball4.elements[ui]
            lu = f2_ball4.lengths[ui]
            for vi in range(n):
                v = f2_ball4.elements[vi]
                lv = f2_ball4.lengths[vi]
                exact = free_group_conjugacy(f2, u, v)
                got = pairs.get((ui, vi))
                if exact.is_conjugate:
                    # witness bound: length <= L(u) + L(v), hence inside the
                    # search ball, so the oracle must have found the pair
                    assert exact.witness_length <= lu + lv
                    assert f2.conjugate(exact.witness, u) == v
                    assert got is not None
                    glen, g = got
                    assert glen == exact.witness_length  # solver witness minimal
                    assert f2.conjugate(g, u) == v
                else:
                    assert got is None


def test_criterion_3_conjugacy_bound_profiles(f2, heis, heis_ball4, heis_ball10):
    with Budget(300, "3 conjugacy-bound profiles (F2 d=1, Z2 d=0, Heisenberg d<=2)"):
        prof_f2 = profile_conjugacy_bound(f2, 3)
        assert prof_f2.fit.degree == 1 and prof_f2.fit.dominated
        prof_z2 = profile_conjugacy_bound(FreeAbelian(2), 4)
        assert prof_z2.fit.degree == 0 and prof_z2.fit.dominated
        prof_h = profile_conjugacy_bound(heis, 4, base_ball=heis_ball4, search_ball=heis_ball10)
        assert prof_h.fit.degree is not None and prof_h.fit.degree <= 2 and prof_h.fit.dominated
        # fits are exact: every record dominated
        for prof in (prof_f2, prof_z2, prof_h):
            A, d = prof.fit.constant, prof.fit.degree
            for rec in prof.records:
                assert rec.min_conjugator_length <= A * (1 + rec.input_length) ** d
            assert prof.unknown_pairs == []


def test_criterion_4_bound_formulas():
    with Budget(1, "4 bound formulas vs high-precision oracle"):
        # regression constants frozen from a 60-digit evaluation
        assert abs(n_tilde(1, 1) - 15.676272865056628674) < 1e-4
        assert abs(n_tilde(1, 1) - 15.67629) < 1e-4
        assert abs(neighborhood_n(1, 0, 1) - 17.676272865056628674) < 1e-4
        assert abs(neighborhood_n(1, 0, 1) - 17.67629) < 1e-4
        chain = bcp_epsilon(1, PresentationConstants())
        frozen = {
            "K0": 17.676272865056628674,
            "K": 35.852545730113257348,
            "eps_prime": 12854.050353298623614,
            "C_prime": 51418.201413194494455,
            "D": 51420.201413194494455,
            "epsilon": 51420.201413194494455,
        }
        for name, value in frozen.items():
            assert abs(getattr(chain, name) - value) < 1e-4, name


@pytest.mark.parametrize(
    "name,G,nclasses",
    [("Z2", cyclic_group(2), 2), ("Z3", cyclic_group(3), 3), ("S3", symmetric_group_3(), 3)],
)
def test_criterion_5_homology_dimensions(name, G, nclasses):
    with Budget(300, f"5 homology dimensions ({name})"):
        hh_slice = hochschild_slice(G, 3)
        hh = homology_dims(hh_slice)
        assert hh.total == (nclasses, 0, 0)
        hc = homology_dims(cyclic_quotient(hh_slice))
        assert hc.total == (nclasses, 0, nclasses)
        # the centralizer complexes that `ggtkit homology` ranks agree
        _, hh_sx, hc_sx = centralizer_slices(G, 3)
        assert homology_dims(hh_sx).total == hh.total and homology_dims(hc_sx).total == hc.total
        # exact matrix identities
        for n in (2, 3):
            assert whole_b(G, n - 1).matmul(whole_b(G, n)).is_zero()
        for n in (0, 1):
            assert whole_B(G, n + 1).matmul(whole_B(G, n)).is_zero()
        for n in (1, 2):
            anti = whole_b(G, n + 1).matmul(whole_B(G, n))
            for (i, j), v in whole_B(G, n - 1).matmul(whole_b(G, n)).entries.items():
                anti.add_at(i, j, v)
            assert anti.is_zero()
        # per-class blocks sum to totals
        for degree in range(3):
            assert sum(v[degree] for v in hh.per_class.values()) == hh.total[degree]
            assert sum(v[degree] for v in hc.per_class.values()) == hc.total[degree]


def test_criterion_6_decomposition_maps():
    with Budget(60, "6 decomposition comparison maps (S3, Z3; n<=2)"):
        for G in (symmetric_group_3(), cyclic_group(3)):
            for cid in range(len(conj_classes(G))):
                for n in (0, 1, 2):
                    rep = decomposition_maps(G, cid, n)
                    assert rep.ok and rep.round_trips_ok


def test_criterion_7_product_estimate(f2):
    with Budget(60, "7 rapid-decay product estimate (1000 seeded pairs x 4 weights)"):
        import random

        rng = random.Random(0)
        b3 = ball(f2, 3)
        weights = [Const(1), Poly.basis(1), Poly.basis(2), Poly.basis(3)]
        pairs = []
        for _ in range(1000):
            vecs = []
            for _ in range(2):
                vec = SupportedVector(f2)
                for _ in range(rng.randint(1, 5)):
                    vec.add_term(
                        b3.elements[rng.randrange(len(b3))],
                        Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                    )
                vecs.append(vec)
            pairs.append(vecs)
        failures = 0
        for f in weights:
            for a, b in pairs:
                if not check_product_estimate(a, b, f, length_cap=8).holds:
                    failures += 1
        assert failures == 0


def test_criterion_8_geometry(f2, f2_graph4, f2_ball8):
    with Budget(120, "8 geometry (delta and coned-off distance)"):
        assert estimate_delta_4point(f2_graph4, exhaustive=True) == 0
        z2_graph = cayley_graph(ball(FreeAbelian(2), 4))
        assert estimate_delta_4point(z2_graph, exhaustive=True) > 0
        coned = coned_off(f2_ball8, [CyclicSubgroup((1,), label="<a>")])
        e = f2_ball8.index[()]
        a8 = f2_ball8.index[(1,) * 8]
        assert coned.distance(e, a8) == 1


def test_criterion_9_weight_functions(f2):
    with Budget(60, "9 simplicial weight functions (F2 r=2, n<=2)"):
        report = weight_check(f2, 2, 2)
        assert report.ok
        assert report.face_checks > 0 and report.degeneracy_checks > 0


def test_criterion_10_byte_identical_reports(capsys):
    with Budget(120, "10 determinism (byte-identical reports)"):
        battery = [
            ["ball", "--group", '{"type":"free","rank":2}', "--radius", "4"],
            ["graph", "--group", '{"type":"free_abelian","rank":2}', "--radius", "3"],
            ["delta", "--group", '{"type":"free","rank":2}', "--radius", "3", "--seed", "1"],
            ["coned", "--group", '{"type":"free","rank":2}', "--radius", "4",
             "--cone", "cyclic:a", "--pair", "e", "aaaa"],
            ["bounds", "eval", "--k", "1", "--delta", "1"],
            ["bounds", "theorem", "--lu", "2", "--lv", "3", "--c", "(1+x)^2", "--q", "(1+x)^2"],
            ["conj", "solve", "--group", '{"type":"free","rank":2}', "--u", "abA", "--v", "b"],
            ["rd", "check", "--group", '{"type":"free","rank":2}', "--trials", "50",
             "--f", "(1+x)^3", "--seed", "5"],
            ["homology", "--group", "S3", "--nmax", "2", "--split"],
            ["profile", "--group", '{"type":"free","rank":2}', "--radius", "2"],
        ]
        outputs = []
        for _ in range(2):
            blob = []
            for argv in battery:
                code = cli_run(argv)
                out = capsys.readouterr().out
                assert code == 0, argv
                blob.append(out)
            outputs.append("".join(blob))
        assert outputs[0] == outputs[1]
        for line in outputs[0].splitlines():
            json.loads(line)  # every report is valid single-line JSON
