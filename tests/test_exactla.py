"""Exact linear algebra: SNF, sparse and Bareiss rank, integer systems."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ggtkit.exactla import (
    SparseRationalMatrix,
    smith_normal_form,
    solve_integer_system,
)
from oracles import bareiss_rank


def matmul(X, Y):
    return [
        [sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0]))]
        for i in range(len(X))
    ]


def rank_by_gauss(A):
    """Independent rank oracle: plain Gaussian elimination over Fractions."""
    if not A:
        return 0
    m = [[Fraction(v) for v in row] for row in A]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_snf_diag_2_3():
    U, S, V = smith_normal_form([[2, 0], [0, 3]])
    assert [S[0][0], S[1][1]] == [1, 6]


def test_snf_zero_matrix():
    U, S, V = smith_normal_form([[0, 0], [0, 0]])
    assert S == [[0, 0], [0, 0]]
    assert U == [[1, 0], [0, 1]] and V == [[1, 0], [0, 1]]


def test_snf_random_properties():
    rng = random.Random(7)
    for _ in range(200):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        U, S, V = smith_normal_form(A)
        assert matmul(matmul(U, A), V) == S
        d = [S[i][i] for i in range(min(nr, nc))]
        for i in range(len(d) - 1):
            if d[i + 1] != 0:
                assert d[i] != 0 and d[i + 1] % d[i] == 0
            # everything divides 0, so a zero tail is always fine
        assert sum(1 for x in d if x) == rank_by_gauss(A)


def test_snf_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(13)
    for trial in range(120):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(nc)] for _ in range(nr)]
        if trial % 5 == 0:
            A = [[0] * nc for _ in range(nr)]  # zero matrix
        elif trial % 5 == 1 and nr > 1:
            k = rng.randint(-3, 3)  # rank-deficient: a multiple of another row
            A[-1] = [k * v for v in A[0]]
        _, S, _ = smith_normal_form(A)
        D = sympy_snf(sympy.Matrix(A), domain=sympy.ZZ)
        n = min(nr, nc)
        assert [abs(S[i][i]) for i in range(n)] == [abs(int(D[i, i])) for i in range(n)], A


def test_solver_round_trip_and_kernel():
    rng = random.Random(11)
    for _ in range(200):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        x = [rng.randint(-4, 4) for _ in range(nc)]
        b = [sum(A[i][j] * x[j] for j in range(nc)) for i in range(nr)]
        z, kernel = solve_integer_system(A, b)
        assert z is not None
        assert all(sum(A[i][j] * z[j] for j in range(nc)) == b[i] for i in range(nr))
        for k in kernel:
            assert all(sum(A[i][j] * k[j] for j in range(nc)) == 0 for i in range(nr))


def test_solver_reports_unsolvable():
    z, kernel = solve_integer_system([[2]], [1])
    assert z is None
    z, kernel = solve_integer_system([[0, 0]], [3])
    assert z is None
    assert len(kernel) == 2


def test_bareiss_against_gauss_oracle():
    rng = random.Random(23)
    for _ in range(150):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        A = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        assert bareiss_rank(A) == rank_by_gauss(A)


def test_sparse_matrix_rank_of_two_by_two_integer_matrices():
    m = SparseRationalMatrix(2, 2)
    m.add_at(0, 0, 3)
    m.add_at(0, 1, 2)
    m.add_at(1, 0, 1)
    m.add_at(1, 1, 5)
    assert m.rank() == 2
    m2 = SparseRationalMatrix(2, 2)
    m2.add_at(0, 0, 2)
    m2.add_at(1, 0, 1)
    m2.add_at(0, 1, 4)
    m2.add_at(1, 1, 2)
    assert m2.rank() == 1


def test_sparse_matmul_and_restrict():
    a = SparseRationalMatrix(2, 3, {(0, 0): 1, (1, 2): 2})
    b = SparseRationalMatrix(3, 2, {(0, 1): 3, (2, 0): 1})
    prod = a.matmul(b)
    assert prod.entries == {(0, 1): 3, (1, 0): 2}


def _sparse(A):
    m = SparseRationalMatrix(len(A), len(A[0]) if A else 0)
    for i, row in enumerate(A):
        for j, v in enumerate(row):
            if v:
                m.add_at(i, j, v)
    return m


def _random_sparse_rows(rng, nr, nc, density, entry):
    A = [[entry() if rng.random() < density else 0 for _ in range(nc)] for _ in range(nr)]
    for _ in range(rng.randint(0, 3)):  # duplicate and dependent rows
        if nr < 2:
            break
        i, k = rng.randrange(nr), rng.randrange(nr)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        A[i] = [a * x + b * y for x, y in zip(A[k], A[rng.randrange(nr)])]
    if nr and rng.random() < 0.3:
        A[rng.randrange(nr)] = [0] * nc  # zero row
    if nc and rng.random() < 0.3:
        j = rng.randrange(nc)  # zero column
        for row in A:
            row[j] = 0
    return A


def test_sparse_rank_against_dense_oracles():
    rng = random.Random(31)
    kinds = [
        lambda: rng.randint(-5, 5),
        lambda: rng.randint(-9, 9) * rng.randint(1, 7),
        lambda: rng.choice([1, -1]) * rng.randint(1, 10**30),  # needs the content division
    ]
    for trial in range(300):
        top = 40 if trial % 10 == 0 else 12
        nr, nc = rng.randint(1, top), rng.randint(1, top)
        A = _random_sparse_rows(rng, nr, nc, rng.choice([0.1, 0.3, 0.6]), kinds[trial % 3])
        want = rank_by_gauss(A)
        assert bareiss_rank(A) == want
        assert _sparse(A).rank() == want, A


def test_sparse_rank_of_empty_shapes():
    for nr, nc in [(0, 0), (0, 5), (5, 0), (3, 4)]:
        assert SparseRationalMatrix(nr, nc).rank() == 0


def test_add_at_sums_entries_and_drops_zeros():
    m = SparseRationalMatrix(2, 2)
    m.add_at(0, 0, 3)
    m.add_at(0, 0, -1)
    m.add_at(1, 1, 5)
    assert m.entries == {(0, 0): 2, (1, 1): 5}
    m.add_at(1, 1, -5)
    assert m.entries == {(0, 0): 2}
    prod = m.matmul(m)
    assert prod.entries == {(0, 0): 4} and type(prod.entries[0, 0]) is int
