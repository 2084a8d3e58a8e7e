"""Exact integer linear algebra: sparse matrices, fraction-free rank,
Smith normal form, and integer linear systems.

No floating point anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import DomainError


@dataclass
class SparseRationalMatrix:
    """Sparse matrix over Z, with Python int entries; zero entries are
    never stored."""

    rows: int
    cols: int
    entries: dict = field(default_factory=dict)  # (i, j) -> int

    def add_at(self, i: int, j: int, value: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DomainError(f"entry ({i},{j}) outside a {self.rows}x{self.cols} matrix")
        new = self.entries.get((i, j), 0) + value
        if new == 0:
            self.entries.pop((i, j), None)
        else:
            self.entries[(i, j)] = new

    def is_zero(self) -> bool:
        return not self.entries

    def matmul(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.cols != other.rows:
            raise DomainError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        by_row: dict = {}
        for (i, k), v in other.entries.items():
            by_row.setdefault(i, []).append((k, v))
        acc: dict = {}
        for (i, j), v in self.entries.items():
            for k, w in by_row.get(j, ()):
                key = (i, k)
                acc[key] = acc.get(key, 0) + v * w
        out = SparseRationalMatrix(self.rows, other.cols)
        out.entries = {k: v for k, v in acc.items() if v != 0}
        return out

    def rank(self) -> int:
        """Rank by sparse fraction-free elimination with Markowitz-style
        pivots (after Dumas-Saunders-Villard, JSC 2001).

        Each row is a {col: int} dict.  A step takes the shortest remaining
        row and, in it, the column held by the fewest remaining rows, then
        clears that column with row <- (p/g) row - (f/g) pivot_row,
        g = gcd(p, f), and divides each changed row by its content.  Exact
        over Z throughout.
        """
        rows: dict = {}
        col_rows: dict = {}  # col -> ids of the remaining rows holding it
        for (i, j), v in self.entries.items():
            rows.setdefault(i, {})[j] = v
            col_rows.setdefault(j, set()).add(i)
        queue = [(len(row), i) for i, row in rows.items()]  # stale entries skipped
        heapify(queue)
        rank = 0
        while queue:
            size, pid = heappop(queue)
            prow = rows.get(pid)
            if prow is None or len(prow) != size:
                continue
            del rows[pid]
            for j in prow:
                col_rows[j].discard(pid)
            c = min(prow, key=lambda j: len(col_rows[j]))
            p = prow[c]
            for i in list(col_rows[c]):
                row = rows[i]
                g = gcd(p, row[c])
                a, b = p // g, row[c] // g
                if a != 1:
                    for j in row:
                        row[j] *= a
                for j, w in prow.items():
                    v = row.get(j, 0) - b * w
                    if v:
                        if j not in row:
                            col_rows[j].add(i)
                        row[j] = v
                    elif j in row:
                        del row[j]
                        col_rows[j].discard(i)
                if not row:
                    del rows[i]
                    continue
                content = gcd(*row.values())
                if content != 1:
                    for j in row:
                        row[j] //= content
                heappush(queue, (len(row), i))
            rank += 1
        return rank


def _det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        p = m[k][k]
        for r in range(k + 1, n):
            f = m[r][k]
            m[r][k:] = [(p * m[r][j] - f * m[k][j]) // prev for j in range(k, n)]
        prev = p
    return sign * m[-1][-1]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix: list[list[int]]):
    """Smith normal form: returns (U, S, V) with U*A*V = S.

    U and V are unimodular (|det| = 1, verified), S is diagonal and each
    diagonal entry divides the next.  Works on any shape including empty.
    """
    A = [list(map(int, row)) for row in matrix]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    if any(len(row) != ncols for row in A):
        raise DomainError("ragged matrix")
    U = _identity(nrows)
    V = _identity(ncols)

    def row_op(i, j, q):  # row_i -= q * row_j
        if q:
            A[i] = [a - q * b for a, b in zip(A[i], A[j])]
            U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        if q:
            for row in A:
                row[i] -= q * row[j]
            for row in V:
                row[i] -= q * row[j]

    def swap_rows(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in A:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    n = min(nrows, ncols)
    for k in range(n):
        while True:
            piv = None
            best = None
            for i in range(k, nrows):
                for j in range(k, ncols):
                    a = abs(A[i][j])
                    if a and (best is None or a < best):
                        best = a
                        piv = (i, j)
            if piv is None:
                break
            swap_rows(k, piv[0])
            swap_cols(k, piv[1])
            for i in range(k + 1, nrows):
                row_op(i, k, A[i][k] // A[k][k])
            for j in range(k + 1, ncols):
                col_op(j, k, A[k][j] // A[k][k])
            if any(A[i][k] for i in range(k + 1, nrows)) or any(
                A[k][j] for j in range(k + 1, ncols)
            ):
                continue  # remainders left; re-pivot on a smaller entry
            p = A[k][k]
            bad = None
            for i in range(k + 1, nrows):
                if any(A[i][j] % p for j in range(k + 1, ncols)):
                    bad = i
                    break
            if bad is None:
                break
            row_op(k, bad, -1)  # pull a non-divisible entry into the pivot row
        if k < n and A[k][k] < 0:
            A[k] = [-a for a in A[k]]
            U[k] = [-a for a in U[k]]
        if all(A[i][j] == 0 for i in range(k, nrows) for j in range(k, ncols)):
            break

    for i in range(nrows):
        for j in range(ncols):
            if i != j and A[i][j]:
                raise DomainError("Smith normal form did not reach diagonal shape")  # pragma: no cover
    if abs(_det_int(U)) != 1 or abs(_det_int(V)) != 1:
        raise DomainError("Smith normal form transforms are not unimodular")  # pragma: no cover
    return U, A, V


def solve_integer_system(A: list[list[int]], b: list[int]):
    """Solve A z = b over the integers.

    Returns (particular_solution | None, kernel_basis).  The kernel basis
    spans {z : A z = 0} and is returned even when the system is unsolvable.
    """
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    if nrows == 0:
        return [0] * ncols, _identity(ncols)
    if any(len(row) != ncols for row in A) or len(b) != nrows:
        raise DomainError("inconsistent system dimensions")
    U, S, V = smith_normal_form(A)
    ub = [sum(U[i][j] * b[j] for j in range(nrows)) for i in range(nrows)]
    n = min(nrows, ncols)
    y = [0] * ncols
    solvable = True
    for i in range(nrows):
        d = S[i][i] if i < n else 0
        if d:
            if ub[i] % d != 0:
                solvable = False
                break
            y[i] = ub[i] // d
        elif ub[i] != 0:
            solvable = False
            break
    kernel_cols = [j for j in range(ncols) if j >= n or S[j][j] == 0]
    kernel = [[V[i][j] for i in range(ncols)] for j in kernel_cols]
    if not solvable:
        return None, kernel
    z = [sum(V[i][j] * y[j] for j in range(ncols)) for i in range(ncols)]
    return z, kernel

