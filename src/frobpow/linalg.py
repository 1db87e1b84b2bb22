"""Exact linear algebra over F_p on top of numpy, split into connected blocks.

``rank_mod`` and ``solve_mod`` first split the matrix into the connected
components of the bipartite graph whose vertices are its rows and columns and
whose edges are its nonzero entries.  Each block keeps its rows and
columns in their original order and is eliminated on its own; zero rows and
zero columns belong to no block.  Columns of different blocks share no rows,
so column j is a pivot of its block exactly when it is a pivot of the whole
matrix (it is not in the span of the columns before it): the rank is the sum
of the block ranks, and the solution with free variables at 0 is the block
solutions put back in place, identical to a dense solve.  A matrix that forms
one block is eliminated whole.

Row echelon runs blocked (right-looking LU style) in panels of ``_PANEL``
columns: a panel is eliminated with per-pivot vectorized updates and the
trailing submatrix is updated with one matrix product per panel, so large
blocks stay BLAS-bound.  Every product goes through ``_matmul_mod``, the one
place that decides how to multiply exactly mod p for every prime below 2**32,
from the bound k * (p-1)**2 on its entries (k the inner dimension, at most
``_PANEL``): float32 BLAS below 2**24, float64 BLAS below 2**53, int64 below
2**63, and beyond that the right operand split into 16-bit halves.  An outer
product (k = 1) is a broadcast multiply, which BLAS would not speed up, so it
stays on integers.
"""

from __future__ import annotations

import numpy as np

_PANEL = 128


def _storage_dtype(p):
    # products mult*entry stay below (p-1)^2; keep them inside the dtype
    return np.int32 if p <= 32749 else np.int64


def from_triplets(shape, rows, cols, vals, p):
    """A zero array of the given shape, in the storage dtype for p, with
    vals[t] at (rows[t], cols[t]) for every t."""
    A = np.zeros(shape, dtype=_storage_dtype(p))
    A[np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)] = vals
    return A


def _matmul_mod(A, B, p):
    """A @ B for 2-D integer arrays with entries in [0, p), p < 2**32 and inner
    dimension k < 2**14, as an unreduced array congruent to the product mod
    p; the caller reduces it once.

    The result has the operands' dtype when k * (p-1)**2 + p fits it, so the
    caller's ``(C - A @ B) % p`` cannot overflow, and int64 otherwise.
    """
    k = A.shape[1]
    bound = k * (p - 1) ** 2
    dtype = np.result_type(A, B)
    if bound + p > np.iinfo(dtype).max:
        dtype = np.int64
    if k > 1 and bound < 2**53:
        # BLAS: float sums of integers stay exact while they fit the mantissa
        f = np.float32 if bound < 2**24 else np.float64
        return (A.astype(f) @ B.astype(f)).astype(dtype)
    # an inner dimension of 1 is an outer product: a broadcast multiply
    mul = np.multiply if k == 1 else np.matmul
    if bound < 2**63:
        return mul(A, B, dtype=dtype)
    # each product of a half stays below k * 2**48 < 2**62
    return (mul(A, B >> 16, dtype=dtype) % p << 16) + mul(A, B & 0xFFFF, dtype=dtype)


def row_echelon_mod(M, p):
    """In-place row echelon form of M over F_p; returns the pivot columns.

    Deterministic: pivots are the first nonzero entry in each column, columns
    processed left to right.
    """
    n, m = M.shape
    np.mod(M, p, out=M)
    pivots = []
    r = 0
    c = 0
    while r < n and c < m:
        cend = min(c + _PANEL, m)
        nrem = n - r
        L = np.zeros((nrem, cend - c), dtype=M.dtype)
        k = 0
        for col in range(c, cend):
            nz = np.flatnonzero(M[r + k :, col])
            if nz.size == 0:
                continue
            pr = r + k + int(nz[0])
            if pr != r + k:
                M[[r + k, pr], :] = M[[pr, r + k], :]
                L[[k, pr - r], :] = L[[pr - r, k], :]
            pinv = np.array([[pow(int(M[r + k, col]), -1, p)]], dtype=M.dtype)
            mult = _matmul_mod(M[r + k + 1 :, col : col + 1], pinv, p) % p
            L[k + 1 :, k] = mult[:, 0]
            M[r + k + 1 :, col:cend] = (
                M[r + k + 1 :, col:cend]
                - _matmul_mod(mult, M[r + k : r + k + 1, col:cend], p)
            ) % p
            pivots.append(col)
            k += 1
        if k and cend < m:
            A12 = M[r : r + k, cend:]
            # forward-substitute the unit lower triangle of the panel
            for j in range(k - 1):
                prod = _matmul_mod(L[j + 1 : k, j : j + 1], A12[j : j + 1], p)
                A12[j + 1 : k] = (A12[j + 1 : k] - prod) % p
            A22 = M[r + k :, cend:]
            A22[:] = (A22 - _matmul_mod(L[k:, :k], A12, p)) % p
        r += k
        c = cend
    return pivots


def _blocks(A):
    """Connected blocks of A, as (rows, cols) pairs of ascending index arrays;
    a row or column with no nonzero entry is in no block.  An entry that is
    nonzero but 0 mod p can only merge two blocks, which changes no result."""
    n, m = A.shape
    rows, cols = np.nonzero(A)
    if rows.size == 0:
        return []
    # union-find on vertices 0..n-1 (rows) and n..n+m-1 (columns): hook the
    # larger root of every edge that joins two trees onto the smaller one, then
    # compress every path to its root, until no edge joins two trees
    u, v = rows, cols + n
    parent = np.arange(n + m)
    while True:
        pu, pv = parent[u], parent[v]
        join = pu != pv
        if not join.any():
            break
        pu, pv = pu[join], pv[join]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand
    # a component's root is its smallest vertex, a row: group by root
    nz_rows = np.flatnonzero(np.bincount(rows, minlength=n))
    nz_cols = np.flatnonzero(np.bincount(cols, minlength=m))
    row_root = parent[nz_rows]
    col_root = parent[nz_cols + n]
    row_order = np.argsort(row_root, kind="stable")
    col_order = np.argsort(col_root, kind="stable")
    _, row_start = np.unique(row_root[row_order], return_index=True)
    _, col_start = np.unique(col_root[col_order], return_index=True)
    return list(
        zip(
            np.split(nz_rows[row_order], row_start[1:]),
            np.split(nz_cols[col_order], col_start[1:]),
        )
    )


def _submatrix(A, rows, cols, extra_cols=0):
    """A fresh copy of A[rows][:, cols], with extra_cols spare columns."""
    M = np.empty((len(rows), len(cols) + extra_cols), dtype=A.dtype)
    if len(rows) == A.shape[0] and len(cols) == A.shape[1]:
        M[:, : len(cols)] = A  # one block spanning the matrix
    else:
        M[:, : len(cols)] = A[np.ix_(rows, cols)]
    return M


def rank_mod(A, p):
    A = np.asarray(A, dtype=_storage_dtype(p))
    return sum(
        len(row_echelon_mod(_submatrix(A, rows, cols), p)) for rows, cols in _blocks(A)
    )


def _solve_augmented(M, p):
    """Solution of [A | b] = M with free variables 0, or None; M is reduced
    to row echelon form in place and its last column consumed."""
    m = M.shape[1] - 1
    pivots = row_echelon_mod(M, p)
    if pivots and pivots[-1] == m:
        return None
    x = np.zeros(m, dtype=M.dtype)
    rhs = M[:, m:]
    # back-substitute by columns: once x[pc] is known, move its column of the
    # rows above to the right-hand side
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        x[pc] = pow(int(M[i, pc]), -1, p) * int(rhs[i, 0]) % p
        prod = _matmul_mod(M[:i, pc : pc + 1], x[pc : pc + 1, None], p)
        rhs[:i] = (rhs[:i] - prod) % p
    return x


def solve_mod(A, b, p):
    """One solution x of A x = b over F_p (free variables set to 0), or None
    if the system is inconsistent."""
    A = np.asarray(A, dtype=_storage_dtype(p))
    b = np.asarray(b, dtype=_storage_dtype(p)).reshape(-1)
    n, m = A.shape
    if b.shape[0] != n:
        raise ValueError("dimension mismatch")
    blocks = _blocks(A)
    # b must vanish on the rows of no block: A is zero there
    outside = np.ones(n, dtype=bool)
    for rows, _ in blocks:
        outside[rows] = False
    if (b[outside] % p).any():
        return None
    x = np.zeros(m, dtype=_storage_dtype(p))
    for rows, cols in blocks:
        M = _submatrix(A, rows, cols, extra_cols=1)
        M[:, -1] = b[rows]
        xb = _solve_augmented(M, p)
        if xb is None:
            return None
        x[cols] = xb
    return x
