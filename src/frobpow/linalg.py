"""Dense exact linear algebra over F_p on top of numpy.

Row echelon runs blocked (right-looking LU style): panels are eliminated with
per-pivot vectorized updates and the trailing submatrix is updated with one
matrix product per panel, so large membership matrices stay BLAS-bound.
Products are taken in float32/float64 with inner dimension <= block, which is
exact for the moduli this tool targets (machine-word primes).
"""

from __future__ import annotations

import numpy as np

_DEFAULT_BLOCK = 128
_CHUNK = 4096


def _storage_dtype(p):
    # products mult*entry stay below (p-1)^2; keep them inside the dtype
    return np.int32 if p <= 32749 else np.int64


def _gemm_dtype(p, block):
    # exact float accumulation: block * (p-1)^2 must fit the mantissa
    if block * (p - 1) ** 2 < 2**24:
        return np.float32
    if block * (p - 1) ** 2 < 2**53:
        return np.float64
    return None  # fall back to integer matmul


def row_echelon_mod(M, p, block=_DEFAULT_BLOCK):
    """In-place row echelon form of M over F_p; returns the pivot columns.

    Deterministic: pivots are the first nonzero entry in each column, columns
    processed left to right.
    """
    n, m = M.shape
    np.mod(M, p, out=M)
    gemm = _gemm_dtype(p, block)
    pivots = []
    r = 0
    c = 0
    while r < n and c < m:
        cend = min(c + block, m)
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
            pinv = pow(int(M[r + k, col]), -1, p)
            mult = M[r + k + 1 :, col] * pinv % p
            L[k + 1 :, k] = mult
            M[r + k + 1 :, col:cend] = (
                M[r + k + 1 :, col:cend] - np.outer(mult, M[r + k, col:cend])
            ) % p
            pivots.append(col)
            k += 1
        if k and cend < m:
            A12 = M[r : r + k, cend:]
            # forward-substitute the unit lower triangle of the panel
            for j in range(k - 1):
                A12[j + 1 : k] = (
                    A12[j + 1 : k] - np.outer(L[j + 1 : k, j], A12[j])
                ) % p
            L21 = L[k:, :k]
            A22 = M[r + k :, cend:]
            if L21.size and A22.size:
                # raw products stay below block * (p-1)^2; reduce mod p on the
                # integer side (float remainder is an order of magnitude slower)
                raw_fits_storage = k * (p - 1) ** 2 < np.iinfo(M.dtype).max - p
                for s in range(0, m - cend, _CHUNK):
                    sl = slice(s, min(s + _CHUNK, m - cend))
                    if gemm is not None:
                        prod = L21.astype(gemm) @ A12[:, sl].astype(gemm)
                        if raw_fits_storage:
                            prod = prod.astype(M.dtype)
                        else:
                            prod = prod.astype(np.int64) % p
                    else:
                        prod = (
                            L21.astype(np.int64) @ A12[:, sl].astype(np.int64)
                        ) % p
                    A22[:, sl] = (A22[:, sl] - prod) % p
        r += k
        c = cend
    return pivots


def rank_mod(A, p, block=_DEFAULT_BLOCK):
    M = np.array(A, dtype=_storage_dtype(p))
    if M.size == 0:
        return 0
    return len(row_echelon_mod(M, p, block=block))


def solve_mod(A, b, p, block=_DEFAULT_BLOCK):
    """One solution x of A x = b over F_p (free variables set to 0), or None
    if the system is inconsistent."""
    A = np.asarray(A, dtype=_storage_dtype(p))
    b = np.asarray(b, dtype=_storage_dtype(p)).reshape(-1)
    n, m = A.shape
    if b.shape[0] != n:
        raise ValueError("dimension mismatch")
    if n == 0:
        return np.zeros(m, dtype=_storage_dtype(p))
    M = np.empty((n, m + 1), dtype=_storage_dtype(p))
    M[:, :m] = A % p
    M[:, m] = b % p
    pivots = row_echelon_mod(M, p, block=block)
    if pivots and pivots[-1] == m:
        return None
    x = np.zeros(m, dtype=np.int64)
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        row = M[i].astype(np.int64)
        s = int(row[pc + 1 : m] @ x[pc + 1 :]) % p
        x[pc] = pow(int(row[pc]), -1, p) * ((int(row[m]) - s) % p) % p
    return x.astype(_storage_dtype(p))
