"""Exact linear algebra over F_p: sparse elimination on dict rows, with a
dense numpy finish for matrices that fill in.

``rank_mod`` and ``solve_mod`` eliminate a matrix held as one dict
{column: value} per row.  Rows are taken shortest first; each is reduced by
its leading entry against a table of pivot rows keyed by their leading
column, until it is zero or leads in a column with no pivot row yet, where it
becomes that column's pivot row.  Whichever rows are picked as pivots, the
pivot columns are the same: column j is a pivot exactly when it is not in the
span of the columns before it (the reduced row echelon form is unique).  So
the rank, the pivot columns and the solution with free variables 0 are those
of any dense elimination, and the order of rows is free to follow sparsity,
after Markowitz (Management Science 1957).  The sparse phase never mixes rows
of different connected blocks, so block structure costs nothing.

Before it eliminates, ``rank_mod`` takes structural pivots (``_peel``), as
sparse F_p solvers do (Faugere-Lachartre, PASCO 2010; Bouillaguet, Delaplace
and Voge, PASCO 2017): a column with a single nonzero entry, in row i, adds 1
to the rank and row i leaves.  Each removal may leave new singleton columns,
which are taken in turn, with no arithmetic; a column's live holders are
tracked as their count and the XOR of their indices, which is the one holder
once the count is 1.  The rows left are eliminated as below.
``solve_mod`` does not peel.  Its solution, with free variables 0, is read
off the leftmost pivot columns, and a singleton column need not be one: in
the 1 x 2 matrix [1 1] both columns are singletons, and only the first is a
pivot column, so peeling could change the certificate a report prints.

Both take only a ``SparseMatrix``, the type the engine builds.  The sparse
phase counts entry updates.  Past ``_BUDGET`` of them, and at each doubling
of the count, a matrix whose pivot rows hold on average at least ``_FILL`` of
the width has filled in: they and the rows not yet reduced, which span the
same row space as the input, are stacked into a numpy array and finished by
``row_echelon_mod`` (the sparse-then-dense split of Faugere-Lachartre, PASCO
2010).  Both stack them at the matrix's full width, ``solve_mod`` with the
right-hand side as its last column; a column empty in every stacked row is
never a pivot, and ``row_echelon_mod`` passes over it.  A matrix whose pivot
rows stay sparse is finished in Python.  numpy is imported in the dense
finish and ``SparseMatrix.__array__``, nowhere else.

``row_echelon_mod`` runs blocked (right-looking LU style) in panels of
``_PANEL`` columns: a panel is eliminated with per-pivot vectorized updates
and the trailing submatrix is updated with one matrix product per panel, so
large matrices stay BLAS-bound.  Every product goes through ``_matmul_mod``,
the one place that decides how to multiply exactly mod p for every prime
below 2**32, from the bound k * (p-1)**2 on its entries (k the inner
dimension, at most ``_PANEL``): float32 BLAS below 2**24, float64 BLAS below
2**53, int64 below 2**63, and beyond that the right operand split into 16-bit
halves.  An outer product (k = 1) is a broadcast multiply, which BLAS would
not speed up, so it stays on integers.
"""

_PANEL = 128

# entry updates the sparse phase makes before it first asks whether the
# matrix has filled in.  At 0.2-0.4 us each, a matrix that fills in loses at
# most about 0.25 s before it goes dense; c * f^27 on the Fermat quartic at
# p = 3 (a 1431 x 2244 class) takes 682,175 and never asks
_BUDGET = 3 << 18

# the mean pivot-row length, as a share of the width, at which the sparse
# phase hands a matrix to the dense finish.  Measured when the update count
# passes _BUDGET (two cores): the q = 81 class of the same quartic query
# (13041 x 20301) reads 0.07% and ends at 0.13%, and 120 scrambled dense
# 30 x 30 blocks read 0.38%; sparse alone they take about 2 s and 0.2 s,
# dense 221 s at 3.3 GB and 6.6 s.  A class of a random cubic that fills in
# (2461 x 4216, 2.8% dense) reads 1.45%, and a random matrix of the same
# shape 21.5%; sparse alone they run for minutes, dense about 6 s
_FILL = 0.0075


class SparseMatrix:
    """An n x m matrix as one dict {column: value} per row, zeros left out.

    ``np.asarray`` gives its dense form, which the dense finish asks for."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape, rows):
        self.shape = shape
        self.rows = rows

    @property
    def size(self):
        return self.shape[0] * self.shape[1]

    def __array__(self, dtype=None, copy=None):
        import numpy as np

        A = np.zeros(self.shape, dtype=np.int64 if dtype is None else dtype)
        for i, row in enumerate(self.rows):
            A[i, list(row)] = list(row.values())
        return A


def _sparse_rows(A, p):
    """(column count, rows of the SparseMatrix A reduced mod p, fresh dicts)."""
    rows = [{j: w for j, v in row.items() if (w := v % p)} for row in A.rows]
    return A.shape[1], rows


def _eliminate(rows, width, p):
    """Sparse phase: (pivots, rest).  pivots maps each pivot column found to
    its row, scaled to 1 there and zero before it.  rest is None when every
    row is reduced, else the rows still to reduce when the pivot rows filled
    in (see _FILL) to the given width; the pivot rows and rest then span the
    input's row space.  The dicts in rows are reduced in place."""
    rows = sorted(rows, key=len)
    pivots = {}
    work = stored = 0
    check = _BUDGET
    for k, row in enumerate(rows):
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], -1, p)
                if inv != 1:
                    row = {j: v * inv % p for j, v in row.items()}
                pivots[c] = row
                stored += len(row)
                break
            if work > check:
                if stored >= _FILL * width * len(pivots):
                    return pivots, rows[k:]
                check = 2 * work
            work += len(piv)
            f = p - row[c]
            get = row.get
            for j, v in piv.items():
                w = (get(j, 0) + f * v) % p
                if w:
                    row[j] = w
                else:
                    # w is 0 only where row had an entry: f * v != 0 mod p
                    del row[j]
    return pivots, None


def _dense(pivots, rest, width, p):
    """The pivot rows, in pivot order, over the nonzero rows of rest, as one
    dense array of the given width in the storage dtype for p."""
    import numpy as np

    stack = [pivots[c] for c in sorted(pivots)] + [row for row in rest if row]
    return np.asarray(SparseMatrix((len(stack), width), stack), dtype=_storage_dtype(p))


def _storage_dtype(p):
    import numpy as np

    # products mult*entry stay below (p-1)^2; keep them inside the dtype
    return np.int32 if p <= 32749 else np.int64


def _matmul_mod(A, B, p):
    """A @ B for 2-D integer arrays with entries in [0, p), p < 2**32 and inner
    dimension k < 2**14, as an unreduced array congruent to the product mod
    p; the caller reduces it once.

    The result has the operands' dtype when k * (p-1)**2 + p fits it, so the
    caller's ``(C - A @ B) % p`` cannot overflow, and int64 otherwise.
    """
    import numpy as np

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
    """In-place row echelon form of the numpy array M over F_p; returns the
    pivot columns.

    Deterministic: pivots are the first nonzero entry in each column, columns
    processed left to right.
    """
    import numpy as np

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


def _peel(rows, width):
    """Structural pivots: (count, rest).  A column with one live entry, in
    row i, is a pivot, and the rank is 1 plus that of the rows without row i.
    Row i leaves, each column it held loses a holder, and a column left with
    one holder is taken in its turn, until none is left; count is how many,
    rest the nonempty rows left.  count[j] is the number of live rows holding
    column j and held[j] the XOR of their indices, so once count[j] is 1,
    held[j] is that row.  No arithmetic, so any p; the dicts are not changed."""
    count = [0] * width
    for row in rows:
        for j in row:
            count[j] += 1
    held = [0] * width
    for i, row in enumerate(rows):
        for j in row:
            held[j] ^= i
    live = [True] * len(rows)
    queue = [j for j, c in enumerate(count) if c == 1]
    # a column is queued once, when its count reaches 1; by its turn the
    # count may have fallen to 0
    for j in queue:
        if count[j] == 1:
            i = held[j]
            live[i] = False
            for c in rows[i]:
                count[c] -= 1
                held[c] ^= i
                if count[c] == 1:
                    queue.append(c)
    return live.count(False), [row for row, alive in zip(rows, live) if alive and row]


def rank_mod(A, p):
    """Rank over F_p of a SparseMatrix: structural pivots first (_peel), then
    elimination of the rest.  A matrix that fills in is finished dense at
    its full width, as in solve_mod; a peeled column is empty in every row
    left, so it is never a pivot there."""
    m, rows = _sparse_rows(A, p)
    peeled, rows = _peel(rows, m)
    pivots, rest = _eliminate(rows, m, p)
    if rest is not None:
        pivots = row_echelon_mod(_dense(pivots, rest, m, p), p)
    return peeled + len(pivots)


def _solve_augmented(M, p):
    """Solution of [A | b] = M with free variables 0, as a list, or None; M
    is reduced to row echelon form in place and its last column consumed."""
    import numpy as np

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
    return x.tolist()


def solve_mod(A, b, p):
    """One solution x of A x = b over F_p (free variables set to 0), as a
    list of ints, or None if the system is inconsistent.  A is a
    SparseMatrix, b a sequence of integers."""
    m, rows = _sparse_rows(A, p)
    b = [int(v) % p for v in b]
    if len(b) != len(rows):
        raise ValueError("dimension mismatch")
    # b is column m of the augmented matrix [A | b]
    for row, v in zip(rows, b):
        if v:
            row[m] = v
    pivots, rest = _eliminate(rows, m + 1, p)
    if rest is not None:
        return _solve_augmented(_dense(pivots, rest, m + 1, p), p)
    if m in pivots:
        return None
    x = [0] * m
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        s = row.get(m, 0) - sum(v * x[j] for j, v in row.items() if c < j < m)
        x[c] = s % p
    return x
