import itertools
import random

import numpy as np
import pytest

from frobpow import linalg
from frobpow.linalg import SparseMatrix, rank_mod, row_echelon_mod, solve_mod
from frobpow.polynomials import PolyError, Polynomial, check_prime


def sparse(A):
    """The SparseMatrix of a 2-D integer array (or nested lists), entries
    kept as given."""
    A = np.asarray(A)
    rows = [{j: int(v) for j, v in enumerate(row) if v} for row in A]
    return SparseMatrix(A.shape, rows)


def rank_oracle(A, p):
    """Unblocked textbook elimination, kept independent of the library path."""
    rows = [[int(v) % p for v in r] for r in A]
    m = len(rows[0]) if rows else 0
    r = col = 0
    while r < len(rows) and col < m:
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
        col += 1
    return r


@pytest.mark.parametrize("p", [2, 3, 7, 101, 32749, 65537])
def test_rank_matches_oracle_random(p):
    rng = random.Random(p)
    for _ in range(40):
        n, m = rng.randint(1, 10), rng.randint(1, 10)
        A = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
        assert rank_mod(sparse(A), p) == rank_oracle(A, p)


def test_rank_and_solve_wider_than_one_panel():
    rng = np.random.default_rng(5)
    for p in (2, 7):
        A = rng.integers(0, p, size=(80, 120))
        assert rank_mod(sparse(A), p) == rank_oracle(A.tolist(), p)
        check_wide_low_rank(random.Random(p), p)


def test_solve_recovers_consistent_system():
    rng = random.Random(1)
    for p in (2, 3, 7, 32749):
        for _ in range(30):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            A = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(n)])
            x0 = np.array([rng.randrange(p) for _ in range(m)])
            b = (A @ x0) % p
            x = solve_mod(sparse(A), b, p)
            assert x is not None
            assert ((A @ np.array(x, dtype=np.int64)) % p == b).all()


def test_solve_detects_inconsistency():
    p = 5
    A = sparse([[1, 2], [2, 4]])  # rank 1
    b = [1, 3]  # not in the column span
    assert solve_mod(A, b, p) is None
    assert solve_mod(A, [1, 2], p) is not None


def test_solve_zero_matrix():
    p = 3
    A = SparseMatrix((3, 2), [{}, {}, {}])
    assert solve_mod(A, [0, 1, 0], p) is None
    x = solve_mod(A, [0, 0, 0], p)
    assert x == [0, 0]


def test_rank_invariant_under_permutation():
    rng = np.random.default_rng(9)
    for p in (2, 7):
        A = rng.integers(0, p, size=(12, 17))
        base = rank_mod(sparse(A), p)
        for _ in range(3):
            B = A[rng.permutation(12)][:, rng.permutation(17)]
            assert rank_mod(sparse(B), p) == base


def test_echelon_pivots_deterministic():
    p = 7
    A = np.array([[0, 1, 2], [3, 0, 1], [3, 1, 3]])
    M = A.copy()
    pivots = row_echelon_mod(M, p)
    assert pivots == [0, 1]  # row 3 = row1 + row2, rank 2
    M2 = A.copy()
    assert row_echelon_mod(M2, p) == pivots
    assert (M == M2).all()


def test_exhaustive_tiny_over_f2():
    # every 3x3 matrix over F_2: rank against the oracle
    for bits in itertools.product((0, 1), repeat=9):
        A = [list(bits[0:3]), list(bits[3:6]), list(bits[6:9])]
        assert rank_mod(sparse(A), 2) == rank_oracle(A, 2)


# -- block-diagonal matrices against one unsplit elimination ------------------

def dense_solve(A, b, p):
    """Solution with free variables 0 from one row_echelon_mod of the unsplit
    augmented matrix, back-substituted in Python."""
    n, m = A.shape
    M = np.empty((n, m + 1), dtype=np.int64)
    M[:, :m], M[:, m] = A, b
    pivots = row_echelon_mod(M, p)
    if pivots and pivots[-1] == m:
        return None
    x = [0] * m
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        s = sum(int(M[i, j]) * x[j] for j in range(pc + 1, m))
        x[pc] = pow(int(M[i, pc]), -1, p) * (int(M[i, m]) - s) % p
    return x


def scrambled_block_diagonal(rng, p):
    """Random blocks of random rank on the diagonal, plus zero rows and zero
    columns, with rows and columns permuted."""
    def draw(lo, hi):
        return int(rng.integers(lo, hi + 1))

    shapes = [(draw(1, 6), draw(1, 6)) for _ in range(draw(1, 5))]
    n = sum(r for r, _ in shapes) + draw(0, 3)
    m = sum(c for _, c in shapes) + draw(0, 3)
    A = np.zeros((n, m), dtype=np.int64)
    r0 = c0 = 0
    for r, c in shapes:
        k = draw(1, min(r, c))
        U = rng.integers(0, p, size=(r, k))
        V = rng.integers(0, p, size=(k, c))
        A[r0 : r0 + r, c0 : c0 + c] = (U @ V) % p
        r0, c0 = r0 + r, c0 + c
    return A[rng.permutation(n)][:, rng.permutation(m)]


@pytest.mark.parametrize("p", [2, 3, 7, 32749])
def test_block_split_rank_and_solve_match_unsplit(p):
    rng = np.random.default_rng(p)
    for _ in range(30):
        A = scrambled_block_diagonal(rng, p)
        assert rank_mod(sparse(A), p) == rank_oracle(A.tolist(), p)
        n, m = A.shape
        for b in (A @ rng.integers(0, p, size=m) % p, rng.integers(0, p, size=n)):
            x = solve_mod(sparse(A), b, p)
            expected = dense_solve(A, b, p)
            if expected is None:
                assert x is None
            else:
                assert x == expected


def test_solve_nonzero_on_empty_row_is_inconsistent():
    p = 7
    A = sparse([[1, 2, 0], [0, 0, 0], [0, 0, 3]])
    assert solve_mod(A, [1, 0, 3], p) == [1, 0, 1]
    assert solve_mod(A, [1, 5, 3], p) is None
    # an entry of p is zero mod p: its row is empty too
    assert solve_mod(sparse([[p, 0], [0, 1]]), [1, 0], p) is None


def test_empty_matrices():
    p = 5
    no_rows, no_cols = SparseMatrix((0, 4), []), SparseMatrix((3, 0), [{}, {}, {}])
    assert rank_mod(no_rows, p) == 0
    assert rank_mod(no_cols, p) == 0
    assert solve_mod(no_rows, [], p) == [0] * 4
    assert solve_mod(no_cols, [0, 0, 0], p) == []
    assert solve_mod(no_cols, [0, 2, 0], p) is None


def test_solve_rejects_a_right_side_of_the_wrong_length():
    A = SparseMatrix((2, 3), [{0: 1}, {2: 1}])
    for b in ([1], [1, 0, 0]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve_mod(A, b, 5)


# -- every prime the parser accepts ------------------------------------------

# at 1291 the trailing update after a 40-pivot panel has k * (p-1)**2 just
# below 2**26, and about half of its sums pass 2**24
@pytest.mark.parametrize(
    "p", [2, 3, 1291, 32749, 65537, 16777213, 2**31 - 1, 4294967291]
)
def test_rank_and_solve_exact_across_prime_bands(p):
    rng = random.Random(p)
    for _ in range(12):
        n, m = rng.randint(1, 40), rng.randint(1, 40)
        k = rng.randint(1, min(n, m))
        U = [[rng.randrange(p) for _ in range(k)] for _ in range(n)]
        V = [[rng.randrange(p) for _ in range(m)] for _ in range(k)]
        A = [[sum(u * v for u, v in zip(row, col)) % p for col in zip(*V)] for row in U]
        assert rank_mod(sparse(A), p) == rank_oracle(A, p)
        x0 = [rng.randrange(p) for _ in range(m)]
        b = [sum(a * v for a, v in zip(row, x0)) % p for row in A]
        x = solve_mod(sparse(A), b, p)
        assert x is not None
        assert [sum(a * int(v) for a, v in zip(row, x)) % p for row in A] == b
    check_wide_low_rank(rng, p)


# a 1 x k by k x 1 product of entries p - 2 is an odd sum just past a float
# mantissa (2**24 for float32, 2**53 for float64), which a float product
# rounds.  Its bound k * (p-1)**2 lies in [2**t, 2**(t+1)), so only a tier
# that ends at exactly 2**t keeps it exact
@pytest.mark.parametrize("p, k, t, exact", [(1291, 11, 24, 44), (67108859, 3, 53, 12)])
def test_matmul_mod_is_exact_just_past_each_float_tier(p, k, t, exact):
    assert 2**t <= k * (p - 1) ** 2 < 2 ** (t + 1)
    A = np.full((1, k), p - 2, dtype=np.int64)
    assert k * (p - 2) ** 2 % p == exact
    assert int(linalg._matmul_mod(A, A.T, p)[0, 0]) % p == exact


def check_wide_low_rank(rng, p):
    """Low-rank matrices wider than one elimination panel, their factors about
    half zeros: panels with fewer pivots than columns, row swaps, forward
    substitution and the trailing update in every product regime."""
    def draw(rows, cols, zeros):
        entries = [
            [rng.randrange(p) * (rng.randrange(2) if zeros else 1) for _ in range(cols)]
            for _ in range(rows)
        ]
        return np.array(entries, dtype=object)

    for n, m, k in ((60, 300, 40), (140, 150, 135)):
        A = (draw(n, k, True) @ draw(k, m, True) % p).astype(np.int64)
        assert rank_mod(sparse(A), p) == rank_oracle(A.tolist(), p)
        consistent = A.astype(object) @ draw(m, 1, False) % p
        for b in (consistent[:, 0], draw(n, 1, False)[:, 0]):
            b = b.astype(np.int64)
            x = solve_mod(sparse(A), b, p)
            expected = dense_solve(A, b, p)
            if expected is None:
                assert x is None
            else:
                assert x == expected
                assert ((A.astype(object) @ np.array(x, dtype=object)) % p == b).all()


# -- structural pivots taken before elimination ------------------------------

def planted_cascades(rng, p):
    """(width, rows, chains) for a random sparse core with two singleton
    cascades planted beside it, rows and columns scrambled.  In the column
    chain, column C_0 is held by row R_0 alone and C_t by R_{t-1} and R_t,
    so removing R_{t-1} leaves C_t a singleton.  In the row chain, S_0 holds
    D_0 alone and S_t holds D_{t-1} and D_t, so deleting D_{t-1} leaves S_t
    a singleton; core rows hold D columns too.  Core entries may equal p,
    which is zero mod p; empty rows, a row holding only p and copies of core
    rows ride along.  a and b are the lengths of the column and row chains;
    the row chain is a column chain of the transpose."""
    mc, a, b = rng.randint(0, 10), rng.randint(1, 6), rng.randint(1, 6)
    width = mc + a + b
    C, D = range(mc, mc + a), range(mc + a, width)

    def nonzero():
        return rng.randrange(1, p)

    def core_entries(density):
        return {j: p if rng.random() < 0.05 else nonzero()
                for j in range(mc) if rng.random() < density}

    core = [core_entries(0.4) for _ in range(rng.randint(0, 10))]
    for row in core:
        row.update((j, nonzero()) for j in D if rng.random() < 0.3)
    rows = core + [dict(row) for row in rng.sample(core, min(len(core), 2))]
    for t in range(a):
        row = core_entries(0.3)
        row.update((c, nonzero()) for c in C[t : t + 2])
        rows.append(row)
    rows += [{d: nonzero() for d in D[max(t - 1, 0) : t + 1]} for t in range(b)]
    rows += [{}, {rng.randrange(width): p}]
    perm = list(range(width))
    rng.shuffle(perm)
    rows = [{perm[j]: v for j, v in row.items()} for row in rows]
    rng.shuffle(rows)
    return width, rows, a, b


def transpose(width, rows):
    """The rows of the transpose of the matrix with the given width and rows."""
    cols = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


@pytest.mark.parametrize("p", [2, 3, 7, 65537, 2**31 - 1, 4294967291])
def test_structural_pivots_match_the_oracle_on_planted_cascades(p):
    rng = random.Random(p)
    for _ in range(60):
        width, rows, a, b = planted_cascades(rng, p)
        rank = rank_oracle([[row.get(j, 0) for j in range(width)] for row in rows], p)
        # A, then its transpose, in which the row chain is a column chain
        for A, chain in [(SparseMatrix((len(rows), width), rows), a),
                         (SparseMatrix((width, len(rows)), transpose(width, rows)), b)]:
            before = [dict(row) for row in A.rows]
            assert rank_mod(A, p) == rank
            assert A.rows == before
            reduced = linalg._sparse_rows(A, p)[1]
            unpeeled = [dict(row) for row in reduced]
            peeled, rest = linalg._peel(reduced, A.shape[1])
            assert reduced == unpeeled
            pivots, left = linalg._eliminate(rest, A.shape[1], p)
            assert left is None and peeled + len(pivots) == rank
            # every row of the planted column chain is peeled, cascade included
            assert peeled >= chain


@pytest.mark.parametrize("p", [2, 3, 7, 65537, 2**31 - 1, 4294967291])
def test_structural_pivots_on_small_cases(p):
    cases = [
        # duplicate one-entry rows share a column, which is no singleton:
        # elimination settles them (in the second case after column 1, a
        # singleton, takes the third row)
        ([[1, 0], [1, 0]], 1),
        ([[2, 0, 0], [3, 0, 0], [1, 1, 0]], 2),
        # a one-entry row whose column has other entries: no column is a
        # singleton, and elimination settles it all
        ([[0, 1, 0], [1, 1, 1], [0, 1, 1], [1, 0, 1]], 3),
        # no singleton: every column holds two entries, every row two
        ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3 if p > 2 else 2),
        ([[1, 1], [1, 1], [0, 0]], 1),
        # an entry of p is zero mod p: it makes no singleton
        ([[p, 0], [0, 0]], 0),
        ([[p, 0], [0, 1]], 1),
        ([[p, 1, 1], [0, 1, 1]], 1),
    ]
    for A, rank in cases:
        assert rank_oracle(A, p) == rank
        assert rank_mod(sparse(A), p) == rank


# -- sparse phase against the dense reference ---------------------------------

def sparse_low_rank(rng, p, n, m):
    """A random n x m matrix of rank at most k, with rows that are sums of
    a few sparse generating rows: structured zeros that fill in as they are
    eliminated, in row and column orders that are not its echelon order."""
    k = rng.randint(1, min(n, m))
    basis = [{j: rng.randrange(1, p) for j in rng.sample(range(m), rng.randint(1, min(m, 4)))}
             for _ in range(k)]
    A = np.zeros((n, m), dtype=object)
    for i in range(n):
        for g in rng.sample(basis, rng.randint(0, min(3, k))):
            c = rng.randrange(1, p)
            for j, v in g.items():
                A[i, j] = (A[i, j] + c * v) % p
    return A.astype(np.int64)


def check_against_dense(rng, p, A):
    """rank_mod and solve_mod on the SparseMatrix form of A against
    row_echelon_mod of the whole (augmented) matrix."""
    n, m = A.shape
    rank = len(row_echelon_mod(A.copy(), p))
    S = sparse(A)
    rows = [dict(row) for row in S.rows]
    assert rank_mod(S, p) == rank
    x0 = np.array([rng.randrange(p) for _ in range(m)], dtype=object)
    consistent = (A.astype(object) @ x0 % p).astype(np.int64)
    outside = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
    for b in (consistent, outside):
        expected = dense_solve(A, b, p)
        assert solve_mod(S, list(b), p) == expected
    # the input is left as it was
    assert S.rows == rows


def handoffs(monkeypatch):
    """Spy on the dense finish: the (pivot rows, rows left) counts of each
    handoff."""
    seen = []
    dense = linalg._dense

    def spy(pivots, rest, width, p):
        seen.append((len(pivots), sum(1 for row in rest if row)))
        return dense(pivots, rest, width, p)

    monkeypatch.setattr(linalg, "_dense", spy)
    return seen


@pytest.mark.parametrize("p", [2, 3, 7, 65537, 2**31 - 1, 4294967291])
def test_sparse_phase_matches_dense_reference_across_budgets(monkeypatch, p):
    rng = random.Random(p)
    seen = handoffs(monkeypatch)
    # small budgets hand off part-way, after some pivots and before the last
    for budget in (0, 3, 30, 300, linalg._BUDGET):
        monkeypatch.setattr(linalg, "_BUDGET", budget)
        for _ in range(6):
            A = sparse_low_rank(rng, p, rng.randint(1, 24), rng.randint(1, 24))
            check_against_dense(rng, p, A)
    assert any(pivots and rest for pivots, rest in seen)


def tenth_dense(rng, p, n, m):
    """An n x m array, each entry a nonzero below p with probability 0.1."""
    return np.array([[rng.randrange(1, p) if rng.random() < 0.1 else 0 for _ in range(m)]
                     for _ in range(n)], dtype=np.int64)


def test_fill_in_past_the_budget_takes_the_dense_finish(monkeypatch):
    # 10% dense at p = 7: elimination fills it in, past the update budget
    p, n, m = 7, 200, 260
    rng = random.Random(7)
    A = tenth_dense(rng, p, n, m)
    seen = handoffs(monkeypatch)
    assert rank_mod(sparse(A), p) == len(row_echelon_mod(A.copy(), p))
    b = (A @ np.arange(m)) % p
    assert solve_mod(sparse(A), b, p) == dense_solve(A, b, p)
    assert len(seen) == 2 and all(pivots and rest for pivots, rest in seen)


def test_dense_finish_behind_a_border_of_singleton_columns(monkeypatch):
    # the filling 200 x 260 core above, with 20 rows that each hold core
    # entries and the one entry of a column of their own: the border peels
    # off and the core still goes dense
    p, n, m, border = 7, 200, 260, 20
    rng = random.Random(7)
    A = np.zeros((n + border, m + border), dtype=np.int64)
    A[:n, :m] = tenth_dense(rng, p, n, m)
    A[n:, :m] = tenth_dense(rng, p, border, m)
    A[range(n, n + border), range(m, m + border)] = 1 + np.arange(border) % (p - 1)
    A = A[np.random.default_rng(7).permutation(n + border)]
    peeled, peel = [], linalg._peel

    def spy(rows, width):
        count, rest = peel(rows, width)
        peeled.append(count)
        return count, rest

    monkeypatch.setattr(linalg, "_peel", spy)
    seen = handoffs(monkeypatch)
    assert rank_mod(sparse(A), p) == len(row_echelon_mod(A.copy(), p))
    assert peeled == [border]
    assert len(seen) == 1 and sum(seen[0]) <= n


def bordered_core(rng, p, n, m, border, empty):
    """A random n x m core, about a third nonzero and every column held at
    least twice, beside `border` rows that each hold core entries and the
    one entry of a column of their own, and `empty` zero columns; rows and
    columns scrambled."""
    core = [[rng.randrange(1, p) if rng.random() < 0.35 else 0 for _ in range(m)]
            for _ in range(n)]
    for j in range(m):
        for i in rng.sample(range(n), 2):
            core[i][j] = core[i][j] or rng.randrange(1, p)
    rows = [row + [0] * (border + empty) for row in core]
    for b in range(border):
        own = [0] * (border + empty)
        own[b] = rng.randrange(1, p)
        entries = [rng.randrange(1, p) if rng.random() < 0.2 else 0 for _ in range(m)]
        rows.append(entries + own)
    perm = list(range(m + border + empty))
    rng.shuffle(perm)
    rng.shuffle(rows)
    return [[row[j] for j in perm] for row in rows]


@pytest.mark.parametrize(
    "p", [2, 3, 7, 1291, 32749, 65537, 16777213, 2**31 - 1, 4294967291]
)
def test_rank_finishes_dense_on_the_columns_it_holds(monkeypatch, p):
    # a budget of 0 asks at the second update whether the pivot rows have
    # filled in, and a third-full core has: the border peels off, and the
    # dense finishes of rank_mod and solve_mod alike stack the rows at the
    # full width (solve_mod's with the right-hand side), peeled and empty
    # columns included; neither is ever a pivot
    monkeypatch.setattr(linalg, "_BUDGET", 0)
    widths, echelon = [], linalg.row_echelon_mod

    def spy(M, p):
        widths.append(M.shape[1])
        return echelon(M, p)

    monkeypatch.setattr(linalg, "row_echelon_mod", spy)
    rng = random.Random(p)
    cases = [bordered_core(rng, p, rng.randint(12, 30), rng.randint(12, 30),
                           rng.randint(1, 8), rng.randint(1, 8)) for _ in range(4)]
    # zero columns 124 to 131 straddle the first panel boundary, and the
    # core's rank, near 132, takes the elimination past it with rows left
    wide = bordered_core(rng, p, 136, 132, 2, 0)
    cases.append([row[:124] + [0] * 8 + row[124:] for row in wide])
    for A in cases:
        width = len(A[0])
        widths.clear()
        assert rank_mod(sparse(A), p) == rank_oracle(A, p)
        assert widths == [width]
        widths.clear()
        b = [rng.randrange(p) for _ in A]
        assert solve_mod(sparse(A), b, p) == dense_solve(np.array(A), b, p)
        assert widths == [width + 1]


@pytest.mark.parametrize("budget", [1 << 16, linalg._BUDGET])
def test_scattered_small_blocks_stay_sparse_past_the_budget(monkeypatch, budget):
    # 120 dense 30 x 30 blocks at p = 7, rows and columns scrambled: 811,984
    # updates in all, and from 2**16 of them on the pivot rows hold under
    # 0.65% of the 3600 columns, so the sparse phase finishes it alone
    monkeypatch.setattr(linalg, "_BUDGET", budget)
    rng = random.Random(1)
    perm = list(range(3600))
    rng.shuffle(perm)
    rows = [{perm[30 * k + j]: rng.randrange(1, 7) for j in range(30)}
            for k in range(120) for _ in range(30)]
    rng.shuffle(rows)
    pivots, rest = linalg._eliminate(rows, 3600, 7)
    assert rest is None and len(pivots) == 3587


def test_characteristic_above_ceiling_is_refused():
    check_prime(4294967291)  # the largest prime below 2**32
    with pytest.raises(PolyError, match="below 2\\*\\*32"):
        check_prime(4294967311)  # the smallest prime above it
    with pytest.raises(PolyError):
        Polynomial(4294967311, 1, {(1,): 1})
