"""Degree-wise membership in Frobenius powers by exact linear algebra.

For a homogeneous h of degree m and q = p^e, h lies in I^[q] iff h's
coordinate vector over the standard monomials of R_m is in the column span of
the map

    (+)_i R_{m - q*d_i}  ->  R_m,    v |-> sum_i v_i * f_i^q .

Rows are the standard monomials of R_m, columns are (generator, source
monomial) pairs in a fixed deterministic order, so membership certificates
are reproducible.  Membership in a whole degree piece is a Hilbert count, then
rank tests; the search for the least such degree k(q) starts above the last
degree whose Hilbert count alone rules containment out.

The matrix is never built whole.  Let L be the lattice spanned by the
exponent differences inside each relation and each generator.  Every
relation, Groebner-basis element, f_i^q and normal form is homogeneous for
the grading by Z^N/L, so the matrix is block diagonal by class: row mono
meets column (i, mono') only if class(mono) = class(mono' + q * exp(f_i)).
A class is keyed by its canonical representative (``class_keys``), which
differs from each of its monomials by a lattice vector.  Monomials differ by
a lattice vector exactly when their shifts by q * exp(f_i) do, so the shift
is one to one on classes: generator i's columns in a class are one whole
class of R_{m - q*d_i}, the coset of the key minus q * exp(f_i), rows and
columns kept in relative order.  Membership solves only the classes of
NF(h), each walked from its key by ``groebner.coset_monomials`` without
building any whole degree: false only when one has no solution, true only
once the certificate re-verifies.  Containment runs in R' = R/(x^t) over
the generator powers NF(f_i^q) = c*x^t with x^t free of every leading
variable (``_quotient``), where R_k lies in I^[q] exactly when R'_k lies in
the other powers' ideal.  It needs every class, and ranks them one at a
time from the class map {key: ``Piece``}, which splits each whole-degree
basis of R'.  Classes share no rows and no columns, so every pivot and
certificate is the one a whole-degree solve would give.  All of this is
plain Python: a class is assembled as a ``linalg.SparseMatrix`` of dict
rows, and only linalg's dense finish, for a class that fills in, imports
numpy.
"""

from collections import Counter, namedtuple

from . import linalg
from .bounds import compute_nu, inclusion_threshold
from .groebner import coset_monomials
from .polynomials import Polynomial, check_p_power, monomial_mul
from .rings import AssumptionMissing, QuotientRing

EVIDENCE_NOTE = (
    "finite evidence only: tight-closure membership quantifies over all "
    "powers q = p^e, so passing every tested q proves nothing by itself"
)


class NotFoundWithinCap(RuntimeError):
    def __init__(self, q, cap):
        super().__init__(
            f"no containment degree found for q={q} up to cap {cap}: either "
            "the ideal is not R_+-primary or the cap is too small"
        )
        self.q = q
        self.cap = cap


class MatrixTooLarge(RuntimeError):
    def __init__(self, q, m, rows, cols, max_entries):
        super().__init__(
            f"membership matrix in degree {m} for q={q} has "
            f"{rows}x{cols} = {rows * cols} entries (cap {max_entries})"
        )


def lattice_echelon(vectors):
    """Echelon basis of the lattice the integer vectors span, as (pivot,
    row) pairs: pivots strictly increase, each row is zero before its pivot
    and positive at it.  Each vector is reduced in turn, column by column,
    against the row that leads there, by Euclid: while the remainder is not
    zero at that column, it and the row swap.  What is left is stored, with
    its sign made positive, at the first column where no row leads."""
    rows = {}
    for v in vectors:
        v = list(v)
        for c in range(len(v)):
            if not v[c]:
                continue
            row = rows.get(c)
            if row is None:
                rows[c] = v if v[c] > 0 else [-a for a in v]
                break
            while v[c]:
                t = v[c] // row[c]
                v = [a - t * b for a, b in zip(v, row)]
                if v[c]:
                    # a remainder of a positive row[c] is positive
                    row, v = v, row
            rows[c] = row
    return tuple(sorted(rows.items()))


def class_keys(echelon, vectors):
    """Canonical representatives, as tuples, of the integer vectors modulo
    the lattice with this echelon basis: each pivot coordinate is brought
    into [0, pivot) in turn, which later rows (zero there) leave alone.  Two
    vectors get the same key exactly when they differ by a lattice vector."""
    # each row as its pivot entry and its nonzero (coordinate, entry) pairs
    steps = [(c, row[c], [(i, a) for i, a in enumerate(row) if a])
             for c, row in echelon]
    keys = []
    for v in vectors:
        v = list(v)
        for c, d, support in steps:
            t = v[c] // d
            if t:
                for i, a in support:
                    v[i] -= t * a
        keys.append(tuple(v))
    return keys


def _packing(m, n):
    """(pack, unpack) between exponent tuples of n variables and ints with
    one field of m.bit_length() bits per variable, the first variable in the
    highest.  The field holds every exponent up to m, so the sum of two
    packed monomials packs their product whenever the product's exponents
    stay at most m: always, for a product of degree m.  (Monagan-Pearce,
    CASC 2007, pack exponent vectors the same way.)"""
    width = m.bit_length()
    mask = (1 << width) - 1
    shifts = tuple(width * k for k in reversed(range(n)))

    def pack(mono):
        v = 0
        for e in mono:
            v = v << width | e
        return v

    def unpack(v):
        return tuple(v >> s & mask for s in shifts)

    return pack, unpack


# One class of the degree-m membership matrix over ring, R or a quotient R'
# (MembershipEngine._quotient): its rows (standard monomials of ring_m) and
# columns ((generator index, source monomial) pairs), each in its relative
# order in the whole-degree matrix over ring.
Piece = namedtuple("Piece", "rows cols ring")


class IdealSpec(namedtuple("IdealSpec", "generators")):
    """Homogeneous generators of an R_+-primary ideal, a nonempty tuple."""

    __slots__ = ()

    def __new__(cls, generators):
        if not generators:
            raise ValueError("gens is empty")
        for g in generators:
            if g.is_zero() or not g.is_homogeneous():
                raise ValueError("generator not homogeneous (or zero)")
        return super().__new__(cls, generators)

    @property
    def degrees(self):
        """Generator degrees, in generator order."""
        return tuple(g.degree() for g in self.generators)

    @classmethod
    def from_strings(cls, ring, texts):
        return cls(tuple(ring.parse(t) for t in texts))


# Verdict for element in I^[q], with coefficients h_i such that
# element = sum h_i * f_i^q in R when member is true.
MembershipCertificate = namedtuple(
    "MembershipCertificate", "member element q coefficients", defaults=(None,)
)
# k_empirical and tight are None when no degree up to the cap passed; that
# cap is then cap_exceeded (reported as data)
ContainmentRow = namedtuple(
    "ContainmentRow", "e q k_empirical k_threshold tight cap_exceeded",
    defaults=(None,),
)
ClosureRow = namedtuple("ClosureRow", "e q member")
TightClosureReport = namedtuple(
    "TightClosureReport", "element multiplier rows notes"
)
FrobeniusClosureReport = namedtuple(
    "FrobeniusClosureReport", "element rows found_e predicted_sufficient_q"
)


class MembershipEngine:
    """Membership/containment machinery for one (ring, ideal) pair; caches
    the normal forms of generator Frobenius powers and the quotients R'.

    check_matrix_size is the one place that sizes a membership matrix, by
    R's Hilbert function.  Containment runs over R' (_quotient), where
    _shape_verdict answers from the shape alone when it can; _piece walks
    the one class of a key over R for membership, and _assemble builds one
    class over either ring.

    ``nu``, the slope constant of the inclusion bound, is derived from the
    ring's flags by bounds.compute_nu (None when they do not establish it);
    every threshold, guarantee and prediction reads it here.

    With ``max_entries`` set, no membership matrix with more entries is ever
    assembled: operations raise MatrixTooLarge instead.  min_containment_degree
    checks its cap's matrix first; containment_table and the closure tests
    size each query as they build it, and run none until all have passed.
    """

    def __init__(self, ring, ideal, max_entries=None):
        self.ring = ring
        self.ideal = ideal
        self.max_entries = max_entries
        for g in ideal.generators:
            if g.p != ring.p or g.num_vars != ring.num_vars:
                raise ValueError("ideal generator not defined over the ring")
        polys = ring.relations + ideal.generators
        self._echelon = lattice_echelon(
            [a - b for a, b in zip(t, next(iter(f.terms)))]
            for f in polys for t in f.terms
        )
        # f_i^q = sum c^q x^(q*t) over the terms c x^t of f_i: its class is
        # q times that of any one term
        self._exponents = tuple(next(iter(g.terms)) for g in ideal.generators)
        self._fq_cache, self._quotients = {}, {}
        try:
            self.nu = compute_nu(ideal.degrees, ring.dim, ring.flags)[0]
        except (AssumptionMissing, ValueError):
            self.nu = None

    def _generator_power(self, i, q, ring):
        key = (i, q, ring)
        if key not in self._fq_cache:
            raw = self.ideal.generators[i].frobenius_power(q)
            self._fq_cache[key] = ring.normal_form(raw)
        return self._fq_cache[key]

    def _quotient(self, q):
        """(R', kept), memoized: R' = R/(x^t) over the powers NF(f_i^q) =
        c*x^t with x^t coprime to every leading monomial, kept the other
        generators.  (f_i^q) = (x^t), so R_k lies in I^[q] exactly when R'_k
        lies in the kept powers' ideal (Faugere-Lachartre's structural
        pivots, PASCO 2010, taken into the ring)."""
        if q not in self._quotients:
            leads = self.ring.groebner_basis().leading_monomials
            units, kept = [], []
            for i in range(len(self.ideal.generators)):
                terms = list(self._generator_power(i, q, self.ring).terms)
                if len(terms) == 1 and all(
                        not any(map(min, terms[0], lm)) for lm in leads):
                    units.append(terms[0])
                else:
                    kept.append(i)
            ring = QuotientRing(self.ring, units) if units else self.ring
            self._quotients[q] = ring, kept
        return self._quotients[q]

    # -- matrix assembly ---------------------------------------------------

    def check_matrix_size(self, q, m):
        """Shape (rows, cols) of the degree-m membership matrix for q, by
        Hilbert function alone; raises MatrixTooLarge if it has more than
        max_entries entries."""
        rows = self.ring.hilbert_dim(m)
        cols = sum(self.ring.hilbert_dim(m - q * d) for d in self.ideal.degrees)
        if self.max_entries is not None and rows * cols > self.max_entries:
            raise MatrixTooLarge(q, m, rows, cols, self.max_entries)
        return rows, cols

    def _pieces(self, q, m):
        """The class map of the degree-m matrix for q over R' (_quotient):
        {class key: Piece}, keys in order of first appearance (row classes,
        then column classes in generator order).  The graded basis of R' in
        each distinct degree, m and each m - q*d_i of a kept generator, is
        built and split into classes once, for this call only; generator
        i's columns in a class are one whole source class, moved by its key.
        A source degree below 0 has an empty basis, and a generator power
        that is zero still gives its columns, so the shapes sum to R''s
        whole-degree shape."""
        ring, kept = self._quotient(q)
        split = {}
        for s in dict.fromkeys([m] + [m - q * self.ideal.degrees[i] for i in kept]):
            basis = ring.graded_basis(s)
            classes = split[s] = {}
            for key, mono in zip(class_keys(self._echelon, basis), basis):
                classes.setdefault(key, []).append(mono)
        pieces = {key: Piece(monos, [], ring) for key, monos in split[m].items()}
        for i in kept:
            source = split[m - q * self.ideal.degrees[i]]
            shift = tuple(q * a for a in self._exponents[i])
            moved = class_keys(self._echelon, [monomial_mul(k, shift) for k in source])
            for key, monos in zip(moved, source.values()):
                cols = pieces.setdefault(key, Piece([], [], ring)).cols
                cols.extend((i, mono) for mono in monos)
        return pieces

    def _piece(self, q, m, key):
        """The class over R of the degree-m matrix for q with this key,
        walked from the key alone: the rows are the standard monomials of
        degree m in key + L, and generator i's columns those of degree
        m - q*d_i in key - q*exp(f_i) + L, the one source class the shift
        moves onto it.  Membership solves in R, not R': its certificate is
        the solution over all of R's columns."""
        gb = self.ring.groebner_basis()
        cols = []
        for i, d in enumerate(self.ideal.degrees):
            source = [k - q * a for k, a in zip(key, self._exponents[i])]
            cols.extend((i, mono) for mono in coset_monomials(
                gb, self._echelon, source, m - q * d))
        return Piece(coset_monomials(gb, self._echelon, key, m), cols, self.ring)

    def _assemble(self, q, piece):
        """Rows, columns and sparse matrix of one class of the degree-m
        matrix over piece.ring: entry (r, j) is the coefficient of row r in
        NF(mono * f_i^q) for column j = (i, mono).

        Monomials are packed into ints (``_packing``), so a product term is
        one addition.  A product that is a row, a standard monomial, is its
        own normal form; any other is looked up in a table from packed
        monomial to [(row index, coefficient)], filled once per distinct
        product from the ring's monomial_normal_form.  A term of that normal
        form off the rows is a KeyError.  Each column's coefficients are
        summed per row and reduced mod p once."""
        rows, cols, ring = piece
        shape = (len(rows), len(cols))
        # a class with no rows: every normal form in it is zero
        if not rows:
            return rows, cols, linalg.SparseMatrix(shape, [])
        entries = [{} for _ in rows]
        p = ring.p
        pack, unpack = _packing(sum(rows[0]), ring.num_vars)
        row_at = {pack(mono): r for r, mono in enumerate(rows)}
        table, powers = {}, {}
        for j, (i, mono) in enumerate(cols):
            terms = powers.get(i)
            if terms is None:
                gq = self._generator_power(i, q, ring).terms.items()
                terms = powers[i] = [(pack(t), c) for t, c in gq]
            base = pack(mono)
            acc = {}
            for t, c in terms:
                key = base + t
                r = row_at.get(key)
                if r is not None:
                    acc[r] = acc.get(r, 0) + c
                    continue
                nf = table.get(key)
                if nf is None:
                    reduced = ring.monomial_normal_form(unpack(key)).items()
                    nf = table[key] = [(row_at[pack(mr)], cr) for mr, cr in reduced]
                for r, cr in nf:
                    acc[r] = acc.get(r, 0) + c * cr
            for r, v in acc.items():
                v %= p
                if v:
                    entries[r][j] = v
        return rows, cols, linalg.SparseMatrix(shape, entries)

    # -- operations --------------------------------------------------------

    def membership(self, q, h):
        """Solve for h in I^[q]; returns a certificate that is re-verified by
        polynomial arithmetic and normal-form reduction before returning."""
        check_p_power(q, self.ring.p)
        if not h.is_homogeneous():
            raise ValueError("element must be homogeneous")
        m = h.degree()
        self.check_matrix_size(q, m)
        ring = self.ring
        hn = ring.normal_form(h)
        # I^[q] is L-homogeneous: h is a member exactly when each class
        # component of NF(h) is, and the solution is 0 on every other class
        touched = Counter(class_keys(self._echelon, hn.terms))
        coeff_terms = [dict() for _ in self.ideal.generators]
        for key, count in touched.items():
            piece = self._piece(q, m, key)
            b = [hn.terms.get(mono, 0) for mono in piece.rows]
            if len(b) - b.count(0) != count:
                raise AssertionError(
                    "a term of the normal form is not a standard monomial of "
                    "its class: the class walk and normal-form reduction disagree"
                )
            _, col_meta, A = self._assemble(q, piece)
            x = linalg.solve_mod(A, b, ring.p)
            if x is None:
                return MembershipCertificate(False, h, q)
            for (i, mono), v in zip(col_meta, x):
                if v:
                    coeff_terms[i][mono] = v
        coeffs = tuple(Polynomial(ring.p, ring.num_vars, t) for t in coeff_terms)
        self._verify_certificate(q, h, coeffs)
        return MembershipCertificate(True, h, q, coeffs)

    def _verify_certificate(self, q, h, coeffs):
        ring = self.ring
        total = Polynomial.zero(ring.p, ring.num_vars)
        for hi, g in zip(coeffs, self.ideal.generators):
            total = total + hi * g.frobenius_power(q)
        if not ring.normal_form(h - total).is_zero():
            raise AssertionError(
                "certificate identity failed to re-verify: linear algebra and "
                "polynomial arithmetic disagree"
            )

    def _shape_verdict(self, q, k):
        """Whether R_k lies in I^[q] when the Hilbert shape of the degree-k
        matrix over R' (_quotient) decides it, else None: True when R'_k = 0,
        False when it has fewer columns than rows.  The guard sizes R's whole
        degree first (check_matrix_size)."""
        self.check_matrix_size(q, k)
        ring, kept = self._quotient(q)
        rows = ring.hilbert_dim(k)
        cols = sum(ring.hilbert_dim(k - q * self.ideal.degrees[i]) for i in kept)
        return True if not rows else False if cols < rows else None

    def degree_containment(self, q, k):
        """True iff R_k is contained in I^[q], that is R'_k in the kept
        powers' ideal (_quotient): decided by the Hilbert shape over R' when
        it can be, else class by class, by the class shapes and then one rank
        test per class up to the first that is rank-deficient."""
        check_p_power(q, self.ring.p)
        if k < 0:
            raise ValueError("degree must be >= 0")
        verdict = self._shape_verdict(q, k)
        if verdict is not None:
            return verdict
        pieces = self._pieces(q, k).values()
        if any(len(piece.cols) < len(piece.rows) for piece in pieces):
            return False
        return all(linalg.rank_mod(self._assemble(q, piece)[2], piece.ring.p)
                   == len(piece.rows) for piece in pieces if piece.rows)

    def threshold(self, q):
        """The inclusion threshold, least m > q * nu + a; None without nu."""
        if self.nu is None:
            return None
        return inclusion_threshold(self.nu, self.ring.a_invariant(), q)

    def default_cap(self, q):
        """Search cap for the minimal containment degree: threshold(q) plus
        slack 8 when nu is derivable, else q * sum(d_i) + N."""
        k = self.threshold(q)
        if k is None:
            return q * sum(self.ideal.degrees) + self.ring.num_vars
        return k + 8

    def min_containment_degree(self, q, cap=None):
        """Minimal k <= cap with R_k (hence R_{>=k}) inside I^[q].

        Containment is monotone in k (R_{k+1} = R_1 * R_k), so no k up to
        lo, the last degree <= cap with fewer columns than rows (found by
        scanning down from the cap, sized first), needs a rank test; probes
        gallop up from lo in doubling steps, then bisect (lo, hi)."""
        check_p_power(q, self.ring.p)
        if cap is None:
            cap = self.default_cap(q)
        lo = cap
        while lo >= 0 and self._shape_verdict(q, lo) is not False:
            lo -= 1
        base, hi, step = lo, cap + 1, 1
        while hi - lo > 1:
            k = min(base + step, (lo + hi) // 2)
            if self.degree_containment(q, k):
                hi = k
            else:
                lo, step = k, 2 * step
        if hi > cap:
            raise NotFoundWithinCap(q, cap)
        return hi


def _checked_plan(engine, first, emax, query, degree=Polynomial.degree):
    """The queries (e, q, query(q)) for q = p^e, e = first..emax, returned
    only once the matrix of each, in degree degree(query(q)), has passed the
    size guard; each is sized as it is built, so none past a refusal is."""
    plan = []
    for e in range(first, emax + 1):
        q = engine.ring.p**e
        x = query(q)
        engine.check_matrix_size(q, degree(x))
        plan.append((e, q, x))
    return plan


def containment_table(engine, emax, cap=None):
    """k_empirical(q) vs engine.threshold(q) for q = p^e, e = 1..emax, as a
    tuple of ContainmentRow; each search stops at cap or engine.default_cap."""
    plan = _checked_plan(
        engine, 1, emax, lambda q: engine.default_cap(q) if cap is None else cap,
        degree=lambda k: k,
    )
    rows = []
    for e, q, k_cap in plan:
        k_thy = engine.threshold(q)
        try:
            k_emp = engine.min_containment_degree(q, cap=k_cap)
        except NotFoundWithinCap as exc:
            rows.append(ContainmentRow(e, q, None, k_thy, None, exc.cap))
            continue
        tight = (k_emp == k_thy) if k_thy is not None else None
        rows.append(ContainmentRow(e, q, k_emp, k_thy, tight))
    return tuple(rows)


def tight_closure_witness_test(engine, f, c, emax):
    """Test c * f^q in I^[q] for q = p^e, e = 1..emax; finite evidence for f
    in I*, never a proof, with the slope-bound guarantee when engine.nu gives it."""
    if c.is_zero():
        raise ValueError("witness multiplier c must be nonzero")
    if not f.is_homogeneous() or not c.is_homogeneous():
        raise ValueError("f and c must be homogeneous")
    plan = _checked_plan(engine, 1, emax, lambda q: c * f.frobenius_power(q))
    rows = [ClosureRow(e, q, engine.membership(q, h).member) for e, q, h in plan]
    notes = [EVIDENCE_NOTE]
    nu, a = engine.nu, engine.ring.a_invariant()
    if nu is not None and f.degree() >= nu and c.degree() > a:
        notes.append(
            f"guarantee: deg(f) = {f.degree()} >= nu = {nu} and "
            f"deg(c) = {c.degree()} > a = {a}, so every test is predicted "
            "to pass (f lies in the tight closure by the slope bound)"
        )
    return TightClosureReport(f, c, tuple(rows), tuple(notes))


def frobenius_closure_test(engine, f, emax):
    """Smallest e <= emax with f^{p^e} in I^[p^e], or none.

    When engine.nu is derivable and deg(f) > nu, also reports the predicted
    sufficient q: the smallest p^e with q * (deg(f) - nu) > a.
    """
    if not f.is_homogeneous():
        raise ValueError("f must be homogeneous")
    plan = _checked_plan(engine, 0, emax, f.frobenius_power)
    rows = []
    for e, q, h in plan:
        rows.append(ClosureRow(e, q, engine.membership(q, h).member))
        if rows[-1].member:
            break
    found = rows[-1].e if rows and rows[-1].member else None
    predicted, nu = None, engine.nu
    if nu is not None and not f.is_zero() and f.degree() > nu:
        predicted, a = 1, engine.ring.a_invariant()
        while not predicted * (f.degree() - nu) > a:
            predicted *= engine.ring.p
    return FrobeniusClosureReport(f, tuple(rows), found, predicted)
