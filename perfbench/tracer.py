"""Per-layer spans and counters around frobpow's public entry points.

Installed by child.py in traced runs only; no program file changes.  A span
records inclusive time, and self time (its duration minus the part its child
spans cover), under the name of its layer.  Layers and what they wrap:

    cli                          cli.run_command
    cli.parse                    cli.parse_problem_file
    groebner.buchberger          rings.buchberger (rings binds it by name)
    groebner.standard_monomials  rings.standard_monomials (likewise)
    rings.normal_form            RingPresentation.normal_form
    engine                       MembershipEngine.membership,
                                 .degree_containment, .min_containment_degree
    engine.verify                from solve_mod's return to membership's
    linalg.rank, linalg.solve    linalg.rank_mod, linalg.solve_mod
    polynomials.frobenius_power  Polynomial.frobenius_power

Hot calls are counted without a span: Polynomial construction,
RingPresentation.monomial_normal_form (and its cache hits), graded_basis and
the monomials groebner.monomials_of_degree yields to standard_monomials.
Matrix nnz is counted outside every span; that time is booked to the
``trace.bookkeeping`` layer so it leaves no other layer's self time.
"""

import time
from collections import defaultdict

import numpy as np

from frobpow import cli, engine, groebner, linalg, polynomials, rings

now = time.perf_counter


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        # open frames: [layer, start, time covered by children]
        self.stack = [["root", now(), 0.0]]

    def open(self, layer):
        frame = [layer, now(), 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame):
        # close virtual frames (engine.verify) opened inside this one first
        while True:
            top = self.stack.pop()
            dur = now() - top[1]
            self.self_s[top[0]] += dur - top[2]
            self.incl_s[top[0]] += dur
            self.stack[-1][2] += dur
            if top is frame:
                return

    def bookkeeping(self, fn, *args):
        t0 = now()
        out = fn(*args)
        dur = now() - t0
        self.self_s["trace.bookkeeping"] += dur
        self.stack[-1][2] += dur
        return out

    def span(self, layer, fn, before=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            frame = self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return wrapper

    def totals(self):
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "counts": dict(self.counts)}


def install():
    t = Tracer()
    count = t.counts

    cli.run_command = t.span("cli", cli.run_command)
    cli.parse_problem_file = t.span("cli.parse", cli.parse_problem_file)
    rings.buchberger = t.span("groebner.buchberger", rings.buchberger)

    standard_monomials = rings.standard_monomials
    monomials_of_degree = groebner.monomials_of_degree

    def counted_monomials_of_degree(num_vars, m):
        # standard_monomials and the generator's own recursion both look the
        # name up in groebner; the recursion gets the original back, so only
        # the monomials of the outermost call are counted
        groebner.monomials_of_degree = monomials_of_degree
        n = 0
        try:
            for n, mono in enumerate(monomials_of_degree(num_vars, m), 1):
                yield mono
        finally:
            groebner.monomials_of_degree = counted_monomials_of_degree
            count["groebner.monomials_enumerated"] += n

    groebner.monomials_of_degree = counted_monomials_of_degree

    def traced_standard_monomials(gb, m):
        out = standard_monomials(gb, m)
        count["groebner.standard_monomials_calls"] += 1
        count["groebner.monomials_kept"] += len(out)
        return out

    rings.standard_monomials = t.span(
        "groebner.standard_monomials", traced_standard_monomials
    )

    Ring = rings.RingPresentation
    Ring.normal_form = t.span("rings.normal_form", Ring.normal_form)
    graded_basis = Ring.graded_basis
    monomial_normal_form = Ring.monomial_normal_form

    def counted_graded_basis(self, m):
        count["rings.graded_basis_calls"] += 1
        return graded_basis(self, m)

    def counted_monomial_normal_form(self, mono):
        count["rings.monomial_nf_calls"] += 1
        if mono in self._nf_cache:
            count["rings.monomial_nf_hits"] += 1
        return monomial_normal_form(self, mono)

    Ring.graded_basis = counted_graded_basis
    Ring.monomial_normal_form = counted_monomial_normal_form

    Poly = polynomials.Polynomial
    poly_init = Poly.__init__

    def counted_init(self, *args, **kwargs):
        count["polynomials.constructed"] += 1
        poly_init(self, *args, **kwargs)

    Poly.__init__ = counted_init
    Poly.frobenius_power = t.span("polynomials.frobenius_power", Poly.frobenius_power)

    Engine = engine.MembershipEngine

    def tally(key):
        def before(*args, **kwargs):
            count[key] += 1
        return before

    Engine.membership = t.span("engine", Engine.membership, tally("engine.memberships"))
    Engine.degree_containment = t.span("engine", Engine.degree_containment)
    Engine.min_containment_degree = t.span("engine", Engine.min_containment_degree)

    assemble = Engine._assemble

    def counted_assemble(self, q, m):
        out = assemble(self, q, m)
        A = out[2]
        count["engine.matrix_entries"] += A.size
        count["engine.max_matrix_entries"] = max(
            count["engine.max_matrix_entries"], A.size
        )
        count["engine.matrix_nnz"] += int(t.bookkeeping(np.count_nonzero, A))
        return out

    Engine._assemble = counted_assemble

    def count_matrix(A, extra_cols):
        A = np.asarray(A)
        count["linalg.calls"] += 1
        count["linalg.entries"] += A.shape[0] * (A.shape[1] + extra_cols)
        count["linalg.nnz"] += int(t.bookkeeping(np.count_nonzero, A))

    # engine calls linalg.rank_mod / linalg.solve_mod through the module
    def count_rank_test(A, p, **kw):
        # only degree_containment calls rank_mod; it returns early, without a
        # rank test, when the matrix has fewer columns than dim R_k
        count["engine.rank_tests"] += 1
        count_matrix(A, 0)

    linalg.rank_mod = t.span("linalg.rank", linalg.rank_mod, count_rank_test)
    solve_mod = t.span(
        "linalg.solve", linalg.solve_mod, lambda A, b, p, **kw: count_matrix(A, 1)
    )

    def solve_then_verify(*args, **kwargs):
        x = solve_mod(*args, **kwargs)
        # the rest of membership (certificate build and re-verification)
        t.open("engine.verify")
        return x

    linalg.solve_mod = solve_then_verify
    return t
