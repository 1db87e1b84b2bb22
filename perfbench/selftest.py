"""Self-test of the benchmark's answer checks; needs neither frobpow nor numpy.

    python3 perfbench/selftest.py

Each check must accept an answer that is right and reject the same answer
with one thing changed: a k(q) off by one, a flipped verdict, a certificate
with one coefficient altered, a non-member reported as a member.  The
generated inputs of several seeds are also checked for the facts the checks
rely on (generators vanish at the common zero, non-members do not).
"""

import random
import sys

import checks
import workloads

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)


def kq_payload(p, emax):
    return {"nu": "3", "rows": [
        {"e": e, "q": p**e, "k_empirical": 3 * p**e + 1,
         "k_threshold": 3 * p**e + 1, "tight": True}
        for e in range(1, emax + 1)]}


def test_kq():
    good = kq_payload(7, 2)
    expect(checks.check_kq(good, 7, 2) == [], "kq: right answer rejected")
    for field, delta in (("k_empirical", 1), ("k_empirical", -2), ("k_threshold", 1)):
        bad = kq_payload(7, 2)
        bad["rows"][1][field] += delta
        expect(checks.check_kq(bad, 7, 2), f"kq: {field} {delta:+d} accepted")
    bad = kq_payload(7, 2)
    bad["rows"][0]["tight"] = False
    expect(checks.check_kq(bad, 7, 2), "kq: wrong tight flag accepted")
    bad = kq_payload(7, 2)
    bad["rows"].pop()
    expect(checks.check_kq(bad, 7, 2), "kq: missing row accepted")
    bad = kq_payload(7, 2)
    bad["nu"] = "2"
    expect(checks.check_kq(bad, 7, 2), "kq: wrong nu accepted")


def frobenius_payload(p, emax):
    if p % 3 == 1:
        rows, found = [(e, False) for e in range(emax + 1)], None
    else:
        rows, found = [(0, False), (1, True)], 1
    return {"nu": "2", "predicted_sufficient_q": None, "found_e": found,
            "rows": [{"e": e, "q": p**e, "member": m} for e, m in rows]}


def test_frobenius():
    for p in (7, 5, 11, 13):
        expect(checks.check_frobenius(frobenius_payload(p, 3), p, 3) == [],
               f"frobenius p={p}: right answer rejected")
        bad = frobenius_payload(p, 3)
        bad["rows"][-1]["member"] = not bad["rows"][-1]["member"]
        expect(checks.check_frobenius(bad, p, 3), f"frobenius p={p}: flipped verdict accepted")
        bad = frobenius_payload(p, 3)
        bad["found_e"] = 2 if bad["found_e"] is None else None
        expect(checks.check_frobenius(bad, p, 3), f"frobenius p={p}: wrong found_e accepted")
    bad = frobenius_payload(7, 3)
    bad["predicted_sufficient_q"] = 7
    expect(checks.check_frobenius(bad, 7, 3), "frobenius: predicted q accepted")


def random_poly(rng, p, num_vars, degree, terms):
    monos = workloads._monomials(num_vars, degree)
    return {m: rng.randrange(1, p) for m in rng.sample(monos, min(terms, len(monos)))}


def test_quartic_certificate():
    rng = random.Random(5)
    p, q, names = 5, 5, ("x", "y", "z", "w")
    relation = workloads._fermat(4, 4)
    gens = workloads._pure_powers(4, 3, range(4))
    coeffs = [random_poly(rng, p, 4, 6, 12) for _ in gens]
    h = checks.mul(random_poly(rng, p, 4, 17, 20), relation, p)
    for g, c in zip(gens, coeffs):
        h = checks.add(h, checks.mul(c, checks.frobenius(g, q), p), p)
    query = dict(p=p, vars=names, gens=gens, q=q, h=h, expect=True, relation=relation)
    payload = {"q": q, "member": True,
               "certificate": [checks.format_poly(c, names) for c in coeffs]}
    expect(checks.check_member(payload, query) == [], "quartic: valid certificate rejected")
    for i in range(len(coeffs)):
        altered = [dict(c) for c in coeffs]
        mono = sorted(altered[i])[0]
        altered[i][mono] = altered[i][mono] % (p - 1) + 1
        bad = dict(payload, certificate=[checks.format_poly(c, names) for c in altered])
        expect(checks.check_member(bad, query), f"quartic: altered coefficient of c_{i} accepted")
    expect(checks.check_member(dict(payload, member=False, certificate=None), query),
           "quartic: member = false accepted")
    expect(checks.check_member(dict(payload, q=25), query), "quartic: wrong q accepted")


def test_common_zero():
    for seed in range(4):
        ops = workloads.build("large_prime", seed)
        expect(len(ops) == 12, "large_prime: expected 12 operations")
        for op in ops:
            query = op.check.keywords["query"]
            p, point = query["p"], query["point"]
            expect(all(checks.evaluate(g, point, p) == 0 for g in query["gens"]),
                   f"{op.name}: generators do not vanish at the common zero")
            expect((checks.evaluate(query["h"], point, p) == 0) == query["expect"],
                   f"{op.name}: h(P) does not match the expected verdict")
            parsed = checks.parse_poly(op.args[op.args.index("--elem") + 1],
                                       query["vars"], p)
            expect(parsed == query["h"], f"{op.name}: --elem text does not parse back to h")
            if query["expect"]:
                expect(checks.check_member({"q": 1, "member": False}, query),
                       f"{op.name}: member reported absent accepted")
            else:
                expect(checks.check_member({"q": 1, "member": False}, query) == [],
                       f"{op.name}: proved non-member rejected")
                expect(checks.check_member({"q": 1, "member": True, "certificate": ["0", "0"]},
                                           query), f"{op.name}: non-member reported present accepted")
    # a member's certificate: h = a f1 + b f2 exactly, then one coefficient altered
    rng = random.Random(1)
    p, names = 65537, ("x", "y", "z")
    point = (3, 5, 7)
    gens = []
    for _ in range(2):
        f = random_poly(rng, p, 3, 2, 6)
        f.pop((2, 0, 0), None)
        checks.add_term(f, (2, 0, 0), -checks.evaluate(f, point, p) * pow(9, -1, p), p)
        gens.append(f)
    a, b = random_poly(rng, p, 3, 3, 10), random_poly(rng, p, 3, 3, 10)
    h = checks.add(checks.mul(a, gens[0], p), checks.mul(b, gens[1], p), p)
    query = dict(p=p, vars=names, gens=gens, q=1, h=h, expect=True, point=point)
    good = {"q": 1, "member": True,
            "certificate": [checks.format_poly(a, names), checks.format_poly(b, names)]}
    expect(checks.check_member(good, query) == [], "plain: valid certificate rejected")
    b2 = dict(b)
    mono = sorted(b2)[0]
    b2[mono] = b2[mono] % (p - 1) + 1
    bad = dict(good, certificate=[checks.format_poly(a, names), checks.format_poly(b2, names)])
    expect(checks.check_member(bad, query), "plain: altered certificate accepted")
    query_out = dict(query, expect=False, h=checks.add(h, {(4, 1, 0): 1}, p))
    expect(checks.check_member({"q": 1, "member": False}, query_out) == [],
           "plain: proved non-member rejected")
    expect(checks.check_member({"q": 1, "member": False}, dict(query, expect=False)),
           "plain: unproved non-member (h(P) = 0) accepted as input")


def test_parser():
    rng = random.Random(3)
    for names in workloads.VAR_NAMES[4]:
        f = random_poly(rng, 101, 4, 5, 15)
        order = sorted(f)
        rng.shuffle(order)
        expect(checks.parse_poly(checks.format_poly(f, names, order), names, 101) == f,
               f"parser: round trip failed for {names}")
    expect(checks.parse_poly("2*x^2*y - 3*z^3 + x^2*y", ("x", "y", "z"), 7)
           == {(2, 1, 0): 3, (0, 0, 3): 4}, "parser: signs or like terms mishandled")


if __name__ == "__main__":
    for test in (test_kq, test_frobenius, test_quartic_certificate, test_common_zero,
                 test_parser):
        test()
    for what in failures:
        print("FAIL", what)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    sys.exit(1 if failures else 0)
