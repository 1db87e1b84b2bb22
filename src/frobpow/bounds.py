"""Closed-form degree bounds from Koszul syzygy slopes.

Everything here is exact rational arithmetic on the generator degrees
d_1..d_n and the ring invariants: syzygy ranks/degrees by alternating sums
over the Koszul complex, the slope constant nu under strong semistability,
the Smith and parameter inclusion bounds, the Frobenius-power inclusion
threshold, the regularity bound constants (C1, C0) and the resolution-degree
comparison constant C1'.

nu for an arbitrary bundle is not computable here; it is produced only in
the parameter case (top syzygy invertible) or under the user-asserted
strongly_semistable flag, and every report records which.
"""

import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .rings import AssumptionMissing


# Rank/degree data of the j-th Koszul syzygy sheaf for generator degrees
# d_1..d_n; degrees are recorded as multiples of the ambient degree, and
# shift_degrees are the sums of (j+1) distinct d_i, sorted.  The fields are
# in the order the koszul report prints them.
KoszulInvariants = namedtuple(
    "KoszulInvariants", "j rank degree_coeff slope_over_deg shift_degrees"
)


def koszul_invariants(degrees, j, dim_ring=None):
    """Alternating-sum rank and degree of the j-th Koszul syzygy.

    The Koszul term G_i has rank C(n, i) and degree coefficient
    -C(n-1, i-1) * sum(d) (for equal twist bookkeeping the subset-sum total
    is exact for arbitrary degrees).  Exactness of the tail
    G_n -> ... -> G_{j+1} -> Syz_j -> 0 gives the alternating sums.
    """
    degrees = tuple(degrees)
    n = len(degrees)
    if not 0 <= j <= n - 1:
        raise ValueError(f"syzygy index j={j} out of range for n={n} generators")
    total = sum(degrees)
    rank = 0
    degree_coeff = 0
    sign = 1
    for i in range(j + 1, n + 1):
        subset_sum_total = math.comb(n - 1, i - 1) * total
        rank += sign * math.comb(n, i)
        degree_coeff += sign * (-subset_sum_total)
        sign = -sign
    if j >= 1:
        assert rank == math.comb(n - 1, j), "Koszul rank closed form violated"
    if dim_ring is not None and j == dim_ring - 1:
        t = dim_ring - 1
        assert degree_coeff == math.comb(n - 2, t - 1) * (-total), (
            "Koszul degree closed form violated"
        )
    shifts = tuple(
        sorted(sum(s) for s in combinations(degrees, min(j + 1, n)))
    )
    slope = Fraction(degree_coeff, rank) if rank else Fraction(0)
    return KoszulInvariants(j, rank, degree_coeff, slope, shifts)


def nu_strongly_semistable(degrees, dim_ring):
    """nu = t * (d_1 + ... + d_n) / (n - 1) with t = dim_ring - 1, the slope
    constant when the top Koszul syzygy is strongly semistable."""
    degrees = tuple(degrees)
    n = len(degrees)
    if dim_ring < 2:
        raise ValueError("need dim R >= 2")
    if n < dim_ring:
        raise ValueError(
            f"{n} generators cannot be primary with a rank-{dim_ring - 1} "
            "Koszul top syzygy: need n >= dim R"
        )
    t = dim_ring - 1
    nu = Fraction(t * sum(degrees), n - 1)
    assert nu == -koszul_invariants(degrees, t, dim_ring).slope_over_deg
    return nu


def parameter_bound(degrees):
    """Inclusion bound d_1 + ... + d_n for parameter ideals."""
    return sum(degrees)


def smith_bound(degrees, dim_ring):
    """Sum of the dim_ring largest generator degrees."""
    degrees = tuple(degrees)
    if len(degrees) < dim_ring:
        raise ValueError("need n >= dim R")
    return sum(sorted(degrees, reverse=True)[:dim_ring])


def inclusion_threshold(nu, a, q):
    """Smallest integer m with m > q*nu + a (strict at integer boundaries)."""
    bound = Fraction(q) * Fraction(nu) + a
    return math.floor(bound) + 1


def chardin_constant(degrees, dim_ring):
    """max over resolution shift degrees alpha_{k,j}, j = 1..dim_ring, for the
    Koszul complex: the sum of the min(dim_ring, n) largest degrees."""
    degrees = tuple(degrees)
    take = min(dim_ring, len(degrees))
    return sum(sorted(degrees, reverse=True)[:take])


def regularity_bound_constants(degrees, ring):
    """(C1, C0) for the linear regularity bound reg(I^[q]) <= C1*q + C0.

    C1 = max(d_i, j * sum(d) / (n-1) for j = 1..dim R - 1) under the
    strongly_semistable flag; C0 = max(reg(R), a-invariant); dim R is
    ring.dim.

    For two parameters on a curve (n = dim R = 2) the only syzygy involved is
    an invertible sheaf, so no semistability assumption is needed.
    """
    degrees = tuple(degrees)
    unconditional = len(degrees) == ring.dim == 2
    if "strongly_semistable" not in ring.flags and not unconditional:
        raise AssumptionMissing(
            "strongly_semistable",
            "the slope constants for C1 require strongly semistable Koszul "
            "syzygies; the unconditional minimal slope is not computable here",
        )
    slopes = [-koszul_invariants(degrees, j, ring.dim).slope_over_deg
              for j in range(1, ring.dim)]
    c1 = max([Fraction(max(degrees))] + slopes)
    c0 = max(ring.regularity(), ring.a_invariant())
    return c1, c0


def compute_nu(degrees, dim_ring, flags):
    """nu with provenance.  Parameter ideals (n = dim R) need no assumption:
    the top Koszul syzygy is invertible.  Otherwise the strongly_semistable
    flag is required."""
    degrees = tuple(degrees)
    n = len(degrees)
    if n < dim_ring:
        raise ValueError("need n >= dim R for an R_+-primary ideal bound")
    if n == dim_ring:
        return Fraction(sum(degrees)), "parameter ideal: top syzygy invertible"
    if "strongly_semistable" not in flags:
        raise AssumptionMissing(
            "strongly_semistable",
            "nu = t*(d_1+...+d_n)/(n-1) is only valid when the top Koszul "
            "syzygy is strongly semistable; no algorithm computes the "
            "minimal slope unconditionally",
        )
    return (
        nu_strongly_semistable(degrees, dim_ring),
        "strongly semistable Koszul top syzygy (user-asserted flag)",
    )
