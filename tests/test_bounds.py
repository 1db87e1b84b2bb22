import math
import random
from fractions import Fraction

import pytest

from frobpow.bounds import (
    chardin_constant,
    compute_nu,
    inclusion_threshold,
    koszul_invariants,
    nu_strongly_semistable,
    parameter_bound,
    regularity_bound_constants,
    smith_bound,
)
from frobpow.rings import AssumptionMissing

from conftest import fermat_cubic_ring, fermat_quartic_ring


# -- koszul invariants -----------------------------------------------------

def test_koszul_quartic_second_syzygy():
    ki = koszul_invariants((5, 5, 5, 5), 2, dim_ring=3)
    assert ki.rank == 3
    assert ki.degree_coeff == -8 * 5
    assert ki.slope_over_deg == Fraction(-8 * 5, 3)


def test_koszul_three_quadrics_first_syzygy():
    ki = koszul_invariants((2, 2, 2), 1, dim_ring=2)
    assert ki.rank == 2
    assert ki.degree_coeff == -6
    assert ki.slope_over_deg == -3


def test_koszul_two_parameters():
    ki = koszul_invariants((3, 4), 1, dim_ring=2)
    assert ki.rank == 1
    assert ki.degree_coeff == -7
    assert ki.shift_degrees == (7,)


def test_koszul_rejects_bad_index():
    with pytest.raises(ValueError):
        koszul_invariants((2, 2, 2), 3)


def test_koszul_closed_forms_random():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(2, 8)
        degrees = tuple(rng.randint(1, 9) for _ in range(n))
        total = sum(degrees)
        for t in range(1, n):
            ki = koszul_invariants(degrees, t, dim_ring=t + 1)
            assert ki.rank == math.comb(n - 1, t)
            assert ki.degree_coeff == math.comb(n - 2, t - 1) * (-total)
            assert ki.slope_over_deg == Fraction(-t * total, n - 1)


def test_koszul_euler_characteristic_j_zero():
    # j = 0 closes the complex over the structure sheaf: rank 1, degree 0
    for degrees in ((2, 2, 2), (1, 3, 5, 7), (4, 4)):
        ki = koszul_invariants(degrees, 0)
        assert ki.rank == 1
        assert ki.degree_coeff == 0


# -- nu --------------------------------------------------------------------

def test_nu_three_quadrics_on_curve():
    assert nu_strongly_semistable((2, 2, 2), 2) == 3


def test_nu_quartic_surface_family():
    for a in (1, 2, 3, 5):
        assert nu_strongly_semistable((a,) * 4, 3) == Fraction(8 * a, 3)


def test_nu_parameter_case_matches_parameter_bound():
    assert nu_strongly_semistable((3, 4), 2) == 7 == parameter_bound((3, 4))


def test_nu_rejects_too_few_generators():
    with pytest.raises(ValueError):
        nu_strongly_semistable((2, 2), 3)


@pytest.mark.parametrize("dim_ring", [1, 0])
def test_nu_refuses_a_ring_of_dimension_below_two(dim_ring):
    with pytest.raises(ValueError) as info:
        nu_strongly_semistable((2, 2), dim_ring)
    assert type(info.value) is ValueError
    assert str(info.value) == "need dim R >= 2"


def test_nu_equals_top_syzygy_slope():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 7)
        dim_ring = rng.randint(2, n)
        degrees = tuple(rng.randint(1, 6) for _ in range(n))
        nu = nu_strongly_semistable(degrees, dim_ring)
        ki = koszul_invariants(degrees, dim_ring - 1, dim_ring)
        assert nu == -ki.slope_over_deg


def test_compute_nu_provenance():
    nu, prov = compute_nu((2, 3), 2, frozenset())
    assert nu == 5 and "parameter" in prov
    nu, prov = compute_nu((2, 2, 2), 2, frozenset({"strongly_semistable"}))
    assert nu == 3 and "semistable" in prov
    with pytest.raises(AssumptionMissing):
        compute_nu((2, 2, 2), 2, frozenset())


# -- simple bounds ---------------------------------------------------------

def test_parameter_bound():
    assert parameter_bound((1, 1)) == 2
    assert parameter_bound((5,)) == 5
    assert parameter_bound((3, 3, 3, 3)) == 12


def test_smith_bound():
    assert smith_bound((2, 2, 2), 2) == 4
    assert smith_bound((3, 3, 3, 3), 3) == 9
    assert smith_bound((1, 2, 5), 2) == 7
    with pytest.raises(ValueError):
        smith_bound((2, 2), 3)


def test_bounds_collapse_in_parameter_case():
    for degrees in ((2, 3), (1, 1, 4), (5, 5, 5)):
        n = len(degrees)
        assert (
            smith_bound(degrees, n)
            == parameter_bound(degrees)
            == nu_strongly_semistable(degrees, n)
        )


# -- inclusion threshold ---------------------------------------------------

def threshold_oracle(nu, a, q):
    """Smallest integer m with m > q*nu + a, found by exact rational scan."""
    m = math.floor(q * Fraction(nu) + a) - 1
    while not Fraction(m) > q * Fraction(nu) + a:
        m += 1
    return m


def test_inclusion_threshold_examples():
    assert inclusion_threshold(Fraction(3), 0, 7) == 22
    assert inclusion_threshold(Fraction(2), 0, 1) == 3  # strict at the boundary
    assert inclusion_threshold(Fraction(8, 3), 0, 3) == 9


def test_inclusion_threshold_matches_rational_oracle():
    rng = random.Random(5)
    for _ in range(100):
        nu = Fraction(rng.randint(0, 30), rng.randint(1, 7))
        a = rng.randint(-4, 4)
        q = rng.choice([1, 2, 3, 4, 7, 9, 49])
        assert inclusion_threshold(nu, a, q) == threshold_oracle(nu, a, q)


# -- regularity constants --------------------------------------------------

def test_regularity_constants_fermat_cubic():
    ring = fermat_cubic_ring()
    c1, c0 = regularity_bound_constants((2, 2, 2), ring)
    assert (c1, c0) == (3, 2)  # bound 3q + 2


def test_regularity_constants_parameters_on_plane_curve():
    ring = fermat_cubic_ring(flags=("cohen_macaulay",))  # no semistability flag
    c1, c0 = regularity_bound_constants((1, 2), ring)
    assert c1 == 3  # max(d1, d2, d1+d2)


def test_regularity_constants_fermat_quartic():
    ring = fermat_quartic_ring()
    c1, c0 = regularity_bound_constants((3, 3, 3, 3), ring)
    assert (c1, c0) == (8, 3)  # slopes 4 and 8 at j = 1, 2


def test_regularity_constants_refuse_without_flag():
    ring = fermat_cubic_ring(flags=("cohen_macaulay",))
    with pytest.raises(AssumptionMissing):
        regularity_bound_constants((2, 2, 2), ring)


# -- chardin comparison ----------------------------------------------------

def test_chardin_constant():
    assert chardin_constant((2, 2, 2), 2) == 4
    assert chardin_constant((3, 3, 3, 3), 3) == 9
    assert chardin_constant((1, 1), 2) == 2


def test_slope_bound_never_worse_for_equal_degrees():
    # t*n*d/(n-1) <= (t+1)*d for n >= t+1
    for n in range(2, 9):
        for dim_ring in range(2, n + 1):
            for d in (1, 2, 5):
                degrees = (d,) * n
                c1prime = chardin_constant(degrees, dim_ring)
                nu = nu_strongly_semistable(degrees, dim_ring)
                assert max(Fraction(d), nu) <= c1prime
