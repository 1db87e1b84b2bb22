import pytest

from frobpow.engine import IdealSpec
from frobpow.polynomials import poly_parse
from frobpow.rings import RingPresentation

ALL_FLAGS = (
    "normal_domain",
    "cohen_macaulay",
    "omega_invertible",
    "strongly_semistable",
)


def fermat_cubic_ring(p=7, flags=ALL_FLAGS):
    vars3 = ("x", "y", "z")
    return RingPresentation(
        p, vars3, [poly_parse("x^3+y^3+z^3", vars3, p)], flags=flags
    )


def fermat_quartic_ring(p=3, flags=ALL_FLAGS):
    vars4 = ("x", "y", "z", "w")
    return RingPresentation(
        p, vars4, [poly_parse("x^4+y^4+z^4+w^4", vars4, p)], flags=flags
    )


def off_by_one(solve_mod):
    """solve_mod with the first nonzero coordinate of each solution raised by
    1 mod p: a wrong certificate that only the re-check can catch."""

    def perturbed(A, b, p):
        x = solve_mod(A, b, p)
        if x is not None:
            j = next(j for j, v in enumerate(x) if v)
            x = list(x)
            x[j] = (x[j] + 1) % p
        return x

    return perturbed


@pytest.fixture
def cubic():
    return fermat_cubic_ring()


@pytest.fixture
def cubic_squares(cubic):
    return cubic, IdealSpec.from_strings(cubic, ["x^2", "y^2", "z^2"])


FERMAT_CUBIC_FPB = """\
[ring]
char = 7
vars = x y z
relations = x^3+y^3+z^3
[ideal]
gens = x^2 ; y^2 ; z^2
[assumptions]
flags = normal_domain cohen_macaulay omega_invertible strongly_semistable
[options]
order = grevlex
"""


@pytest.fixture
def fermat_cubic_file(tmp_path):
    path = tmp_path / "fermat_cubic.fpb"
    path.write_text(FERMAT_CUBIC_FPB)
    return str(path)
