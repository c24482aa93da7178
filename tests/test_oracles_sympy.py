"""Cross-checks of the exact linear algebra against an independent stack."""
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

from fimod.matrix import Matrix  # noqa: E402
from fimod.rings import QQ, ZZ  # noqa: E402
from fimod.smith import invariant_factors  # noqa: E402
from tests.test_matrix import signed_graph_rows  # noqa: E402


@pytest.mark.parametrize("seed", range(6))
def test_invariant_factors_against_sympy(seed):
    rng = random.Random(seed)
    for _ in range(5):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)]
        ours = invariant_factors(Matrix.from_rows(ZZ, rows))
        snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        theirs = sorted(abs(int(snf[i, i]))
                        for i in range(min(nr, nc)) if snf[i, i] != 0)
        assert sorted(ours) == theirs, (rows, ours, theirs)


@pytest.mark.parametrize("seed", range(6))
def test_rank_against_sympy(seed):
    rng = random.Random(seed ^ 0xBEEF)
    for _ in range(5):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for _ in range(nc)] for _ in range(nr)]
        ours = Matrix.from_rows(QQ, rows).rank()
        theirs = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                for x in row] for row in rows]).rank()
        assert ours == theirs, rows


def test_contracted_signed_graph_against_sympy():
    """A signed-graph incidence matrix with extra columns: most columns are
    two-term +-1 pairs that merge before elimination, and cycles whose pair
    closes on one root leave 0 or 2."""
    rows = signed_graph_rows(16, 14, 14, 3)   # factors: ten 1s and a 2
    ours = invariant_factors(Matrix.from_rows(ZZ, rows))
    snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    theirs = sorted(abs(int(snf[i, i]))
                    for i in range(min(snf.shape)) if snf[i, i] != 0)
    assert sorted(ours) == theirs
    assert Matrix.from_rows(QQ, rows).rank() == sympy.Matrix(rows).rank()
