import math
from fractions import Fraction

from hypothesis import given, strategies as st

from ascheme.exact import (
    QuadVal,
    radical_sum_to_complex,
    snap_fraction,
    snap_quadratic_pair,
    snap_rational_value,
    squarefree_split,
)

from conftest import radical_sum


def test_squarefree_split():
    assert squarefree_split(360) == (6, 10)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(-7) == (1, -7)
    assert squarefree_split(-12) == (2, -3)


def test_make_normalizes_radicand():
    assert QuadVal.make(0, 1, 8) == QuadVal(Fraction(0), Fraction(2), 2)
    assert QuadVal.make(1, 1, 9) == QuadVal(Fraction(4))
    assert QuadVal.make(0, 2, -4) == QuadVal(Fraction(0), Fraction(4), -1)
    assert QuadVal.make(3, 0, 17) == QuadVal(Fraction(3))
    # rational radicands: sqrt(a/b) = sqrt(a*b)/b
    assert QuadVal.make(0, 1, Fraction(-7)) == QuadVal(Fraction(0), Fraction(1), -7)
    assert QuadVal.make(0, 1, Fraction(9, 4)) == QuadVal(Fraction(3, 2))
    assert QuadVal.make(0, 1, Fraction(1, 2)) == QuadVal(Fraction(0), Fraction(1, 2), 2)
    assert QuadVal.make(1, 1, 0) == QuadVal(Fraction(1))


def test_conjugation():
    z = QuadVal(Fraction(-1, 2), Fraction(1, 2), -7)
    assert z.conjugate() == QuadVal(Fraction(-1, 2), Fraction(-1, 2), -7)
    r = QuadVal(Fraction(1), Fraction(1), 5)
    assert r.conjugate() == r


def test_to_complex():
    z = QuadVal(Fraction(-1, 2), Fraction(1, 2), -7)
    w = z.to_complex()
    assert abs(w.real + 0.5) < 1e-15
    assert abs(w.imag - math.sqrt(7) / 2) < 1e-15


def test_radical_sum_canonical():
    vals = [QuadVal.make(0, 1, 2), QuadVal.make(0, 1, 8)]
    assert radical_sum(vals) == (Fraction(0), ((2, Fraction(3)),))
    # cancellation to exact zero
    vals = [QuadVal(Fraction(1), Fraction(1), 5), QuadVal(Fraction(-1), Fraction(-1), 5)]
    assert radical_sum(vals) == (Fraction(0), ())
    z = radical_sum_to_complex((Fraction(1), ((-7, Fraction(1, 2)),)))
    assert abs(z - complex(1, math.sqrt(7) / 2)) < 1e-15


def test_snap_fraction():
    assert snap_fraction(0.5, 1e-9) == Fraction(1, 2)
    assert snap_fraction(-3.0000000001, 1e-8) == Fraction(-3)
    assert snap_fraction(0.333, 1e-9) is None  # needs denominator 3
    assert snap_fraction(0.25, 1e-9, max_den=4) == Fraction(1, 4)


def test_snap_rational_value():
    assert snap_rational_value(complex(2.0, 1e-12), 1e-9) == QuadVal(Fraction(2))
    assert snap_rational_value(complex(2.0, 1e-3), 1e-9) is None


def test_snap_quadratic_pair_golden():
    phi = (1 + math.sqrt(5)) / 2
    psi = (1 - math.sqrt(5)) / 2
    got = snap_quadratic_pair(complex(phi), complex(psi), 1e-9)
    assert got is not None
    v1, v2 = got
    assert v1 == QuadVal(Fraction(1, 2), Fraction(1, 2), 5)
    assert v2 == QuadVal(Fraction(1, 2), Fraction(-1, 2), 5)


def test_snap_quadratic_pair_complex():
    z = complex(-0.5, math.sqrt(7) / 2)
    got = snap_quadratic_pair(z, z.conjugate(), 1e-9)
    assert got is not None
    assert got[0] == QuadVal(Fraction(-1, 2), Fraction(1, 2), -7)


def test_snap_quadratic_pair_rejects_cubic():
    # 2cos(2pi/7) and a Galois partner: minimal polynomial is cubic
    a = 2 * math.cos(2 * math.pi / 7)
    b = 2 * math.cos(4 * math.pi / 7)
    assert snap_quadratic_pair(complex(a), complex(b), 1e-9) is None


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)
radicands = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)


@given(small_fractions, small_fractions, radicands)
def test_make_matches_float(q, r, w):
    z = QuadVal.make(q, r, w).to_complex()
    if w >= 0:
        ref = complex(float(q) + float(r) * math.sqrt(w), 0.0)
    else:
        ref = complex(float(q), float(r) * math.sqrt(-w))
    assert abs(z - ref) < 1e-12


@given(
    small_fractions,
    small_fractions,
    radicands,
    st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6),
)
def test_make_is_canonical(q, r, w, s):
    """q + r*sqrt(w s^2) and q + (r s)*sqrt(w) are one value, so make
    writes them alike: equal values have equal fields."""
    assert QuadVal.make(q, r, w * s * s) == QuadVal.make(q, r * s, w)
