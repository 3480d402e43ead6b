"""Exact eigenvalues: rationals and quadratic irrationals.

Character table entries of the schemes treated here are either rational
(hence integers, being algebraic integers) or quadratic, of the form
(u + sqrt(w))/2 with rational u, w.  A QuadVal is a value, not a number
type: it stores q + r*sqrt(v) with q, r rational and v a squarefree
integer (negative v covers the complex case), and QuadVal.make is the one
constructor that brings q + r*sqrt(w) to that form.  The form is unique,
so equal values have equal fields.  QuadVal has no arithmetic: exact sums
and products are decided in integers, on spectra.block_sums' keys and in
srg.srg_eigen.  One evaluator, radical_sum_to_complex, turns these forms
into complex floats, and snap_fraction is the one snap of a float to a
small-denominator rational.  squarefree_split finds square factors by
plain trial division.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

def squarefree_split(m):
    """m = f^2 * v with v squarefree; returns (f, v).  m may be negative.

    Trial division by p = 2, 3, 4, ... while p^2 <= m: each p leaves m
    prime to p, so a composite p finds no factor left to divide.
    """
    if m == 0:
        return 0, 0
    sign = -1 if m < 0 else 1
    m = abs(m)
    f, v, p = 1, 1, 2
    while p * p <= m:
        while m % (p * p) == 0:
            f *= p
            m //= p * p
        if m % p == 0:
            v *= p
            m //= p
        p += 1
    return f, sign * v * m


@dataclass(frozen=True)
class QuadVal:
    """q + r*sqrt(v), with v squarefree (possibly negative) and v=1 iff r=0."""

    q: Fraction
    r: Fraction = Fraction(0)
    v: int = 1

    @staticmethod
    def rational(x):
        return QuadVal(Fraction(x))

    @staticmethod
    def make(q, r, w):
        """q + r*sqrt(w) for rational q, r and w (w may be negative) in
        the one form with a squarefree radicand, and v = 1 iff r = 0:
        sqrt(a/b) = sqrt(a*b)/b, and square factors leave the radicand."""
        q, r, w = Fraction(q), Fraction(r), Fraction(w)
        if r == 0 or w == 0:
            return QuadVal(q)
        f, v = squarefree_split(w.numerator * w.denominator)
        r = r * f / w.denominator
        return QuadVal(q + r) if v == 1 else QuadVal(q, r, v)

    @property
    def is_rational(self):
        return self.r == 0

    def conjugate(self):
        """Complex conjugate (identity for real values)."""
        if self.v < 0:
            return QuadVal(self.q, -self.r, self.v)
        return self

    def to_complex(self):
        return radical_sum_to_complex((self.q, ((self.v, self.r),) if self.r else ()))

    def __str__(self):
        if self.r == 0:
            return str(self.q)
        rad = f"sqrt({self.v})"
        rpart = rad if self.r == 1 else (f"-{rad}" if self.r == -1 else f"{self.r}*{rad}")
        if self.q == 0:
            return rpart
        sign = "+" if self.r > 0 else ""
        return f"{self.q}{sign}{rpart}"


def radical_sum_to_complex(rs, den=1):
    """(q + sum of c * sqrt(v)) / den as a complex float, for
    rs = (q, ((v, c), ...)) with rational q and c, or den times that in
    integers, as spectra.key_form gives it with den = 4; the one
    evaluator of radicals here.  float(c) / den is float(c / den) for every
    integer c below 2^53 and power-of-two den, so both forms of one sum
    evaluate to the same floats."""
    q, rads = rs
    re, im = float(q) / den, 0.0
    for v, c in rads:
        if v > 0:
            re += float(c) / den * math.sqrt(v)
        else:
            im += float(c) / den * math.sqrt(-v)
    return complex(re, im)


# ---------------------------------------------------------------------------
# snapping floats to exact values


def snap_fraction(x, tol, max_den=2):
    """Nearest rational with denominator <= max_den, or None outside tol."""
    best = None
    for den in range(1, max_den + 1):
        num = round(x * den)
        err = abs(x - num / den)
        if err <= tol and (best is None or err < best[0]):
            best = (err, num, den)
    return None if best is None else Fraction(best[1], best[2])


def snap_rational_value(z, tol):
    """Snap a complex float to a rational QuadVal, or None."""
    if abs(z.imag) > tol:
        return None
    q = snap_fraction(z.real, tol)
    return None if q is None else QuadVal(q)


def snap_quadratic_pair(z1, z2, tol):
    """Snap two floats forming a conjugate pair to ((u±sqrt(w))/2, ...).

    The pair may be a complex-conjugate pair or a real Galois pair.  u and w
    are snapped to denominator <= 2; returns (val1, val2) matching the input
    order, or None when the pair is not quadratic within tol.
    """
    s = z1 + z2
    if abs(s.imag) > 2 * tol:
        return None
    u = snap_fraction(s.real, 2 * tol)
    if u is None:
        return None
    dsq = (z1 - z2) ** 2
    if abs(dsq.imag) > 4 * tol * max(1.0, abs(dsq)):
        return None
    w = snap_fraction(dsq.real, 4 * tol * max(1.0, abs(dsq.real)))
    if w is None or w == 0:
        return None
    va = QuadVal.make(u / 2, Fraction(1, 2), w)
    vb = QuadVal.make(u / 2, Fraction(-1, 2), w)
    pairs = ((va, vb), (vb, va))
    for cand1, cand2 in pairs:
        if abs(cand1.to_complex() - z1) <= tol and abs(cand2.to_complex() - z2) <= tol:
            return cand1, cand2
    return None
