"""Exact eigenvalue arithmetic: rationals and quadratic irrationals.

Character table entries of the schemes treated here are either rational
(hence integers, being algebraic integers) or quadratic, of the form
(u + sqrt(v))/2 with rational u, v.  A QuadVal stores q + r*sqrt(v) with
q, r rational and v a squarefree integer; negative v covers the complex
case.  That form is closed under conjugation, rational scaling, and
addition of values sharing a radicand, which is all the table machinery
needs.  radical_sum, a canonical multi-radicand form of a sum, is the
tests' oracle for spectra.block_sums, whose integer keys are its forms
times 4 and decide every equality at run time.  One evaluator,
radical_sum_to_complex, turns all these forms into complex floats,
and snap_fraction is the one snap of a float to a small-denominator
rational.  squarefree_split finds square factors by plain trial division.
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
    def make(q, r, v):
        """Normalize q + r*sqrt(v) for arbitrary integer v."""
        q, r = Fraction(q), Fraction(r)
        if r == 0 or v == 0:
            return QuadVal(q)
        f, v0 = squarefree_split(v)
        if v0 == 1:
            return QuadVal(q + r * f)
        return QuadVal(q, r * f, v0)

    @staticmethod
    def sqrt_rational(w):
        """sqrt(w) for rational w (possibly negative) as a QuadVal."""
        w = Fraction(w)
        if w == 0:
            return QuadVal(Fraction(0))
        # sqrt(a/b) = sqrt(a*b)/b
        return QuadVal.make(0, Fraction(1, w.denominator), w.numerator * w.denominator)

    @property
    def is_rational(self):
        return self.r == 0

    def conjugate(self):
        """Complex conjugate (identity for real values)."""
        if self.v < 0:
            return QuadVal(self.q, -self.r, self.v)
        return self

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadVal(self.q + other, self.r, self.v)
        if self.r == 0:
            return QuadVal(other.q + self.q, other.r, other.v)
        if other.r == 0:
            return QuadVal(self.q + other.q, self.r, self.v)
        if self.v != other.v:
            raise ValueError("mixed radicands; use radical_sum")
        r = self.r + other.r
        return QuadVal(self.q + other.q) if r == 0 else QuadVal(self.q + other.q, r, self.v)

    def __neg__(self):
        return QuadVal(-self.q, -self.r, self.v)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadVal(self.q - other, self.r, self.v)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = Fraction(other)
            if k == 0:
                return QuadVal(Fraction(0))
            return QuadVal(self.q * k, self.r * k, self.v if self.r else 1)
        if self.r and other.r and self.v != other.v:
            raise ValueError("mixed radicands; use radical_sum")
        v = self.v if self.r else other.v
        q = self.q * other.q + self.r * other.r * v
        r = self.q * other.r + self.r * other.q
        return QuadVal(q) if r == 0 else QuadVal(q, r, v)

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


def radical_sum(values):
    """Canonical form of a sum of QuadVals with mixed radicands.

    Returns a hashable tuple (rational_part, ((v, coeff), ...)) with the
    radicand terms sorted; equal sums always produce equal tuples.
    """
    q = Fraction(0)
    rads = {}
    for val in values:
        q += val.q
        if val.r:
            c = rads.get(val.v, Fraction(0)) + val.r
            if c:
                rads[val.v] = c
            else:
                del rads[val.v]
    return (q, tuple(sorted(rads.items())))


def radical_sum_to_complex(rs, den=1):
    """(q + sum of c * sqrt(v)) / den as a complex float, for
    rs = (q, ((v, c), ...)) as radical_sum gives it, or den times that in
    integers, as spectra.block_sums gives it with den = 4; the one
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
    half_u = QuadVal(Fraction(u, 2) if isinstance(u, int) else u / 2)
    half_root = QuadVal.sqrt_rational(w) * Fraction(1, 2)
    va = half_u + half_root
    vb = half_u - half_root
    pairs = ((va, vb), (vb, va))
    for cand1, cand2 in pairs:
        if abs(cand1.to_complex() - z1) <= tol and abs(cand2.to_complex() - z2) <= tol:
            return cand1, cand2
    return None
