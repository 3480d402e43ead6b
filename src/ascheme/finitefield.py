"""Small finite fields GF(p^k) with deterministic tables.

Elements are encoded as integers 0..q-1 via base-p digits (digit i is the
coefficient of x^i).  The modulus is the lexicographically first monic
irreducible of degree k over GF(p), so the same (p, k) always yields the
same field, the same generator, and hence the same discrete-log table.
A field has at most core.MAX_N elements, the size guard of every scheme.

Polynomial arithmetic over GF(p) is done here on plain coefficient lists
(constant term first); irreducibility is decided by trial division by
every monic polynomial of degree at most k/2, at most 126 candidates
(for 2^12) when q <= MAX_N.  The generator is the first element whose
powers, walked once until they return to 1, reach all q - 1 units; those
powers are the exp table.
"""

from dataclasses import dataclass

from .core import MAX_N
from .errors import FieldCheckFailed, NotPrime, TooLarge

# Miller-Rabin with the twelve prime bases 2..37 is exact below this bound
# (Sorenson and Webster, 2015); far above it, q exceeds MAX_N anyway.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def isprime(p):
    """Deterministic primality for p below _MR_LIMIT."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _digits(e, p, k):
    """Base-p digits of e, constant coefficient first."""
    out = []
    for _ in range(k):
        out.append(e % p)
        e //= p
    return out


def _from_digits(c, p):
    e = 0
    for a in reversed(c):
        e = e * p + a
    return e


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return out


def _poly_rem(f, g, p):
    """Remainder of f modulo the monic g over GF(p), as deg(g) coefficients."""
    f = list(f)
    dg = len(g) - 1
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i]
        if c:
            for j in range(dg + 1):
                f[i - dg + j] = (f[i - dg + j] - c * g[j]) % p
    return (f + [0] * dg)[:dg]


def _irreducible(f, p):
    k = len(f) - 1
    for j in range(1, k // 2 + 1):
        for low in range(p**j):
            if not any(_poly_rem(f, _digits(low, p, j) + [1], p)):
                return False
    return True


def _lex_first_irreducible(p, k):
    """Monic irreducible of degree k, constant coefficient first; the
    lower coefficients count up in base p, x^(k-1) most significant."""
    for low in range(p**k):
        f = _digits(low, p, k) + [1]
        if _irreducible(f, p):
            return f
    raise FieldCheckFailed("no monic irreducible polynomial found", p, k, "modulus")


def _mul(a, b, p, k, modulus):
    """Product of two encoded elements; modulus is constant term first."""
    prod = _poly_mul(_digits(a, p, k), _digits(b, p, k), p)
    return _from_digits(_poly_rem(prod, modulus, p), p)


@dataclass(frozen=True)
class Field:
    """GF(p^k) with exp/log tables for the fixed generator."""

    p: int
    k: int
    q: int
    modulus: tuple  # monic, highest degree first
    generator: int
    exp: tuple  # exp[t] = generator^t, t in 0..q-2
    log: tuple  # log[e] for e in 1..q-1 (index e-1)


def field(p, k=1):
    """Build GF(p^k); deterministic modulus and generator."""
    if p >= _MR_LIMIT:
        raise TooLarge(f"field characteristic {p} exceeds {MAX_N}")
    if not isprime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be positive")
    if k >= MAX_N.bit_length() or p**k > MAX_N:  # as p >= 2, k >= 13 alone exceeds
        raise TooLarge(f"GF({p}^{k}) has more than {MAX_N} elements")
    q = p**k
    low_modulus = _lex_first_irreducible(p, k)
    for gen in range(2 if q > 2 else 1, q):
        exp, cur = [1], gen
        while cur != 1:
            exp.append(cur)
            if len(exp) > q:
                raise FieldCheckFailed(f"element {gen} has no finite order", p, k, "order")
            cur = _mul(cur, gen, p, k, low_modulus)
        if len(exp) == q - 1:
            break
    else:
        raise FieldCheckFailed("multiplicative group has no generator", p, k, "generator")
    log = [0] * (q - 1)
    for t, e in enumerate(exp):
        log[e - 1] = t
    return Field(p, k, q, tuple(reversed(low_modulus)), gen, tuple(exp), tuple(log))
