"""GF(p^k) tables and primality against sympy as an independent oracle."""

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem

from ascheme import finitefield
from ascheme.errors import FieldCheckFailed, NotPrime, TooLarge
from ascheme.finitefield import field, isprime

from conftest import compile_stripped, field_mul

# the sympy reference is slow in pure Python, so it checks q <= 257 only
PRIME_POWERS = [
    (p, k)
    for p in sympy.primerange(2, 258)
    for k in range(1, 9)
    if p**k <= 257
]


def _sympy_field(p, k):
    """(modulus, generator, exp, log) built with sympy's GF(p)[x]."""

    def to_poly(e):
        coeffs = []
        for _ in range(k):
            coeffs.append(e % p)
            e //= p
        coeffs = coeffs[::-1]
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
        return [ZZ(c) for c in coeffs]

    def to_int(f):
        e = 0
        for c in f:
            e = e * p + int(c)
        return e

    q = p**k
    # lex-first: the lower coefficients count up in base p, x^(k-1) first
    candidates = (
        [ZZ(1)] + [ZZ(low // p**i % p) for i in reversed(range(k))] for low in range(q)
    )
    modulus = next(f for f in candidates if gf_irreducible_p(f, p, ZZ))

    def mul(a, b):
        return to_int(gf_rem(gf_mul(to_poly(a), to_poly(b), p, ZZ), modulus, p, ZZ))

    def order(e):
        t, cur = 1, e
        while cur != 1:
            cur, t = mul(cur, e), t + 1
        return t

    gen = next(e for e in range(2 if q > 2 else 1, q) if order(e) == q - 1)
    exp = [1]
    for _ in range(q - 2):
        exp.append(mul(exp[-1], gen))
    log = [0] * (q - 1)
    for t, e in enumerate(exp):
        log[e - 1] = t
    return tuple(int(c) for c in modulus), gen, tuple(exp), tuple(log)


@pytest.mark.parametrize("p, k", PRIME_POWERS)
def test_field_matches_sympy_reference(p, k):
    F = field(p, k)
    assert (F.modulus, F.generator, F.exp, F.log) == _sympy_field(p, k)


def test_field_mul_agrees_with_table():
    F = field(2, 8)
    for a in range(1, F.q, 7):
        for b in range(1, F.q, 11):
            assert field_mul(F, a, b) == F.exp[(F.log[a - 1] + F.log[b - 1]) % (F.q - 1)]


def test_isprime_matches_sympy():
    assert [x for x in range(100_000) if isprime(x)] == list(sympy.primerange(0, 100_000))
    near = [2**64 + d for d in range(-100, 100)]
    assert [isprime(x) for x in near] == [sympy.isprime(x) for x in near]
    assert any(isprime(x) for x in near)
    # composite, and a strong pseudoprime to every prime base 2..31
    assert not isprime(3825123056546413051)


def test_field_rejects_non_primes_before_size():
    for p in (0, 1, 6, 1000, 2**64 + 1):
        with pytest.raises(NotPrime):
            field(p)
    with pytest.raises(TooLarge):
        field(4099)
    with pytest.raises(TooLarge):
        field(2, 13)
    with pytest.raises(TooLarge):
        field(2, 10**6)
    assert field(2, 12).q == 4096  # MAX_N stays allowed
    with pytest.raises(TooLarge):
        field(2**61 - 1)
    # the smallest strong pseudoprime to bases 2..37, where they stop being exact
    with pytest.raises(TooLarge):
        field(318665857834031151167461)


@pytest.mark.parametrize(
    "name, fake, check",
    [
        ("_irreducible", lambda f, p: False, "modulus"),
        ("_mul", lambda a, b, p, k, modulus: a, "order"),
        ("_mul", lambda a, b, p, k, modulus: 1, "generator"),
    ],
)
def test_field_checks_raise_with_asserts_stripped(name, fake, check):
    stripped = compile_stripped(finitefield)
    setattr(stripped, name, fake)
    with pytest.raises(FieldCheckFailed) as exc:
        stripped.field(5, 2)
    assert (exc.value.p, exc.value.k, exc.value.check) == (5, 2, check)
