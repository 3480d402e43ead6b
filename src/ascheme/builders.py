"""Scheme constructions and the bundled catalog's registry.

Builders produce canonically labeled, fully verified schemes:

  * cyclotomic schemes over GF(q) from the index-m subgroup of the
    multiplicative group,
  * Schurian schemes (orbitals of a transitive permutation group given by
    generators),
  * direct and wreath products,
  * small named constructions (complete, Petersen).

Cyclotomic schemes and products hand over their intersection tensor; they
never run the O(n^3) axiom kernel.  A cyclotomic scheme is a translation
scheme, whose counts are the same along every translate of an arc, so
row 0 decides axioms (3) and (4) exactly in O(n^2) work and gives p
(Delsarte 1973).  A product's tensor is a closed form in its factors'
verified tensors (Brouwer-Cohen-Neumaier 1989).  The other builders go
through verify_axioms.

DEFAULT_CATALOG maps ids to zero-argument builders; catalog_scheme builds
one entry.  The battery that checks the entries is in catalog; this
module imports none of the deciders, so `ascheme build` loads only core,
finitefield and numpy besides it.
"""

from itertools import combinations

import numpy as np

from .core import (
    MAX_N,
    IntersectionTensor,
    Scheme,
    canonical_form,
    color_matrix,
    scheme_from_entries,
)
from .errors import (
    BadDivisor,
    InconsistentIntersectionNumber,
    NonCommutative,
    NotPrime,
    NotTransitive,
    TooLarge,
    TransposeNotRelation,
)
from .finitefield import MAX_Q, field

MAX_SCHURIAN_N = 60


def complete_scheme(n):
    """K_n as a one-class scheme; TooLarge for n > MAX_N is raised before
    any n x n array is built."""
    if n < 2:
        raise ValueError("complete scheme needs n >= 2")
    if n > MAX_N:
        raise TooLarge(f"n = {n} exceeds the supported maximum {MAX_N}")
    e = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    return scheme_from_entries(e, d=1)


def _prime_power(q):
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    p = min(f for f in range(2, q + 1) if q % f == 0)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    if q != 1:
        raise NotPrime("field order must be a prime power")
    return p, k


def _translation_scheme(cls, diff, d):
    """The translation scheme on a group of order n whose arc (x, y) has
    class cls[y - x]: diff[x, y] is the index of y - x, with index 0 the
    identity, and cls is a vector of classes 0..d with cls[0] = 0 alone.

    e[x, y] = c(y - x) holds by construction, so translating by -x carries
    every arc (x, y) to (0, y - x) together with its counts, and row 0
    decides the axioms exactly in O(n^2) work:

      * axiom (3): the class of -g is e[g, 0], so each class i must meet
        a single class among the e[g, 0] with e[0, g] = i;
      * axiom (4): H[g, i, j] = #{w : e[0, w] = i, e[w, g] = j}, one
        bincount, must equal H at the first arc of the class of (0, g).

    Then p[i, j, l] = H[first arc of l, i, j].  A failure raises
    TransposeNotRelation or InconsistentIntersectionNumber, with the
    witness verify_axioms gives: the first violation in row-major order
    lies in row 0, as does the first arc of every class.
    """
    c = color_matrix(cls[diff], d)
    e = c.entries
    n, m = c.n, d + 1
    e0 = e[0].astype(np.intp)
    neg = e[:, 0].astype(np.intp)
    firsts = np.argmax(e0 == np.arange(m)[:, None], axis=1)
    t = neg[firsts]
    bad = np.flatnonzero(neg != t[e0])
    if bad.size:
        g = int(bad[0])
        raise TransposeNotRelation(int(e0[g]), 0, g, int(t[e0[g]]), int(neg[g]))
    keys = (e0 * m)[:, None] + e
    keys += np.arange(n) * (m * m)
    H = np.bincount(keys.ravel(), minlength=n * m * m).reshape(n, m, m)
    diffs = (H != H[firsts[e0]]).reshape(n, m * m)
    bad = np.flatnonzero(diffs.any(axis=1))
    if bad.size:
        g = int(bad[0])
        i, j = divmod(int(np.argmax(diffs[g])), m)
        l = int(e0[g])
        f = int(firsts[l])
        raise InconsistentIntersectionNumber(
            i, j, l, (0, f), int(H[f, i, j]), (0, g), int(H[g, i, j])
        )
    return Scheme(c, IntersectionTensor(np.ascontiguousarray(H[firsts].transpose(1, 2, 0))))


def build_cyclotomic(q, m):
    """Cyclotomic scheme on GF(q): classes are cosets of the index-m
    subgroup of the multiplicative group, colored by difference.

    The affine maps x -> cx + b with c in the subgroup act transitively
    with these orbitals, so the axioms always hold; commutativity is
    automatic for translation schemes over an abelian group.  The scheme
    is the translation scheme of the coset classes over (GF(q), +), so
    _translation_scheme verifies it and gives p from row 0, with no call
    of the axiom kernel.  TooLarge for q > MAX_Q is raised before the
    O(q) factor search.
    """
    if q > MAX_Q:
        raise TooLarge(f"field size {q} exceeds {MAX_Q}")
    p, k = _prime_power(q)
    F = field(p, k)
    if m < 1 or (q - 1) % m != 0:
        raise BadDivisor(f"m = {m} does not divide q - 1 = {q - 1}")
    D = F.digit_matrix()
    pw = p ** np.arange(F.k, dtype=np.int64)
    diff = ((D[None, :, :] - D[:, None, :]) % p * pw).sum(axis=2)
    cls = np.zeros(F.q, dtype=np.int64)
    for e in range(1, F.q):
        cls[e] = 1 + F.log[e - 1] % m
    return canonical_form(_translation_scheme(cls, diff, m))[0]


def cyclic_shift(n):
    return tuple((i + 1) % n for i in range(n))


def multiplier_perm(n, a):
    if np.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    return tuple(a * i % n for i in range(n))


def build_schurian(n, generators):
    """Orbital scheme of the permutation group generated on n points.

    Raises NotTransitive when the point action has more than one orbit,
    NonCommutative when the orbital algebra is not commutative, and
    TooLarge beyond 60 points.
    """
    if n > MAX_SCHURIAN_N:
        raise TooLarge(f"degree {n} exceeds the limit {MAX_SCHURIAN_N}")
    gens = []
    for g in generators:
        g = tuple(int(x) for x in g)
        if sorted(g) != list(range(n)):
            raise ValueError("generator is not a permutation of range(n)")
        gens.append(g)
    orbit = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for g in gens:
            if g[x] not in orbit:
                orbit.add(g[x])
                stack.append(g[x])
    if len(orbit) != n:
        raise NotTransitive(f"point orbit of 0 has size {len(orbit)} < {n}")
    color = np.full((n, n), -1, dtype=np.int64)
    nxt = 0
    for sx in range(n):
        for sy in range(n):
            if color[sx, sy] >= 0:
                continue
            color[sx, sy] = nxt
            stack = [(sx, sy)]
            while stack:
                x, y = stack.pop()
                for g in gens:
                    if color[g[x], g[y]] < 0:
                        color[g[x], g[y]] = nxt
                        stack.append((g[x], g[y]))
            nxt += 1
    s = scheme_from_entries(color, d=nxt - 1)
    if not s.is_commutative:
        raise NonCommutative(
            f"orbital algebra on {n} points with {nxt - 1} classes is not commutative"
        )
    return canonical_form(s)[0]


def build_product(s1, s2, kind):
    """Direct or wreath product on the vertex set X1 x X2.

    direct: class of ((x1,x2),(y1,y2)) is the pair (c1(x1,y1), c2(x2,y2)),
    labeled i1 (d2 + 1) + i2; p is the Kronecker product of the factors'
    tensors.
    wreath: inner relations of s1 within each fiber of a point of s2,
    relations of s2 between fibers (blown up by J); vertex index is
    x2 * n1 + x1, so inner classes are I (x) A1_i and outer classes are
    A2_j (x) J, labeled o_j = d1 + j.  With n1 = |X1| and k1 the
    valencies of s1, p restricted to inner classes is p1, p[i, o_j, o_j] =
    p[o_j, i, o_j] = k1[i] for inner i, p[o_a, o_b, o_c] = n1 p2[a, b, c]
    and p[o_a, o_b, l] = n1 p2[a, b, 0] for inner l; all else is 0.

    Both tensors follow from the factors' verified ones
    (Brouwer-Cohen-Neumaier 1989), so no axiom kernel runs.
    """
    n1, n2 = s1.n, s2.n
    if n1 * n2 > MAX_N:
        raise TooLarge(f"product order {n1 * n2} exceeds {MAX_N}")
    e1 = s1.color.entries.astype(np.int64)
    e2 = s2.color.entries.astype(np.int64)
    d1, d2 = s1.d, s2.d
    p1, p2 = s1.tensor.p, s2.tensor.p
    if kind == "direct":
        lab = e1[:, None, :, None] * (d2 + 1) + e2[None, :, None, :]
        m = (d1 + 1) * (d2 + 1)
        c = color_matrix(lab.reshape(n1 * n2, n1 * n2), d=m - 1)
        p = np.einsum("ijl,abc->iajblc", p1, p2).reshape(m, m, m)
    elif kind == "wreath":
        E2 = e2[:, None, :, None]
        E1 = e1[None, :, None, :]
        lab = np.where(E2 == 0, E1, d1 + E2)
        entries = np.broadcast_to(lab, (n2, n1, n2, n1)).reshape(n1 * n2, n1 * n2)
        c = color_matrix(entries, d=d1 + d2)
        m1, m = d1 + 1, d1 + d2 + 1
        k1 = np.asarray(s1.valencies, dtype=np.int64)
        o = np.arange(m1, m)
        p = np.zeros((m, m, m), dtype=np.int64)
        p[:m1, :m1, :m1] = p1
        p[:m1, o, o] = k1[:, None]
        p[o, :m1, o] = k1[None, :]
        p[m1:, m1:, m1:] = n1 * p2[1:, 1:, 1:]
        p[m1:, m1:, :m1] = n1 * p2[1:, 1:, :1]
    else:
        raise ValueError(f"unknown product kind {kind!r}")
    return canonical_form(Scheme(c, IntersectionTensor(p)))[0]


def build_petersen():
    """Petersen graph as a 2-class scheme on the 2-subsets of a 5-set."""
    V = list(combinations(range(5), 2))
    n = len(V)
    e = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            e[a, b] = 1 if not set(V[a]) & set(V[b]) else 2
    return canonical_form(scheme_from_entries(e, d=2))[0]


def _johnson_5_2_generators():
    V = list(combinations(range(5), 2))
    idx = {v: i for i, v in enumerate(V)}
    gens = []
    for g in [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]:
        gens.append(tuple(idx[tuple(sorted((g[a], g[b])))] for a, b in V))
    return gens


def _hexagon_reflection():
    return tuple((6 - i) % 6 for i in range(6))


def _qr3():
    return build_cyclotomic(3, 2)


def _paley5():
    return build_cyclotomic(5, 2)


def _qr7():
    return build_cyclotomic(7, 2)


_CYCLOTOMIC_QM = [
    (5, 2), (5, 4),
    (7, 2), (7, 3),
    (11, 2),
    (13, 2), (13, 3), (13, 4),
    (17, 2), (17, 4),
    (19, 2), (19, 3),
    (23, 2),
    (29, 2), (29, 4),
    (31, 2), (31, 3),
    (37, 2), (37, 3), (37, 4),
    (41, 2), (41, 4),
    (9, 4), (16, 3), (16, 5), (25, 3),
]

DEFAULT_CATALOG = {}
for _q, _m in _CYCLOTOMIC_QM:
    DEFAULT_CATALOG[f"cyclo-{_q}-{_m}"] = (
        lambda q=_q, m=_m: build_cyclotomic(q, m)
    )
DEFAULT_CATALOG.update(
    {
        "schurian-z4": lambda: build_schurian(4, [cyclic_shift(4)]),
        "schurian-z8-m3": lambda: build_schurian(
            8, [cyclic_shift(8), multiplier_perm(8, 3)]
        ),
        "schurian-z9-m4": lambda: build_schurian(
            9, [cyclic_shift(9), multiplier_perm(9, 4)]
        ),
        "schurian-frob21": lambda: build_schurian(
            7, [cyclic_shift(7), multiplier_perm(7, 2)]
        ),
        "schurian-d6": lambda: build_schurian(
            6, [cyclic_shift(6), _hexagon_reflection()]
        ),
        "schurian-s5-pairs": lambda: build_schurian(10, _johnson_5_2_generators()),
        "petersen": build_petersen,
        "direct-k2-k2": lambda: build_product(
            complete_scheme(2), complete_scheme(2), "direct"
        ),
        "direct-k3-k3": lambda: build_product(
            complete_scheme(3), complete_scheme(3), "direct"
        ),
        "direct-qr7-k2": lambda: build_product(_qr7(), complete_scheme(2), "direct"),
        "wreath-k5-k2": lambda: build_product(
            complete_scheme(5), complete_scheme(2), "wreath"
        ),
        "wreath-qr3-k2": lambda: build_product(_qr3(), complete_scheme(2), "wreath"),
        "wreath-k2-qr3": lambda: build_product(complete_scheme(2), _qr3(), "wreath"),
        "wreath-qr7-k2": lambda: build_product(_qr7(), complete_scheme(2), "wreath"),
        "wreath-qr7-k3": lambda: build_product(_qr7(), complete_scheme(3), "wreath"),
        "wreath-qr3-qr3": lambda: build_product(_qr3(), _qr3(), "wreath"),
        "wreath-qr3-paley5": lambda: build_product(_qr3(), _paley5(), "wreath"),
        "wreath-paley5-qr3": lambda: build_product(_paley5(), _qr3(), "wreath"),
        "wreath-qr7-paley5": lambda: build_product(_qr7(), _paley5(), "wreath"),
    }
)


def catalog_ids():
    return list(DEFAULT_CATALOG)


def catalog_scheme(entry_id):
    try:
        build = DEFAULT_CATALOG[entry_id]
    except KeyError:
        raise KeyError(f"unknown catalog id {entry_id!r}") from None
    return build()
