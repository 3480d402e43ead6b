"""Scheme constructions and the bundled catalog's registry.

Builders produce canonically labeled, fully verified schemes:

  * cyclotomic schemes over GF(q) from the index-m subgroup of the
    multiplicative group,
  * Schurian schemes (orbitals of a transitive permutation group given by
    generators),
  * direct and wreath products,
  * complete schemes K_n.

No builder runs the O(n^3) axiom kernel.  Each ends in _transitive_scheme,
where row 0 decides axioms (3) and (4) exactly in O(n^2) work, axiom (4)
by the kernel's own row-0 step, and gives p: a vertex-transitive group
preserves every coloring but the products' (Delsarte 1973 for
translation schemes), and a product of schemes is a scheme
(Brouwer-Cohen-Neumaier 1989).  verify_axioms and its kernel serve
colorings from outside and the catalog's axioms cross-check.

DEFAULT_CATALOG maps ids to zero-argument builders.  FAMILIES names the
battery's families: the catalog, in sorted id order, and two sweeps of
cyclotomic schemes, each an ordered {id: builder} table that family_table
makes on first use, never at import.  catalog_scheme builds one entry of
a family.  The battery that checks the entries is in catalog; this
module imports none of the deciders, so `ascheme build` loads only core,
finitefield and numpy besides it.
"""

from functools import cache, partial
from itertools import combinations
from math import isqrt

import numpy as np

from . import _kernels
from .core import (
    MAX_N,
    IntersectionTensor,
    Scheme,
    canonical_form,
    color_matrix,
    size_guard,
)
from .errors import (
    BadDivisor,
    InconsistentIntersectionNumber,
    NonCommutative,
    NotPrime,
    NotTransitive,
    TransposeNotRelation,
)
from .finitefield import field


def complete_scheme(n):
    """K_n as a one-class scheme; size_guard raises TooLarge before any
    n x n array is built."""
    if n < 2:
        raise ValueError("complete scheme needs n >= 2")
    size_guard(n)
    e = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    return _transitive_scheme(color_matrix(e, 1))


def _prime_power(q):
    """(p, k) with q = p^k, the least factor found below isqrt(q)."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    p = next((f for f in range(2, isqrt(q) + 1) if q % f == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    if q != 1:
        raise NotPrime("field order must be a prime power")
    return p, k


def _transitive_scheme(c):
    """The Scheme of a ColorMatrix c, verified from row 0 in O(n^2) work.

    Every arc has the class pair and the counts of some arc in row 0, on
    either of two grounds.  Some vertex-transitive group G preserves the
    coloring: an element g with g(x) = 0 maps an arc (x, y) to (0, g(y)),
    and (y, x) to (g(y), 0), keeping every count #{w : e[x, w] = i,
    e[w, y] = j}.  Or the coloring is already a scheme, whose arcs all
    have their class's counts.  So row 0 decides the axioms exactly:

      * axiom (3): each class i must meet a single class among the
        reverses e[g, 0] of the arcs (0, g) of class i;
      * axiom (4): _kernels.row_zero_verdict compares the histogram at
        each (0, g) with its class's at the first arc, and gives p.

    Every class occurs, so it has an arc in row 0, and its first arc in
    row-major order lies there.  A violation anywhere has an image in row
    0, so the first one lies there too.  A failure therefore raises
    TransposeNotRelation or InconsistentIntersectionNumber with the
    witness verify_axioms gives.

    The caller vouches for the ground: the translations, for a cyclotomic
    (or any translation) scheme; the generated group, for orbitals; S_n,
    for K_n; the factors' axioms, for a product.
    """
    e, m = c.entries, c.d + 1
    e0 = e[0].astype(np.intp)
    neg = e[:, 0].astype(np.intp)
    firsts = np.argmax(e0 == np.arange(m)[:, None], axis=1)
    t = neg[firsts]
    bad = np.flatnonzero(neg != t[e0])
    if bad.size:
        g = int(bad[0])
        raise TransposeNotRelation(int(e0[g]), 0, g, int(t[e0[g]]), int(neg[g]))
    p, witness = _kernels.row_zero_verdict(e, c.d, np.zeros(m, dtype=np.intp), firsts)
    if witness is not None:
        raise InconsistentIntersectionNumber.from_witness(witness)
    return Scheme(c, IntersectionTensor(p))


def build_cyclotomic(q, m):
    """Cyclotomic scheme on GF(q): classes are cosets of the index-m
    subgroup of the multiplicative group, colored by difference.

    The affine maps x -> cx + b with c in the subgroup act transitively
    with these orbitals, so the axioms always hold; commutativity is
    automatic for translation schemes over an abelian group.  The scheme
    is the translation scheme of the coset classes over (GF(q), +), so
    _transitive_scheme verifies it from row 0.  The difference table is
    an int32 array built one base-p digit at a time, so the build peaks
    near two q x q int64 arrays.  size_guard raises TooLarge for q > MAX_N
    or m > MAX_D before the O(sqrt q) factor search.
    """
    size_guard(q, m)
    p, k = _prime_power(q)
    F = field(p, k)
    if m < 1 or (q - 1) % m != 0:
        raise BadDivisor(f"m = {m} does not divide q - 1 = {q - 1}")
    # diff[x, y] is the code of y - x, built one base-p digit at a time:
    # each step puts a digit below the ones so far
    a = np.arange(p, dtype=np.int32)
    diff = sub = (a[None, :] - a[:, None]) % p
    for _ in range(k - 1):
        diff = ((p * diff)[:, None, :, None] + sub[:, None, :]).reshape(p * len(diff), -1)
    cls = np.zeros(q, dtype=np.int32)
    cls[1:] = 1 + np.array(F.log) % m
    return canonical_form(_transitive_scheme(color_matrix(cls[diff], m)))[0]


def cyclic_shift(n):
    return tuple((i + 1) % n for i in range(n))


def multiplier_perm(n, a):
    if np.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    return tuple(a * i % n for i in range(n))


def _orbitals(n, gens):
    """(color, d): the orbitals of the group generated by gens on n points,
    numbered by their first pair in row-major order.

    Min-label propagation: each pair starts with its row-major index and
    takes the smaller label of its preimage under each generator until
    nothing changes, which leaves every pair with the least index of its
    orbit (a generator's inverse is one of its powers).  A label is always
    the index of a pair in the same orbit and never above the pair's own,
    so each sweep also replaces every label by its pair's label (pointer
    jumping), and labels settle in a few sweeps, not one step per sweep.
    The group is transitive iff the diagonal is one orbital, and the
    orbit of 0 has as many points as the diagonal has pairs labeled 0;
    NotTransitive otherwise.
    """
    idx = np.arange(n * n, dtype=np.int32)
    lab, prev = idx, None
    inverses = [np.argsort(g).astype(np.int32) for g in gens]
    moves = [(h[:, None] * n + h).ravel() for h in inverses]
    while prev is None or (lab != prev).any():
        prev = lab
        for mv in moves:
            lab = np.minimum(lab, lab[mv])
        lab = lab[lab]
    orbit = int(np.count_nonzero(np.diagonal(lab.reshape(n, n)) == 0))
    if orbit != n:
        raise NotTransitive(f"point orbit of 0 has size {orbit} < {n}")
    reps = np.flatnonzero(lab == idx).astype(np.int32)
    return np.searchsorted(reps, lab).reshape(n, n), len(reps) - 1


def build_schurian(n, generators):
    """Orbital scheme of the permutation group generated on n points.

    The orbitals come from _orbitals by min-label propagation in numpy;
    the group preserves them and is transitive, so _transitive_scheme
    verifies them from row 0.  Raises TooLarge (size_guard) for
    n > MAX_N before any n x n array exists, NotTransitive when the point
    action has more than one orbit, and NonCommutative when the orbital
    algebra is not commutative.
    """
    size_guard(n)
    gens = []
    for g in generators:
        g = tuple(int(x) for x in g)
        if sorted(g) != list(range(n)):
            raise ValueError("generator is not a permutation of range(n)")
        gens.append(np.array(g, dtype=np.int32))
    color, d = _orbitals(n, gens)
    s = _transitive_scheme(color_matrix(color, d))
    if not s.is_commutative:
        raise NonCommutative(
            f"orbital algebra on {n} points with {d} classes is not commutative"
        )
    return canonical_form(s)[0]


def build_product(s1, s2, kind):
    """Direct or wreath product on the vertex set X1 x X2.

    direct: class of ((x1,x2),(y1,y2)) is the pair (c1(x1,y1), c2(x2,y2)),
    labeled i1 (d2 + 1) + i2.
    wreath: inner relations of s1 within each fiber of a point of s2,
    relations of s2 between fibers; vertex index is x2 * n1 + x1, so inner
    classes are I (x) A1_i and outer classes are A2_j (x) J, labeled
    d1 + j.  Either product of two schemes is a scheme
    (Brouwer-Cohen-Neumaier 1989), so _transitive_scheme reads p from row
    0; size_guard refuses too many points or classes before any coloring.
    """
    n1, n2, d1, d2 = s1.n, s2.n, s1.d, s2.d
    d = {"direct": (d1 + 1) * (d2 + 1) - 1, "wreath": d1 + d2}.get(kind)
    if d is None:
        raise ValueError(f"unknown product kind {kind!r}")
    size_guard(n1 * n2, d)
    e1, e2 = s1.color.entries, s2.color.entries
    if kind == "direct":
        lab = e1[:, None, :, None] * (d2 + 1) + e2[None, :, None, :]
    else:
        E2 = e2[:, None, :, None]
        lab = np.where(E2 == 0, e1[None, :, None, :], d1 + E2)
    c = color_matrix(lab.reshape(n1 * n2, n1 * n2), d)
    return canonical_form(_transitive_scheme(c))[0]


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
        "petersen": lambda: build_schurian(10, _johnson_5_2_generators()),
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


def _prime_powers(lo, hi):
    """Prime powers q with lo <= q <= hi, ascending."""
    out = []
    for q in range(lo, hi + 1):
        try:
            _prime_power(q)
        except NotPrime:
            continue
        out.append(q)
    return out


def _cyclotomic_table(qm):
    return {f"cyclo-{q}-{m}": partial(build_cyclotomic, q, m) for q, m in qm}


# the battery's families, each an ordered {id: builder} table made on first use:
#   catalog         DEFAULT_CATALOG in sorted id order, the default;
#   cyclotomic      every (q, m) with q a prime power, q <= 257, 2 <= m <= 6
#                   and m dividing q - 1: 174 schemes, in (q, m) order;
#   nonsymmetric-4  (q, 4) for every prime power q = 5 (mod 8) with
#                   257 < q <= MAX_N: 131 skew-symmetric 4-class schemes,
#                   the paper's application, in q order.
FAMILIES = {
    "catalog": cache(lambda: dict(sorted(DEFAULT_CATALOG.items()))),
    "cyclotomic": cache(lambda: _cyclotomic_table(
        (q, m) for q in _prime_powers(2, 257) for m in range(2, 7) if (q - 1) % m == 0
    )),
    "nonsymmetric-4": cache(lambda: _cyclotomic_table(
        (q, 4) for q in _prime_powers(258, MAX_N) if q % 8 == 5
    )),
}


def family_table(name):
    """The ordered {id: builder} table of the family called name."""
    try:
        make = FAMILIES[name]
    except KeyError:
        raise KeyError(f"unknown family {name!r}; choose from {list(FAMILIES)}") from None
    return make()


def catalog_ids():
    return list(DEFAULT_CATALOG)


def catalog_scheme(entry_id, family="catalog"):
    """The scheme of one entry of a family, the bundled catalog by default."""
    table = family_table(family)
    try:
        build = table[entry_id]
    except KeyError:
        raise KeyError(f"unknown {family} id {entry_id!r}") from None
    return build()
