import hashlib
import importlib.util
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from sympy import isprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from ascheme import _kernels, builders
from ascheme.builders import (
    build_cyclotomic,
    build_product,
    build_schurian,
    catalog_ids,
    catalog_scheme,
    complete_scheme,
    cyclic_shift,
    multiplier_perm,
    _orbitals,
    _transitive_scheme,
)
from ascheme.catalog import (
    CHECKS,
    catalog_exit_code,
    check_failed,
    records_to_jsonl,
    run_catalog,
    _check_axioms,
    _run_checks,
)
from ascheme.core import (
    MAX_D,
    MAX_N,
    IntersectionTensor,
    Scheme,
    canonical_form,
    color_matrix,
    json_default,
    scheme_from_entries,
    verify_axioms,
)
from ascheme.errors import (
    BadDivisor,
    BuilderTensorMismatch,
    InconsistentIntersectionNumber,
    NonCommutative,
    NotPrime,
    NotTransitive,
    TooLarge,
    TransposeNotRelation,
)
from ascheme.finitefield import field, isprime
from ascheme.generator import check_theorem_4class, generates
from ascheme.spectra import character_table

from conftest import (
    MEMOIZED,
    build_petersen,
    corrupted_ladder_961,
    field_add,
    field_mul,
    field_neg,
    field_sub,
    reference_orbitals,
    trivial_scheme,
)


# --- finite fields -----------------------------------------------------------


def test_field_gf16():
    F = field(2, 4)
    assert F.q == 16
    assert F.modulus == (1, 0, 0, 1, 1)  # x^4 + x + 1, lex-first
    assert gf_irreducible_p([ZZ(c) for c in F.modulus], 2, ZZ)
    assert F.generator == 2
    # exp/log are inverse bijections
    assert sorted(F.exp) == list(range(1, 16))
    for e in range(1, 16):
        assert F.exp[F.log[e - 1]] == e
    # generator has full order and the cycle closes
    assert field_mul(F, F.exp[14], F.generator) == 1


def test_field_prime():
    F = field(7)
    assert F.generator == 3 and F.modulus == (1, 0)
    assert F.exp[:4] == (1, 3, 2, 6)
    assert field_add(F, 5, 4) == 2 and field_sub(F, 2, 5) == 4 and field_mul(F, 4, 5) == 6


def test_field_gf9_arithmetic():
    F = field(3, 2)
    assert F.modulus == (1, 0, 1)  # x^2 + 1
    assert field_add(F, 4, 5) == 6  # (x+1) + (x+2) = 2x
    assert field_mul(F, 3, 3) == 2  # x * x = -1
    assert field_neg(F, field_neg(F, 7)) == 7


def test_field_validation():
    with pytest.raises(NotPrime):
        field(6)
    with pytest.raises(ValueError):
        field(5, 0)
    with pytest.raises(TooLarge):
        field(4099)
    assert field(2, 12).q == MAX_N  # boundary stays allowed


# --- builders ----------------------------------------------------------------


def test_trivial_and_complete():
    t = trivial_scheme()
    assert t.n == 1 and t.d == 0
    assert character_table(t).multiplicities == (1,)
    k9 = complete_scheme(9)
    assert k9.valencies == (1, 8)
    with pytest.raises(ValueError):
        complete_scheme(1)


def test_cyclotomic_structure():
    s = build_cyclotomic(13, 3)
    assert s.n == 13 and s.d == 3
    assert s.valencies == (1, 4, 4, 4)
    assert s.class_kind == "symmetric"  # (q-1)/m even
    t = build_cyclotomic(7, 2)
    assert t.class_kind == "skew-symmetric"  # q = 3 mod 4
    u = build_cyclotomic(16, 3)
    assert u.valencies == (1, 5, 5, 5)
    assert u.class_kind == "symmetric"  # characteristic 2


def test_cyclotomic_beyond_prime():
    s = build_cyclotomic(9, 4)
    assert s.n == 9 and s.valencies == (1, 2, 2, 2, 2)
    assert s.class_kind == "symmetric"


def test_cyclotomic_coloring_matches_field_arithmetic():
    """build_cyclotomic's numpy difference table colors (x, y) by the coset
    of y - x that conftest's element-by-element field arithmetic gives,
    once both colorings take the canonical class labels."""
    for q, m in [(13, 4), (9, 4), (16, 5), (25, 3), (27, 2), (49, 4), (64, 3),
                 (81, 5), (121, 8), (125, 4), (32, 31)]:
        F = field(*builders._prime_power(q))
        ref = [[0 if x == y else 1 + F.log[field_sub(F, y, x) - 1] % m for y in range(q)]
               for x in range(q)]
        want = canonical_form(scheme_from_entries(ref))[0].color.entries
        assert np.array_equal(build_cyclotomic(q, m).color.entries, want), (q, m)


def test_cyclotomic_validation():
    with pytest.raises(NotPrime):
        build_cyclotomic(6, 5)
    with pytest.raises(NotPrime):
        build_cyclotomic(12, 11)
    with pytest.raises(BadDivisor):
        build_cyclotomic(7, 4)
    with pytest.raises(BadDivisor):
        build_cyclotomic(7, 0)
    with pytest.raises(TooLarge):
        build_cyclotomic(4099, 2)


def test_cyclotomic_size_guard_precedes_the_factor_search(monkeypatch):
    """q = 9999991 is prime; the O(q) search for its smallest factor took
    about 1 s, and a q near 10^9 minutes, before the field refused it."""

    def no_search(q):
        raise AssertionError(f"factored q = {q} before the size guard")

    monkeypatch.setattr(builders, "_prime_power", no_search)
    with pytest.raises(TooLarge, match=f"n = 9999991 exceeds the supported maximum {MAX_N}"):
        build_cyclotomic(9999991, 2)


def test_complete_scheme_size_guard_precedes_the_arrays():
    """K_n for n = MAX_N + 1 is refused before its n x n arrays exist
    (three of 134 MB each were built before)."""
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match=f"n = {MAX_N + 1} exceeds"):
            complete_scheme(MAX_N + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_schurian_z4_is_thin():
    s = build_schurian(4, [cyclic_shift(4)])
    assert s.n == 4 and s.d == 3
    assert s.valencies == (1, 1, 1, 1)
    assert len(s.transpose_pairs) == 1


def test_schurian_matches_independent_construction():
    # the catalog's orbital builds of J(5,2) under S5 equal the Petersen
    # scheme colored by 2-subset intersections and verified by the kernel
    oracle = build_petersen()
    for eid in ("petersen", "schurian-s5-pairs"):
        s = catalog_scheme(eid)
        assert s.color.entries.tobytes() == oracle.color.entries.tobytes()
        assert s.tensor.p.tobytes() == oracle.tensor.p.tobytes()


def test_schurian_validation():
    with pytest.raises(NotTransitive):
        build_schurian(4, [(1, 0, 2, 3)])
    with pytest.raises(ValueError):
        build_schurian(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        multiplier_perm(8, 2)
    # refused before any n x n array exists, as complete_scheme is
    gens = [cyclic_shift(MAX_N + 1)]
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match=f"n = {MAX_N + 1} exceeds"):
            build_schurian(MAX_N + 1, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_schurian_noncommutative_rejected():
    # regular action of S3: left translations, orbitals indexed by x^-1 y
    elems = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]

    def mul(a, b):
        ra, fa = a
        rb, fb = b
        return ((ra + (rb if fa == 0 else -rb)) % 3, (fa + fb) % 2)

    gens = []
    for g in [(1, 0), (0, 1)]:
        gens.append(tuple(elems.index(mul(g, x)) for x in elems))
    with pytest.raises(NonCommutative):
        build_schurian(6, gens)


def test_product_direct_shapes():
    s = catalog_scheme("direct-k2-k2")
    assert s.n == 4 and s.d == 3 and s.valencies == (1, 1, 1, 1)
    t = catalog_scheme("direct-qr7-k2")
    assert t.n == 14 and t.d == 5
    assert sorted(t.valencies) == [1, 1, 3, 3, 3, 3]


def test_product_wreath_matches_direct_construction():
    e = np.zeros((10, 10), dtype=np.int64)
    for x in range(10):
        for y in range(10):
            if x != y:
                e[x, y] = 1 if x // 5 == y // 5 else 2
    blocks = scheme_from_entries(e)
    w = catalog_scheme("wreath-k5-k2")
    assert (w.color.entries == blocks.color.entries).all()


def test_product_validation():
    with pytest.raises(TooLarge):
        build_product(complete_scheme(65), complete_scheme(64), "direct")
    with pytest.raises(ValueError):
        build_product(complete_scheme(2), complete_scheme(2), "tensor")


def test_builders_refuse_too_many_classes_before_the_coloring():
    """More than MAX_D classes are refused before any n x n array exists:
    cyclotomic (4093, 4092), the direct square of cyclotomic (64, 9)
    (99 classes) and the wreath square of cyclotomic (64, 21) (42 classes),
    each on at most MAX_N points.  The first two peaked at 134 MB before."""
    f9, f21 = build_cyclotomic(64, 9), build_cyclotomic(64, 21)
    cases = [
        (lambda: build_cyclotomic(4093, 4092), 4092),
        (lambda: build_product(f9, f9, "direct"), 99),
        (lambda: build_product(f21, f21, "wreath"), 42),
    ]
    for build, d in cases:
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=f"d = {d} exceeds"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (d, peak)


# --- builders hand over their tensor ----------------------------------------


def _kernel_tensor(s):
    return verify_axioms(s.color).tensor.p


def _thin_s3():
    """The thin scheme of S3, color of (x, y) the index of x^-1 y:
    non-commutative, with three symmetric classes and one transpose pair."""
    s3 = list(permutations(range(3)))
    inv = [tuple(np.argsort(g)) for g in s3]
    return scheme_from_entries(
        [[s3.index(tuple(inv[x][i] for i in s3[y])) for y in range(6)] for x in range(6)]
    )


def _no_kernel_calls(monkeypatch):
    """Make _kernels.tensor_and_verify record its calls and fail them."""
    calls = []

    def refuse(*args):
        calls.append(args)
        raise RuntimeError("the axiom kernel ran inside a builder")

    monkeypatch.setattr(_kernels, "tensor_and_verify", refuse)
    return calls


# Z_n with the multipliers by a: orbital schemes of Z_n x| <a>
ORBITAL_CASES = [(12, 5), (13, 3), (60, 7)]


def _z_orbital_generators(n, a):
    return [cyclic_shift(n), multiplier_perm(n, a)]


def test_builders_tensors_equal_the_kernels(monkeypatch):
    """No builder calls the axiom kernel, and every build carries the
    tensor that the kernel finds on its coloring: each catalog entry built
    anew (cyclotomic, Schurian, Petersen, complete and product schemes),
    the benchmark ladder's five builds, K_n at four n and three orbital
    schemes of Z_n x| <a>."""
    calls = _no_kernel_calls(monkeypatch)
    built = {eid: catalog_scheme(eid) for eid in catalog_ids()}
    ladder = [build_cyclotomic(q, m) for q, m in [(101, 2), (241, 6), (256, 5), (257, 2)]]
    ladder.append(build_product(built["cyclo-31-2"], built["cyclo-31-2"], "direct"))
    for n in (2, 3, 7, 50):
        built[f"K{n}"] = complete_scheme(n)
    for n, a in ORBITAL_CASES:
        built[f"orbital-{n}-{a}"] = build_schurian(n, _z_orbital_generators(n, a))
    monkeypatch.undo()
    assert calls == []
    assert [(s.n, s.d) for s in ladder] == [(101, 2), (241, 6), (256, 5), (257, 2), (961, 8)]
    assert (built["K50"].n, built["orbital-60-7"].n) == (50, 60)
    built.update(enumerate(ladder))
    for key, s in built.items():
        assert np.array_equal(s.tensor.p, _kernel_tensor(s)), key


def test_product_tensors_equal_the_kernels(monkeypatch):
    """Direct and wreath products, in both orders, of every pair of small
    schemes (the non-commutative thin S3 among them): the row-0
    tensor equals the kernel's, and no product calls the kernel.  A direct
    product past MAX_D classes is refused as before."""
    factors = {
        "k2": complete_scheme(2),
        "k5": complete_scheme(5),
        "qr3": build_cyclotomic(3, 2),
        "paley5": build_cyclotomic(5, 2),
        "qr7": build_cyclotomic(7, 2),
        "cyclo-13-4": build_cyclotomic(13, 4),
        "cyclo-16-5": build_cyclotomic(16, 5),
        "thin-s3": _thin_s3(),
    }
    assert not factors["thin-s3"].is_commutative
    calls = _no_kernel_calls(monkeypatch)
    built, refused = {}, []
    for (a, s1), (b, s2) in product(factors.items(), repeat=2):
        assert s1.n * s2.n <= 400
        built[a, b, "wreath"] = build_product(s1, s2, "wreath")
        if (s1.d + 1) * (s2.d + 1) - 1 > MAX_D:
            with pytest.raises(TooLarge):
                build_product(s1, s2, "direct")
            refused.append((a, b))
        else:
            built[a, b, "direct"] = build_product(s1, s2, "direct")
    monkeypatch.undo()
    assert calls == []
    assert len(built) == 64 + 64 - len(refused) and len(refused) == 4
    for key, s in built.items():
        assert np.array_equal(s.tensor.p, _kernel_tensor(s)), key
    assert not built["thin-s3", "k2", "direct"].is_commutative


def test_builders_and_rejected_rows_share_one_row_zero_verdict(monkeypatch):
    """_kernels.row_zero_verdict decides row 0 for everyone: each
    cyclotomic, Schurian, complete, direct and wreath build calls it once,
    and so does verify_axioms on the ladder's corrupted n = 961 coloring,
    whose rows differ; verify_axioms on a valid coloring never calls it."""
    qr7, k3 = build_cyclotomic(7, 2), complete_scheme(3)
    builds = {
        "cyclotomic": lambda: build_cyclotomic(13, 4),
        "schurian": lambda: build_schurian(9, [cyclic_shift(9), multiplier_perm(9, 4)]),
        "complete": lambda: complete_scheme(5),
        "direct": lambda: build_product(qr7, k3, "direct"),
        "wreath": lambda: build_product(qr7, k3, "wreath"),
    }
    corrupted = color_matrix(*corrupted_ladder_961())
    valid = build_product(build_cyclotomic(31, 2), build_cyclotomic(31, 2), "direct")
    calls, real = [], _kernels.row_zero_verdict

    def spy(e, *args):
        calls.append(e.shape[0])
        return real(e, *args)

    monkeypatch.setattr(_kernels, "row_zero_verdict", spy)
    for kind, build in builds.items():
        s = build()
        assert calls == [s.n], kind
        calls.clear()
    with pytest.raises(InconsistentIntersectionNumber):
        verify_axioms(corrupted)
    assert calls == [961]
    verify_axioms(valid.color)
    assert calls == [961]


def test_builder_tensor_mismatch_is_a_typed_error():
    """The catalog's axioms check compares the builder's tensor with the
    kernel's and names the first differing cell."""
    s = build_cyclotomic(13, 4)
    assert _check_axioms(s)[:2] == (True, True)
    p = s.tensor.p.copy()
    p[2, 3, 1] += 1
    p[4, 4, 2] += 1
    bad = Scheme(s.color, IntersectionTensor(p))
    with pytest.raises(BuilderTensorMismatch) as info:
        _check_axioms(bad)
    exc = info.value
    assert (exc.i, exc.j, exc.l) == (2, 3, 1)
    assert (exc.built, exc.kernel) == (s.tensor.p[2, 3, 1] + 1, s.tensor.p[2, 3, 1])
    rec = _run_checks(bad, ["axioms"])[0]
    assert rec["error"].startswith("BuilderTensorMismatch: built p[2,3]^1")


def test_recolored_arc_pair_is_refused_before_generation(catalog):
    """generates proves its witnesses on the tensor alone, so a coloring
    that disagrees with its tensor must be refused before it runs.  Moving
    one arc pair (0, y), (y, 0) of each catalog scheme from class 1 to
    class 2 (and its transpose) makes verify_axioms raise
    InconsistentIntersectionNumber, and so does the catalog's axioms check
    when the corrupted coloring carries the builder's tensor."""
    for eid, s in catalog.items():
        e = s.color.entries.copy()
        y = int(np.flatnonzero(e[0] == 1)[0])
        e[0, y], e[y, 0] = 2, s.transpose_map[2]
        color = color_matrix(e, s.d)
        with pytest.raises(InconsistentIntersectionNumber):
            verify_axioms(color)
        rec = _run_checks(Scheme(color, s.tensor), ["axioms"])[0]
        assert rec["error"].startswith("InconsistentIntersectionNumber"), eid


# --- the row-0 verifier and the orbitals ------------------------------------


def _z(n):
    """The difference table of Z_n: diff[x, y] = y - x mod n."""
    return (np.arange(n)[None, :] - np.arange(n)[:, None]) % n


def _recount(e, i, j, pair):
    x, y = pair
    return int(np.count_nonzero((e[x, :] == i) & (e[:, y] == j)))


def test_translation_scheme_rejects_a_non_coset_coloring():
    """A transpose-consistent class vector over Z_13 that is no union of
    cosets: both deciders raise the same InconsistentIntersectionNumber,
    whose counts re-count on the 13 x 13 coloring."""
    cls = np.array([0, 1, 1, 2, 1, 2, 2, 2, 2, 1, 2, 1, 1])
    assert (cls == cls[-np.arange(13) % 13]).all()
    diff = _z(13)
    e = cls[diff]
    with pytest.raises(InconsistentIntersectionNumber) as info:
        _transitive_scheme(color_matrix(cls[diff], 2))
    with pytest.raises(InconsistentIntersectionNumber) as ref:
        scheme_from_entries(e, 2)
    exc = info.value
    assert vars(exc) == vars(ref.value)
    assert e[exc.pair_a] == exc.l == e[exc.pair_b]
    assert exc.count_a != exc.count_b
    assert _recount(e, exc.i, exc.j, exc.pair_a) == exc.count_a
    assert _recount(e, exc.i, exc.j, exc.pair_b) == exc.count_b


def test_translation_scheme_rejects_a_transpose_that_is_no_class():
    """c(-g) is no function of c(g): class 1 holds 1 and 2, whose negatives
    12 and 11 have classes 2 and 1."""
    cls = np.array([0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2])
    diff = _z(13)
    with pytest.raises(TransposeNotRelation) as info:
        _transitive_scheme(color_matrix(cls[diff], 2))
    with pytest.raises(TransposeNotRelation) as ref:
        scheme_from_entries(cls[diff], 2)
    assert vars(info.value) == vars(ref.value)
    assert (info.value.x, info.value.y) == (0, 2)


def test_translation_scheme_decides_as_verify_axioms():
    """Random class vectors over Z_n and (Z_2)^k, half of them closed
    under negation: the helper accepts exactly what verify_axioms accepts,
    with the same tensor, and rejects with the same witness."""
    rng = np.random.default_rng(14)
    tables = [(n, _z(n)) for n in (5, 7, 8, 9, 12, 13, 16)]
    tables += [(2 ** k, np.arange(2 ** k)[:, None] ^ np.arange(2 ** k)) for k in (3, 4)]
    outcomes = Counter()
    for n, diff in tables:
        neg = diff[:, 0]
        for trial in range(24):
            d = int(rng.integers(1, 4))
            cls = np.concatenate([[0], rng.integers(1, d + 1, n - 1)])
            if trial % 2:
                cls = np.minimum(cls, cls[neg])
            if set(cls[1:]) != set(range(1, d + 1)):
                continue
            try:
                want = scheme_from_entries(cls[diff], d)
            except (TransposeNotRelation, InconsistentIntersectionNumber) as ref:
                with pytest.raises(type(ref)) as got:
                    _transitive_scheme(color_matrix(cls[diff], d))
                assert vars(got.value) == vars(ref), (n, cls)
                outcomes[type(ref).__name__] += 1
                continue
            s = _transitive_scheme(color_matrix(cls[diff], d))
            assert np.array_equal(s.color.entries, want.color.entries)
            assert np.array_equal(s.tensor.p, want.tensor.p), (n, cls)
            outcomes["scheme"] += 1
    assert set(outcomes) == {"scheme", "TransposeNotRelation", "InconsistentIntersectionNumber"}
    assert min(outcomes.values()) >= 10, outcomes


def _random_generator_sets():
    """Seeded generator sets on n <= 24 points, conjugated by a random
    relabeling of the points.  A quarter of them generate the left-regular
    action of the dihedral group of order n, n even (point r + (n/2) f),
    whose orbital scheme is not commutative for n >= 6.  Each other set
    has one to three of: a random permutation, a rotation, a multiplier,
    a transposition, and the rotation with a multiplier (Z_n x| <a>);
    about half of them generate an intransitive group."""
    rng = np.random.default_rng(23)
    cases = []
    for case in range(100):
        n = int(rng.integers(2, 25))
        gens = []
        if case % 4 == 3:
            m = 3 + n % 10
            n = 2 * m
            r, f = np.arange(n) % m, np.arange(n) // m
            gens = [(r + 1) % m + m * f, -r % m + m * (1 - f)]
            kinds = []
        else:
            kinds = rng.integers(0, 5, int(rng.integers(1, 4)))
        units = [a for a in range(1, n) if np.gcd(a, n) == 1]
        for kind in kinds:
            if kind == 0:
                gens.append(rng.permutation(n))
            elif kind == 1:
                gens.append((np.arange(n) + int(rng.integers(1, n))) % n)
            elif kind == 2:
                g = np.arange(n)
                a, b = rng.choice(n, 2, replace=False)
                g[[a, b]] = g[[b, a]]
                gens.append(g)
            else:
                gens.append(np.array(multiplier_perm(n, int(rng.choice(units)))))
                if kind == 4:
                    gens.append(np.array(cyclic_shift(n)))
        relabel = rng.permutation(n)
        inv = np.argsort(relabel)
        cases.append((n, [tuple(int(x) for x in relabel[g[inv]]) for g in gens]))
    return cases + [(n, _z_orbital_generators(n, a)) for n, a in ORBITAL_CASES]


def test_orbitals_equal_the_search_oracle():
    """_orbitals gives the pure-Python search's coloring and d on every
    transitive generator set, and its NotTransitive message on every
    other."""
    outcomes = Counter()
    for n, gens in _random_generator_sets():
        arrays = [np.array(g) for g in gens]
        try:
            want, d = reference_orbitals(n, gens)
        except NotTransitive as ref:
            with pytest.raises(NotTransitive) as got:
                _orbitals(n, arrays)
            assert str(got.value) == str(ref), (n, gens)
            outcomes["intransitive"] += 1
            continue
        color, got_d = _orbitals(n, arrays)
        assert got_d == d and np.array_equal(color, want), (n, gens)
        outcomes[min(d, 3)] += 1
    assert set(outcomes) == {"intransitive", 1, 2, 3}, outcomes
    assert min(outcomes.values()) >= 3, outcomes


def test_row0_verifier_decides_orbitals_as_verify_axioms():
    """On every transitive orbital coloring of the generator sets above,
    commutative or not, the row-0 verifier returns the tensor that
    verify_axioms finds."""
    kinds = Counter()
    for n, gens in _random_generator_sets():
        try:
            color, d = reference_orbitals(n, gens)
        except NotTransitive:
            continue
        c = color_matrix(color, d)
        s = _transitive_scheme(c)
        assert np.array_equal(s.tensor.p, verify_axioms(c).tensor.p), (n, gens)
        kinds[s.is_commutative] += 1
    assert min(kinds[True], kinds[False]) >= 5, kinds


# --- the paper's application: nonsymmetric cyclotomic (q, 4) ------------------


def test_nonsymmetric_cyclotomic_4_class_sweep():
    """Every cyclotomic (q, 4) with q <= 257 a prime power, q = 5 (mod 8),
    is nonsymmetric: 15 schemes, 11 of them beyond the catalog.  Each
    passes the whole battery, and T1.4 applies and holds."""
    ids = set(catalog_ids())
    qs, extra = [], 0
    for q in range(5, 258, 8):
        try:
            s = build_cyclotomic(q, 4)
        except NotPrime:
            continue
        qs.append(q)
        extra += f"cyclo-{q}-4" not in ids
        assert s.class_kind == "skew-symmetric", q
        recs = {r["check"]: r for r in _run_checks(s, CHECKS)}
        bad = [(name, r["error"]) for name, r in recs.items() if check_failed(r)]
        assert bad == [], q
        assert recs["T1.4"]["applicable"] and recs["T1.4"]["holds"], q
    assert len(qs) == 15 and extra == 11
    assert 125 in qs


def _battery_holds(s):
    """The whole battery on s finds no failed check, T1.4 applies and
    holds, and T4.1 does too when s is skew-symmetric."""
    recs = {r["check"]: r for r in _run_checks(s, CHECKS)}
    assert [(name, r["error"]) for name, r in recs.items() if check_failed(r)] == []
    assert recs["T1.4"]["applicable"] and recs["T1.4"]["holds"]
    if s.class_kind == "skew-symmetric":
        assert recs["T4.1"]["applicable"] and recs["T4.1"]["holds"]


def _orbit_schemes_4_class(lo, hi):
    """(n, a) for every nonsymmetric 4-class orbit scheme of Z_n x| <a>,
    lo <= n < hi: the subgroup <a> of the units mod n, -1 not in it, has
    4 orbits on the nonzero residues; a is the least generator of <a>."""
    out = []
    for n in range(lo, hi):
        seen = set()
        for a in range(2, n):
            if np.gcd(a, n) != 1:
                continue
            H = frozenset(pow(a, t, n) for t in range(n))
            if H in seen:
                continue
            seen.add(H)
            orbits = {min(h * x % n for h in H) for x in range(1, n)}
            if n - 1 not in H and len(orbits) == 4:
                out.append((n, a))
    return out


def test_nonsymmetric_4_class_schemes_beyond_the_old_caps():
    """The paper's application above the caps the builders had (q <= 257
    for fields, n <= 60 for orbitals): every nonsymmetric cyclotomic
    (q, 4) with q prime, q = 5 (mod 8) and 257 < q < 600, and every
    nonsymmetric 4-class orbit scheme of Z_n x| <a> with 60 < n < 120,
    five of them on a composite n that no field gives.  Each passes the
    whole battery; T1.4 holds on all, T4.1 on the skew ones."""
    qs = [q for q in range(261, 600, 8) if isprime(q)]
    assert len(qs) == 13
    for q in qs:
        s = build_cyclotomic(q, 4)
        assert s.class_kind == "skew-symmetric", q
        _battery_holds(s)
    orbit = _orbit_schemes_4_class(61, 120)
    assert [n for n, _ in orbit] == [61, 87, 95, 101, 109, 111, 115, 119]
    for n, a in orbit:
        s = build_schurian(n, [cyclic_shift(n), multiplier_perm(n, a)])
        assert (s.n, s.d) == (n, 4) and s.class_kind != "symmetric", (n, a)
        _battery_holds(s)


@pytest.mark.parametrize("q", [2197, 3125])
def test_nonsymmetric_cyclotomic_4_class_on_prime_powers_near_max_n(q):
    """(13^3, 4) and (5^5, 4) build at a peak of at most 3 n^2 int64 cells,
    and T1.4 holds on them."""
    tracemalloc.start()
    try:
        s = build_cyclotomic(q, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * q * q * 8, peak / (8 * q * q)
    assert s.class_kind == "skew-symmetric"
    v = check_theorem_4class(s)
    assert v.applicable and v.holds


SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "cyclotomic_sweep.py"


def test_cyclotomic_sweep_digest():
    """The full battery over all 174 cyclotomic (q, m), q <= 257 and
    2 <= m <= 6, gives the pinned JSONL digest with no failed check."""
    spec = importlib.util.spec_from_file_location("cyclotomic_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.sweep() == (
        174, 0, "8620498067990f8fd6422399ea25fdaa75a9ce4ea6fabe78d0d00f2107bd664a"
    )


def test_catalog_all_entries_build(catalog):
    assert len(catalog) == 45
    for eid, s in catalog.items():
        assert s.is_commutative, eid
        assert s.n <= 41 and 2 <= s.d <= 5, eid


# --- batch runner ------------------------------------------------------------


def test_run_catalog_subset():
    recs = run_catalog(["schurian-z4", "cyclo-5-2"], checks=["axioms", "spectra"])
    assert [r["id"] for r in recs] == ["cyclo-5-2"] * 2 + ["schurian-z4"] * 2
    assert [r["check"] for r in recs] == ["axioms", "spectra"] * 2
    for r in recs:
        assert r["error"] is None
        assert r["applicable"] is True and r["holds"] is True
    assert catalog_exit_code(recs) == 0


def test_run_catalog_check_order_follows_master_list():
    recs = run_catalog(["cyclo-5-2"], checks=["srg", "axioms"])
    assert [r["check"] for r in recs] == ["axioms", "srg"]
    assert list(CHECKS) == [
        "axioms",
        "spectra",
        "fusion",
        "amorphic",
        "generators",
        "srg",
        "T1.2",
        "T1.3",
        "T1.4",
        "T3.1",
        "T4.1",
    ]


def test_run_catalog_worker_counts_agree():
    ids = ["cyclo-5-2", "cyclo-7-2", "schurian-z4", "direct-k3-k3"]
    one = records_to_jsonl(run_catalog(ids, workers=1))
    two = records_to_jsonl(run_catalog(ids, workers=2))
    three = records_to_jsonl(run_catalog(ids, workers=3))
    assert one == two == three
    # one record per (entry, check), every line valid json
    lines = one.strip().split("\n")
    assert len(lines) == len(ids) * len(CHECKS)
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"id", "check", "applicable", "holds", "evidence", "error"}


def test_run_catalog_caps_the_pool_at_the_entry_count(monkeypatch):
    """A pool gets at most one worker per entry, and a run left with one
    worker runs in process.  The pool constructor is replaced by one that
    records its size and runs the jobs in this process, so nothing forks."""
    import multiprocessing

    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return list(map(fn, jobs))

    class Context:
        Pool = RecordingPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: Context)
    ids = ["cyclo-5-2", "cyclo-7-2", "petersen"]
    one = run_catalog(ids, checks=["axioms"])
    assert run_catalog(ids, checks=["axioms"], workers=5000) == one
    assert run_catalog(ids, checks=["axioms"], workers=2) == one
    assert run_catalog(ids[:1], checks=["axioms"], workers=5000) == one[:1]
    assert sizes == [3, 2]


def test_run_catalog_runs_a_repeated_id_once():
    one = run_catalog(["cyclo-7-2"])
    assert run_catalog(["cyclo-7-2", "cyclo-7-2"]) == one
    assert run_catalog(["cyclo-7-2", "cyclo-7-2"], workers=2) == one
    assert len(one) == len(CHECKS)


def test_run_catalog_build_failure_is_captured():
    recs = run_catalog(["no-such-entry"])
    assert len(recs) == len(CHECKS)
    for r in recs:
        assert r["error"].startswith("build failed: KeyError")
    assert catalog_exit_code(recs) == 1


def test_exit_code_logic():
    ok = {"error": None, "applicable": True, "holds": True}
    inapplicable = {"error": None, "applicable": False, "holds": None}
    failed = {"error": None, "applicable": True, "holds": False}
    errored = {"error": "boom", "applicable": None, "holds": None}
    assert catalog_exit_code([ok, inapplicable]) == 0
    assert catalog_exit_code([ok, failed]) == 1
    assert catalog_exit_code([ok, errored]) == 1


def test_json_default():
    assert json_default(Fraction(-7, 2)) == "-7/2"
    assert json_default(np.int64(3)) == 3
    assert json_default(np.float64(0.5)) == 0.5
    assert json_default(np.bool_(True)) is True
    with pytest.raises(TypeError):
        json_default(object())


def test_full_catalog_passes_everywhere():
    """The acceptance-level sweep: every check on every entry is either
    inapplicable or holds, with no errors."""
    recs = run_catalog(workers=2)
    assert len(recs) == 45 * len(CHECKS)
    bad = [
        (r["id"], r["check"], r["error"])
        for r in recs
        if r["error"] is not None or (r["applicable"] and r["holds"] is False)
    ]
    assert bad == []
    assert catalog_exit_code(recs) == 0


# --- the memo: each derived object once per scheme ----------------------------


@pytest.mark.parametrize("eid", ["cyclo-13-4", "cyclo-7-2", "petersen", "schurian-z8-m3"])
def test_check_records_do_not_depend_on_check_order(eid):
    """Checks share the memoized tables, symmetrizations and reports of a
    scheme; whichever check asks first, each record is the same."""
    want = _run_checks(catalog_scheme(eid), CHECKS)
    rng = random.Random(eid)
    for _ in range(4):
        order = rng.sample(CHECKS, len(CHECKS))
        got = {rec["check"]: rec for rec in _run_checks(catalog_scheme(eid), order)}
        assert [got[name] for name in CHECKS] == want, order


def test_memoized_bodies_run_once_per_distinct_input(battery_body_runs):
    """One run_catalog(workers=1) runs each memoized body once per distinct
    (scheme, arguments): 62 tables, 21 symmetrizations, 422 generation
    reports and 202 SRG parameter sets.  fuse_direct runs 303 times: once
    for each of the 226 (scheme, partition) pairs that fuse and once for
    each of the 77 that do not, whose refusal is kept in the memo too.
    The generation reports are made in batches, and the 422 made are the
    422 kept in the schemes' memos, so none is made twice."""
    runs, records = battery_body_runs
    assert Counter(name for name, _ in runs if name in MEMOIZED) == {
        "character_table": 62,
        "symmetrize": 21,
        "generates": 422,
        "srg_params_from_scheme": 202,
        "fuse_direct": 303,
    }
    schemes = {id(s): s for name, s in runs if name == "generates"}
    kept = sum(f is generates.__wrapped__ for s in schemes.values() for f, _ in s._memo)
    assert kept == 422
    assert catalog_exit_code(records) == 0


CATALOG_DIGEST = "8b29e25fce0d61046dfcc031742a85639609d84e5a744c4ee0be0b15af332686"


def test_catalog_report_digest(battery_body_runs):
    """The full battery over the catalog gives the pinned JSONL digest with
    one worker and with two.  Like test_cyclotomic_sweep_digest, it holds
    for one numpy/LAPACK build: the report carries LAPACK floats, such as
    spectra's max_row_sum_residual and T4.1's entries and radicands, whose
    last bits another build may round differently."""
    _, records = battery_body_runs
    for recs in (records, run_catalog(workers=2)):
        assert hashlib.sha256(records_to_jsonl(recs).encode()).hexdigest() == CATALOG_DIGEST


def test_generates_solves_once_per_generating_union(battery_body_runs):
    """A generation batch finds all d + 1 witnesses of a generating union
    with one solve_exact call: 195 calls in one run_catalog(workers=1),
    one per generating report in each scheme's memo, and none for the
    others."""
    runs, _ = battery_body_runs
    solves = Counter(id(s) for name, s in runs if name == "solve_exact")
    schemes = {id(s): s for name, s in runs if name == "generates"}
    generating = Counter(
        sid
        for sid, s in schemes.items()
        for (f, _), v in s._memo.items()
        if f is generates.__wrapped__ and v.generates
    )
    assert solves == generating
    assert sum(solves.values()) == 195
