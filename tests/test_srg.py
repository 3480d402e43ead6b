import math
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.sparse.csgraph import connected_components

from ascheme import catalog as cat
from ascheme import fusion, srg
from ascheme.catalog import build_cyclotomic, catalog_scheme
from ascheme.core import Scheme, relabel_classes, scheme_from_entries
from ascheme.errors import (
    InconsistentIntersectionNumber,
    InfeasibleParameters,
    NotStronglyRegular,
    SrgCheckFailed,
)
from ascheme.exact import QuadVal
from ascheme.fusion import canonical_partition
from ascheme.srg import (
    _components,
    connectivity_classification,
    srg_eigen,
    srg_params_from_scheme,
)

from conftest import (
    adjacency,
    compile_stripped,
    distinct_eigenvalue_count,
    fresh_catalog,
    srg_identities_hold,
)


def two_blocks_k5():
    e = np.zeros((10, 10), dtype=np.int64)
    for x in range(10):
        for y in range(10):
            if x != y:
                e[x, y] = 1 if x // 5 == y // 5 else 2
    return scheme_from_entries(e)


def test_pentagon_conference():
    p = srg_params_from_scheme(catalog_scheme("cyclo-5-2"), (1,))
    assert (p.n, p.k, p.lam, p.mu) == (5, 2, 0, 1)
    assert (p.m1, p.m2) == (2, 2)
    assert p.conference and p.connected
    assert p.r_exact == QuadVal(Fraction(-1, 2), Fraction(1, 2), 5)
    assert p.s_exact == QuadVal(Fraction(-1, 2), Fraction(-1, 2), 5)
    assert str(p.r_exact) == "-1/2+1/2*sqrt(5)"
    assert abs(p.r - 0.6180339887498949) < 1e-15
    js = p.to_json()
    assert js["lambda"] == 0 and js["mu"] == 1 and js["conference"] is True


def test_petersen_and_complement():
    s = catalog_scheme("petersen")
    p = srg_params_from_scheme(s, (1,))
    assert (p.n, p.k, p.lam, p.mu) == (10, 3, 0, 1)
    assert (p.m1, p.m2) == (5, 4)
    assert p.r_exact == QuadVal.rational(1) and p.s_exact == QuadVal.rational(-2)
    assert not p.conference
    q = srg_params_from_scheme(s, (2,))
    assert (q.n, q.k, q.lam, q.mu) == (10, 6, 3, 4)
    assert (q.m1, q.m2) == (4, 5)
    assert (q.r, q.s) == (1.0, -2.0)


def test_disconnected_blocks():
    s = two_blocks_k5()
    p = srg_params_from_scheme(s, (1,))
    assert (p.n, p.k, p.lam, p.mu) == (10, 4, 3, 0)
    assert (p.m1, p.m2) == (1, 8)
    assert p.r == 4.0 and p.s == -1.0  # r = k marks disconnectedness
    assert not p.connected
    out = connectivity_classification(s, (1,))
    assert out["components"] == 2 and out["component_sizes"] == [5, 5]
    assert out["clique_union_spectrum"] is True
    assert out["consistent"] is True


def test_complete_bipartite():
    s = two_blocks_k5()
    p = srg_params_from_scheme(s, (2,))
    assert (p.n, p.k, p.lam, p.mu) == (10, 5, 0, 5)
    assert (p.m1, p.m2) == (8, 1)
    assert (p.r, p.s) == (0.0, -5.0)
    assert p.connected and not p.conference


def test_perfect_matching_union():
    s = catalog_scheme("direct-qr7-k2")
    p = srg_params_from_scheme(s, (1,))
    assert (p.n, p.k, p.lam, p.mu) == (14, 1, 0, 0)
    assert (p.m1, p.m2) == (6, 7)
    assert not p.connected
    out = connectivity_classification(s, (1,))
    assert out["components"] == 7 and out["component_sizes"] == [2] * 7
    assert out["consistent"] is True


def test_hexagon_is_not_srg():
    s = catalog_scheme("schurian-d6")
    with pytest.raises(NotStronglyRegular) as ei:
        srg_params_from_scheme(s, (2,))
    msg = str(ei.value)
    assert "not strongly regular" in msg and "both in the complement" in msg
    # spectral layer still classifies it consistently
    out = connectivity_classification(s, (2,))
    assert out["components"] == 1 and out["strongly_regular"] is False
    assert out["consistent"] is True


def test_two_triangles():
    s = catalog_scheme("schurian-d6")
    p = srg_params_from_scheme(s, (3,))
    assert (p.n, p.k, p.lam, p.mu) == (6, 2, 1, 0)
    assert (p.m1, p.m2) == (1, 4)
    out = connectivity_classification(s, (3,))
    assert out["components"] == 2 and out["component_sizes"] == [3, 3]
    assert out["disconnected_iff_clique_spectrum"] is True


def test_complete_graph_rejected():
    s = catalog_scheme("cyclo-5-2")
    with pytest.raises(NotStronglyRegular):
        srg_params_from_scheme(s, (1, 2))


def test_union_validation():
    s = catalog_scheme("cyclo-7-2")
    with pytest.raises(ValueError):
        srg_params_from_scheme(s, (1,))  # transpose pair not closed
    with pytest.raises(ValueError):
        srg_params_from_scheme(s, ())
    with pytest.raises(ValueError):
        srg_params_from_scheme(s, (0, 1))


def test_eigen_infeasible_parameters():
    with pytest.raises(InfeasibleParameters):
        srg_eigen(10, 3, 1, 1)  # counting identity fails
    with pytest.raises(InfeasibleParameters):
        srg_eigen(22, 7, 2, 2)  # irrational without conference condition
    with pytest.raises(InfeasibleParameters):
        srg_eigen(10, 3, 3, 1)  # lambda > k - 1
    with pytest.raises(InfeasibleParameters):
        srg_eigen(10, 0, 0, 0)  # k = 0
    with pytest.raises(InfeasibleParameters):
        srg_eigen(10, 3, 0, 4)  # mu > k
    with pytest.raises(InfeasibleParameters):
        srg_eigen(5, 1, 0, 0)  # multiplicities 3/2, 5/2 not integral


def test_eigen_parameters_must_be_integers():
    """A value that int() would truncate is refused, not read as its
    floor; numpy ints and integral floats are integers."""
    with pytest.raises(ValueError, match="not an integer"):
        srg_eigen(10, 3.7, 0, 1)
    with pytest.raises(ValueError, match="not an integer"):
        srg_eigen(10, 3, 0, Fraction(3, 2))
    assert srg_eigen(np.int64(10), 3.0, 0, np.int32(1)) == srg_eigen(10, 3, 0, 1)


def fraction_multiplicities(n, k, lam, mu):
    """The multiplicities of r and s by the Fraction formula, for a square
    discriminant: (n - 1)/2 -+ (2k + (n - 1)(lambda - mu))/(2 sqrt(D))."""
    root = math.isqrt((lam - mu) ** 2 + 4 * (k - mu))
    num = 2 * k - (n - 1) * (mu - lam)
    return Fraction(n - 1, 2) - Fraction(num, 2 * root), Fraction(n - 1, 2) + Fraction(num, 2 * root)


@given(
    st.integers(0, 8), st.integers(-8, -1), st.integers(0, 40), st.integers(0, 60)
)
def test_integral_multiplicities_match_fraction_formula(r, s, mu, c):
    """Parameter sets with integral eigenvalues r > s: lambda = mu + r + s
    and k = mu - rs invert Vieta, and n follows from the counting
    identity (mu = 0 needs s = -1, and then any n > k = r will do).  srg_eigen's divmod multiplicities
    are the Fraction formula's where those are positive integers, and it
    refuses the set with that formula's values otherwise."""
    lam, k = mu + r + s, mu - r * s
    assume(lam >= 0)
    if mu:
        assume(k * (k - lam - 1) % mu == 0)
        n = k + 1 + k * (k - lam - 1) // mu
    else:
        assume(s == -1 and r >= 1)
        n = k + 1 + c
    m1, m2 = fraction_multiplicities(n, k, lam, mu)
    if m1.denominator == 1 and m1 >= 1 and m2 >= 1:
        p = srg_eigen(n, k, lam, mu)
        assert (p.m1, p.m2) == (m1, m2)
        assert (p.r, p.s) == (r, s)
    else:
        with pytest.raises(InfeasibleParameters, match=re.escape(f"multiplicities ({m1}, {m2})")):
            srg_eigen(n, k, lam, mu)


def test_eigen_conference_quadratic():
    p = srg_eigen(13, 6, 2, 3)
    assert p.conference and (p.m1, p.m2) == (6, 6)
    assert p.r_exact == QuadVal(Fraction(-1, 2), Fraction(1, 2), 13)
    assert p.s_exact == QuadVal(Fraction(-1, 2), Fraction(-1, 2), 13)
    assert srg_identities_hold(p)


def test_catalog_srg_sweep(catalog):
    """Every transpose-closed proper union: params (when SRG) must satisfy
    Vieta's identities and the trace in integers, and the connectivity
    flags."""
    unions_seen = 0
    srg_seen = 0
    for eid, s in catalog.items():
        if not s.is_commutative:
            continue
        for size in range(1, s.d):
            for u in combinations(range(1, s.d + 1), size):
                if set(u) != {s.transpose_map[i] for i in u}:
                    continue
                unions_seen += 1
                try:
                    p = srg_params_from_scheme(s, u)
                except NotStronglyRegular:
                    continue
                srg_seen += 1
                assert srg_identities_hold(p), (eid, u)
                assert p.connected == (p.mu > 0)
                assert p.conference == (p.m1 == p.m2)
                if not p.r_exact.is_rational:
                    assert p.conference  # irrational forces equal multiplicities
                assert p.r > p.s
                assert p.k >= p.r and p.k > abs(p.s) - 1
    assert unions_seen == 202
    assert srg_seen == 130


def test_connectivity_classification_consistent_everywhere(catalog):
    for eid, s in catalog.items():
        if not s.is_commutative:
            continue
        for size in range(1, s.d + 1):
            for u in combinations(range(1, s.d + 1), size):
                if set(u) != {s.transpose_map[i] for i in u}:
                    continue
                out = connectivity_classification(s, u)
                assert out["spectral_count_matches"], (eid, u)
                assert out["consistent"], (eid, u)


def test_connected_srg_has_three_eigenvalues(catalog):
    for eid, s in catalog.items():
        if not s.is_commutative:
            continue
        for size in range(1, s.d):
            for u in combinations(range(1, s.d + 1), size):
                if set(u) != {s.transpose_map[i] for i in u}:
                    continue
                try:
                    p = srg_params_from_scheme(s, u)
                except NotStronglyRegular:
                    continue
                expect = 3 if p.connected else (2 if p.lam == p.k - 1 else 3)
                assert distinct_eigenvalue_count(s, u) == expect, (eid, u)


def _closed_unions(s, sizes):
    for size in sizes:
        for u in combinations(range(1, s.d + 1), size):
            if set(u) == {s.transpose_map[i] for i in u}:
                yield u


def test_non_srg_witness_recounts(catalog):
    """A union that is not strongly regular raises with the fusion's
    witness: two arcs of one fused class whose counts, re-counted on the
    n x n adjacency matrices, are the two differing values."""
    checked = 0
    for eid, s in catalog.items():
        for u in _closed_unions(s, range(1, s.d)):
            try:
                srg_params_from_scheme(s, u)
            except NotStronglyRegular as exc:
                w, msg = exc.__cause__.witness, str(exc)
                assert exc.witness is w
            else:
                continue
            checked += 1
            assert isinstance(w, InconsistentIntersectionNumber), (eid, u)
            comp = [i for i in range(1, s.d + 1) if i not in u]
            blocks = canonical_partition([[0], list(u), comp], s.d)
            block_of = {c: b for b, block in enumerate(blocks) for c in block}
            e = s.color.entries
            assert block_of[int(e[w.pair_a])] == block_of[int(e[w.pair_b])] == w.l, (eid, u)
            AB = adjacency(s, blocks[w.i]) @ adjacency(s, blocks[w.j])
            assert (int(AB[w.pair_a]), int(AB[w.pair_b])) == (w.count_a, w.count_b), (eid, u)
            assert w.count_a != w.count_b
            role = lambda b: "union" if tuple(blocks[b]) == u else "complement"
            assert f"both in the {role(w.l)}" in msg
            assert f"(x, z) in the {role(w.i)} and (z, y) in the {role(w.j)}" in msg
    assert checked == 72


def test_weak_components_match_scipy(catalog):
    """The component count and sizes read from the tensor's closed subset
    equal a graph search on every union, closed under transpose or not."""
    extra = {f"cyclo-{q}-{m}": build_cyclotomic(q, m) for q, m in ((101, 2), (241, 6), (256, 5))}
    unions = 0
    for s in list(catalog.values()) + list(extra.values()):
        for size in range(1, s.d + 1):
            for u in combinations(range(1, s.d + 1), size):
                count, size_ = _components(s, u)
                ref_count, labels = connected_components(adjacency(s, u), directed=False)
                assert count == ref_count, u
                assert [size_] * count == sorted(np.bincount(labels).tolist()), u
                unions += 1
    assert unions == 504


def test_srg_reads_only_the_tensor():
    """SRG extraction and connectivity classification never build an n x n
    adjacency matrix: the package has no adjacency builder, and they read
    the coloring only to name the first arc of a class in a witness."""
    assert not hasattr(Scheme, "adjacency")
    for s in fresh_catalog():
        for u in _closed_unions(s, range(1, s.d + 1)):
            try:
                srg_params_from_scheme(s, u)
            except NotStronglyRegular:
                pass
            if s.is_commutative:
                connectivity_classification(s, u)


def test_catalog_srg_check_builds_one_table(battery_body_runs):
    """The whole battery, the srg check and every connectivity
    classification in it included, computes one character table per
    scheme object: the catalog schemes and their symmetrizations."""
    runs, _ = battery_body_runs
    tables = [s for name, s in runs if name == "character_table"]
    assert len({id(s) for s in tables}) == len(tables) == 62


def test_catalog_srg_check_fuses_each_union_once(monkeypatch):
    """The catalog's srg check asks the fusion batch for each proper
    transpose-closed union's {union, complement} fusion once, 202 in all,
    and the batch decides each distinct partition once: a union and its
    complement share one.  srg_params_from_scheme and
    connectivity_classification read the memoized verdicts."""
    asked, decided = [], Counter()
    fuses, fuse = fusion.fuses, fusion.fuse_canonical

    def asking(s, partitions):
        asked.extend((id(s), p) for p in partitions)
        return fuses(s, partitions)

    def deciding(s, stack):
        decided.update((id(s), p) for p in stack)
        return fuse(s, stack)

    schemes = fresh_catalog()
    monkeypatch.setattr(fusion, "fuses", asking)
    monkeypatch.setattr(fusion, "fuse_canonical", deciding)
    for s in schemes:
        if s.is_commutative:
            cat._check_srg(s)
    assert len(asked) == 202
    assert set(decided) == set(asked) and set(decided.values()) == {1}


def test_srg_checks_raise_with_asserts_stripped():
    petersen = catalog_scheme("petersen")
    stripped = compile_stripped(srg)
    stripped.fuse_direct = lambda s, partition: relabel_classes(petersen, (0, 2, 1)).tensor
    with pytest.raises(SrgCheckFailed) as exc:
        stripped.srg_params_from_scheme(petersen, (1,))
    assert (exc.value.union, exc.value.check) == ((1,), "valency")

    stripped = compile_stripped(srg)
    stripped._components = lambda s, union: (2, 5)
    with pytest.raises(SrgCheckFailed) as exc:
        stripped.srg_params_from_scheme(petersen, (1,))
    assert (exc.value.union, exc.value.check) == ((1,), "connectivity")


def test_catalog_srg_check_compares_spectra(monkeypatch):
    """The srg check holds only where the union's spectrum from the
    character table is srg_eigen's: with Petersen's spectrum stubbed in
    for both of its unions, the complement, which srg_eigen gives
    6^1 1^4 (-2)^5, fails with the reason."""
    petersen = [(3 + 0j, 1), (1 + 0j, 5), (-2 + 0j, 4)]
    monkeypatch.setattr(srg, "fill_spectra", lambda s, unions: [petersen] * len(unions))
    applicable, holds, evidence = cat._check_srg(catalog_scheme("petersen"))
    assert (applicable, holds) == (True, False)
    assert evidence == {"union": [2], "reason": "spectrum differs from srg_eigen's"}
