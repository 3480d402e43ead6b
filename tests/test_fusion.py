import gc
import sys
import weakref
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascheme import _kernels, core, fusion
from ascheme.catalog import _check_srg, build_cyclotomic, catalog_scheme
from ascheme.core import (
    merge_classes,
    scheme_from_entries,
    symmetrize,
    verify_axioms,
)
from ascheme.errors import (
    AxiomViolation,
    InconsistentIntersectionNumber,
    NormalFormUnreachable,
    NotAScheme,
    SymmetrizationCheckFailed,
    ToleranceAmbiguity,
    TransposeNotRelation,
)
from ascheme.fusion import (
    amorphic_normal_form,
    bannai_muzychuk_check,
    canonical_partition,
    cross_check_fusions,
    enumerate_admissible_partitions,
    fuse_direct,
    idempotent_matching,
    is_amorphic,
)
from ascheme.spectra import EigenTable, character_table
from ascheme.srg import srg_params_from_scheme

from conftest import compile_stripped, fused_scheme, reference_normal_form_perms


def brute_partitions(items):
    """All set partitions, by recursion on the first element."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in brute_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def test_enumeration_matches_brute_filter():
    for eid in ("cyclo-5-2", "cyclo-7-2", "cyclo-13-4", "cyclo-16-5"):
        s = catalog_scheme(eid)
        tmap = s.transpose_map
        expect = set()
        for part in brute_partitions(range(1, s.d + 1)):
            blocks = {frozenset(b) for b in part}
            if all(frozenset(tmap[i] for i in b) in blocks for b in blocks):
                expect.add(canonical_partition([[0]] + part, s.d))
        got = enumerate_admissible_partitions(s)
        assert len(got) == len(set(got))
        assert set(got) == expect, eid


def test_enumeration_counts():
    for eid, count in [
        ("cyclo-5-2", 2),
        ("cyclo-7-2", 2),
        ("schurian-z4", 3),
        ("direct-k3-k3", 5),
        ("cyclo-13-4", 7),
        ("cyclo-9-4", 15),
        ("cyclo-16-5", 52),
    ]:
        s = catalog_scheme(eid)
        assert len(enumerate_admissible_partitions(s)) == count, eid


def test_canonical_partition_normalizes():
    assert canonical_partition([[2, 1], [3], [0]], 3) == ((0,), (1, 2), (3,))
    assert canonical_partition([[3], [1, 2]], 3) == ((0,), (1, 2), (3,))


@pytest.mark.parametrize(
    "blocks",
    [
        [[0, 1], [2, 3, 4]],  # 0 shares a block
        [[0], [1, 2], [2, 3, 4]],  # overlapping blocks
        [[1, 2], [3]],  # class 4 missing
        [[0], [1, 2], [3, 4, 5]],  # class 5 out of range
    ],
)
def test_canonical_partition_rejects_non_partitions(blocks):
    s = catalog_scheme("cyclo-13-4")
    with pytest.raises(ValueError, match="partition 0..4"):
        canonical_partition(blocks, 4)
    with pytest.raises(ValueError):
        fuse_direct(s, blocks)
    with pytest.raises(ValueError):
        bannai_muzychuk_check(character_table(s), blocks)


def test_partition_classes_must_be_integers():
    """A class that int() would truncate is refused, not read as its
    floor; numpy ints and integral floats are integers."""
    s = catalog_scheme("cyclo-13-4")
    for blocks in ([[1.5, 2], [3, 4]], [[1, 2], [3, np.float64(3.9)]]):
        with pytest.raises(ValueError, match="not an integer"):
            canonical_partition(blocks, 4)
        with pytest.raises(ValueError, match="not an integer"):
            fuse_direct(s, blocks)
    blocks = [[np.int64(2), 1.0], [3], [np.int32(4)]]
    assert canonical_partition(blocks, 4) == ((0,), (1, 2), (3,), (4,))


def test_fuse_direct_total_fusion_is_complete():
    s = catalog_scheme("cyclo-5-2")
    k5 = fused_scheme(s, [[0], [1, 2]])
    assert k5.d == 1 and k5.valencies == (1, 4)
    assert fuse_direct(s, [[0], [1, 2]]).p.shape == (2, 2, 2)


def test_fuse_direct_rook_graph():
    s = catalog_scheme("direct-k3-k3")
    assert s.valencies == (1, 2, 2, 4)
    rook = fuse_direct(s, [[0], [1, 2], [3]])
    assert fused_scheme(s, [[0], [1, 2], [3]]).valencies == (1, 4, 4)
    assert rook.p[1, 1, 1] == 1  # lambda of SRG(9, 4, 1, 2)
    assert rook.p[1, 1, 2] == 2  # mu


def test_fuse_direct_is_memoized_and_read_only():
    """One tensor per (scheme, partition), whatever the partition's
    spelling; a failing partition stores one verdict, from which each call
    raises a fresh NotAScheme with the same message and witness."""
    s = catalog_scheme("cyclo-13-4")
    fused = fuse_direct(s, [[3, 4], [1, 2]])
    assert fuse_direct(s, ((0,), (1, 2), (3, 4))) is fused
    assert not fused.p.flags.writeable
    with pytest.raises(ValueError):
        fused.p[0, 0, 0] = 2
    memo = len(s._memo)
    raised = []
    for part in ([[1], [2, 3, 4]], ((0,), (1,), (2, 3, 4))):
        with pytest.raises(NotAScheme) as exc:
            fuse_direct(s, part)
        raised.append(exc.value)
    assert len(s._memo) == memo + 1
    first, again = raised
    assert first is not again and first.witness is not again.witness
    assert str(first) == str(again)
    assert type(first.witness) is type(again.witness)
    assert vars(first.witness) == vars(again.witness)
    assert str(first.witness) == str(again.witness)
    assert again.__cause__ is again.witness


def test_failing_fusion_verdict_holds_no_reference_to_the_scheme():
    """The stored refusal keeps no traceback: with the cycle collector off,
    the scheme is freed as soon as the last name for it goes."""
    s = catalog_scheme("cyclo-13-4")
    with pytest.raises(NotAScheme):
        fuse_direct(s, [[1], [2, 3, 4]])
    ref = weakref.ref(s)
    gc.disable()
    try:
        del s
        assert ref() is None
    finally:
        gc.enable()


def test_each_failing_partition_is_decided_once(monkeypatch):
    """is_amorphic, cross_check_fusions and the catalog's srg check on fresh
    schemes decide each (scheme, partition) once, failing partitions
    included, whether one at a time or in a stack of fuse_canonical."""
    runs = Counter()
    failed = set()
    fuse = fusion.fuse_canonical

    def counted(s, stack):
        verdicts = fuse(s, stack)
        for blocks, fused in zip(stack, verdicts, strict=True):
            runs[id(s), blocks] += 1
            if isinstance(fused, AxiomViolation):
                failed.add((id(s), blocks))
        return verdicts

    monkeypatch.setattr(fusion, "fuse_canonical", counted)
    schemes = [catalog_scheme(eid) for eid in ("cyclo-13-4", "cyclo-17-4", "direct-k3-k3")]
    for s in schemes:
        for _ in range(2):
            is_amorphic(s)
            list(cross_check_fusions(s, enumerate_admissible_partitions(s)))
            _check_srg(s)
    assert len(failed) >= 10
    assert set(runs.values()) == {1}


def test_fuse_direct_not_a_scheme_witness():
    s = catalog_scheme("cyclo-17-4")
    with pytest.raises(NotAScheme) as ei:
        fuse_direct(s, ((0,), (1,), (2,), (3, 4)))
    assert ei.value.witness is not None


def test_symmetrize_agrees_with_pair_fusion():
    s = catalog_scheme("cyclo-13-4")
    sym, corr = symmetrize(s)
    blocks = ((0,), (1, 2), (3, 4))
    fused = fuse_direct(s, blocks)
    # inv[new class] = block of the pair fusion
    inv = np.argsort([corr[b[0]] for b in blocks])
    assert (sym.tensor.p == fused.p[np.ix_(inv, inv, inv)]).all()


def test_spectral_criterion_agrees_with_direct(catalog, tables):
    """Bannai-Muzychuk verdicts must match exact fusion on every admissible
    partition of every scheme with at most five classes."""
    checked = 0
    for eid, s in catalog.items():
        if s.d > 5 or not s.is_commutative:
            continue
        e = tables[eid]
        for part in enumerate_admissible_partitions(s):
            verdict = bannai_muzychuk_check(e, part)
            try:
                fused = fuse_direct(s, part)
                direct = True
            except NotAScheme:
                fused = None
                direct = False
            assert verdict.is_scheme == direct, (eid, part)
            checked += 1
            if not direct:
                assert verdict.witness is not None
                continue
            assert verdict.dual_partition[0] == (0,)
            assert len(verdict.dual_partition) == len(part)
            assert sorted(j for g in verdict.dual_partition for j in g) == list(
                range(s.d + 1)
            )
            # fused table rows are the fused scheme's character table rows
            fe = character_table(fused_scheme(s, part))
            got = sorted(
                tuple(np.round(row, 8)) for row in np.real_if_close(verdict.fused_table)
            )
            want = sorted(tuple(np.round(row, 8)) for row in np.real_if_close(fe.P))
            assert got == want, (eid, part)
    assert checked == 274


def test_dual_multiplicities_sum():
    s = catalog_scheme("cyclo-13-4")
    e = character_table(s)
    v = bannai_muzychuk_check(e, ((0,), (1, 2), (3, 4)))
    assert v.is_scheme
    fe = character_table(fused_scheme(s, ((0,), (1, 2), (3, 4))))
    for g in v.dual_partition:
        m = sum(e.multiplicities[j] for j in g)
        assert m in fe.multiplicities


def test_tolerance_ambiguity_synthetic():
    P = np.array(
        [[1.0, 2.0, 2.0], [1.0, 0.5, -1.5 + 3e-9], [1.0, 0.5, -1.5]],
        dtype=np.complex128,
    )
    e = EigenTable(P, (1, 2, 2), ((None,) * 3,) * 3, 5, (1, 2, 2))
    with pytest.raises(ToleranceAmbiguity):
        bannai_muzychuk_check(e, ((0,), (1,), (2,)))


def test_is_amorphic_goldens(catalog):
    for eid, expect in [
        ("direct-k3-k3", True),
        ("cyclo-9-4", True),
        ("cyclo-16-3", True),
        ("cyclo-16-5", True),
        ("cyclo-25-3", True),
        ("cyclo-17-4", False),
        ("petersen", True),  # d = 2: only the trivial partitions, so vacuous
        ("cyclo-13-4", False),
    ]:
        ok, cert = is_amorphic(catalog[eid])
        assert ok == expect, eid
        if ok:
            assert cert["partitions_checked"] >= 2
        else:
            assert "witness" in cert


def test_amorphic_witness_is_minimal_failure():
    ok, cert = is_amorphic(catalog_scheme("cyclo-17-4"))
    assert not ok
    assert cert["witness"] == [[0], [1], [2], [3, 4]]


def test_normal_form_k3k3():
    e = character_table(catalog_scheme("direct-k3-k3"))
    nf = amorphic_normal_form(e)
    assert nf.row_perm == (0, 1, 2, 3) and nf.col_perm == (0, 1, 2, 3)
    assert [z.real for z in nf.a] == [-1, -1, -2]
    assert [z.real for z in nf.b] == [2, 2, 1]
    d = e.d
    for i in range(d):
        for j in range(d):
            # additive parametrization forced by the shape
            assert abs((nf.a[i] + nf.b[j]) - (nf.a[j] + nf.b[i])) < 1e-9
    # deviant entries sit on the diagonal, common value everywhere else
    for pos in range(1, d + 1):
        col = nf.P[1:, pos]
        others = [col[q - 1] for q in range(1, d + 1) if q != pos]
        assert max(abs(z - others[0]) for z in others) < 1e-9
        assert abs(col[pos - 1] - others[0]) > 1e-6


def test_normal_form_fix_last_col():
    e = character_table(catalog_scheme("direct-k3-k3"))
    nf = amorphic_normal_form(e, fix_last_col=1)
    assert nf.col_perm[-1] == 1
    for pos in range(1, e.d + 1):
        col = nf.P[1:, pos]
        others = [col[q - 1] for q in range(1, e.d + 1) if q != pos]
        assert max(abs(z - others[0]) for z in others) < 1e-9


def test_normal_form_larger_amorphic():
    e = character_table(catalog_scheme("cyclo-16-5"))
    nf = amorphic_normal_form(e)
    assert sorted(nf.row_perm) == list(range(6))
    assert sorted(nf.col_perm) == list(range(6))
    for i in range(e.d):
        for j in range(e.d):
            assert abs((nf.a[i] + nf.b[j]) - (nf.a[j] + nf.b[i])) < 1e-9


def test_normal_form_unreachable_for_non_amorphic():
    e = character_table(catalog_scheme("cyclo-17-4"))
    with pytest.raises(NormalFormUnreachable):
        amorphic_normal_form(e)


def _normal_form_perms(e, fix_last_col):
    try:
        nf = amorphic_normal_form(e, fix_last_col)
    except NormalFormUnreachable:
        return None
    return nf.row_perm, nf.col_perm


def _reference_perms(e, fix_last_col):
    try:
        return reference_normal_form_perms(e, fix_last_col)
    except NormalFormUnreachable:
        return None


def test_normal_form_matches_brute_force_search(catalog):
    """Every table the catalog's amorphic check and T1.3 can hand over: the
    symmetric catalog schemes and the symmetrizations, with d >= 3, under
    every fix_last_col.  The per-column deviant detection gives the
    brute-force search's lexicographically first fit, or both find none."""
    tables = {}
    for s in catalog.values():
        if s.is_commutative:
            sym = symmetrize(s)[0]
            if sym.d >= 3:
                tables[id(sym)] = character_table(sym)
    calls = reached = 0
    for e in tables.values():
        for fix in [None, *range(1, e.d + 1)]:
            got = _normal_form_perms(e, fix)
            assert got == _reference_perms(e, fix), (e.d, fix)
            calls += 1
            reached += got is not None
    assert (len(tables), calls, reached) == (19, 81, 27)


@pytest.mark.parametrize(
    "eid, fix, match",
    [
        ("direct-k2-k2", 0, "fix_last_col"),
        ("direct-k2-k2", 4, "fix_last_col"),
        ("cyclo-5-2", None, "d >= 3"),
        ("cyclo-5-2", 1, "d >= 3"),
    ],
)
def test_normal_form_rejects_small_d_and_classes_out_of_range(eid, fix, match):
    with pytest.raises(ValueError, match=match):
        amorphic_normal_form(character_table(catalog_scheme(eid)), fix)


def test_idempotent_matching_z4():
    x = catalog_scheme("schurian-z4")
    m = idempotent_matching(x)
    assert m.split_row == 2
    assert symmetrize(x)[1] == (0, 2, 2, 1)
    assert m.row_map == ((0,), (3,), (1, 2))
    assert m.is_primitive_in_x(0) and m.is_primitive_in_x(1)
    assert not m.is_primitive_in_x(2)


def test_idempotent_matching_qr7():
    x = catalog_scheme("cyclo-7-2")
    m = idempotent_matching(x)
    assert m.split_row == 1
    sym, corr = symmetrize(x)
    assert tuple(corr) == (0, 1, 1)
    assert m.row_map == ((0,), (1, 2))
    assert sym.d == 1


def test_idempotent_matching_split_multiplicity(catalog, tables):
    """The split row's multiplicity is the sum of its two fission rows."""
    for eid, x in catalog.items():
        if len(x.transpose_pairs) != 1 or not x.is_commutative:
            continue
        m = idempotent_matching(x)
        ex = tables[eid]
        es = character_table(symmetrize(x)[0])
        for j, g in enumerate(m.row_map):
            assert es.multiplicities[j] == sum(ex.multiplicities[r] for r in g)
        assert len(m.row_map[m.split_row]) == 2


def test_idempotent_matching_needs_one_pair():
    with pytest.raises(ValueError):
        idempotent_matching(catalog_scheme("cyclo-13-4"))
    with pytest.raises(ValueError):
        idempotent_matching(catalog_scheme("cyclo-5-2"))


def test_two_class_fusions_of_amorphic_are_schemes():
    s = catalog_scheme("cyclo-16-5")
    for size in range(1, s.d):
        for block in combinations(range(1, s.d + 1), size):
            rest = [i for i in range(1, s.d + 1) if i not in block]
            if not rest:
                continue
            fused = fuse_direct(s, [[0], list(block), rest])
            assert fused.p.shape == (3, 3, 3)


def test_fusion_deciders_build_no_coloring(monkeypatch):
    """On cyclotomic (256,5), amorphicity, the fusion cross-check and every
    SRG union are decided on the tensor: merge_classes never runs.
    Symmetrizing a nonsymmetric scheme merges its coloring once, for the
    canonical form."""
    s, x = build_cyclotomic(256, 5), catalog_scheme("cyclo-13-4")
    calls = []

    def counted(s, blocks, merge=core.merge_classes):
        calls.append(blocks)
        return merge(s, blocks)

    for module in list(sys.modules.values()):
        if getattr(module, "merge_classes", None) is core.merge_classes:
            monkeypatch.setattr(module, "merge_classes", counted)
    assert is_amorphic(s)[0]
    parts = enumerate_admissible_partitions(s)
    assert all(
        v.is_scheme == direct
        for v, direct in cross_check_fusions(s, parts)
    )
    for size in range(1, s.d):
        for u in combinations(range(1, s.d + 1), size):
            srg_params_from_scheme(s, u)
    assert calls == []
    symmetrize(x)
    assert len(calls) == 1


def merge_then_verify(s, partition):
    """Oracle: the merged n x n coloring through the full axiom kernel;
    returns the fused scheme or the AxiomViolation it raises."""
    try:
        return verify_axioms(merge_classes(s, canonical_partition(partition, s.d)))
    except AxiomViolation as exc:
        return exc


@pytest.fixture(scope="module")
def oracle_cases(catalog):
    """(id, scheme, partition) for every admissible partition of every
    catalog scheme with d <= 6 and of cyclotomic (256,5), plus partitions
    that are not transpose-closed."""
    cases = [
        (eid, s, part)
        for eid, s in sorted(catalog.items())
        if s.d <= 6
        for part in enumerate_admissible_partitions(s)
    ]
    big = build_cyclotomic(256, 5)
    cases += [("cyclo-256-5", big, part) for part in enumerate_admissible_partitions(big)]
    # thin scheme of S3 (color of (x, y) is x^-1 y): non-commutative, so
    # the fused tensor's index order shows
    s3 = list(permutations(range(3)))
    inv = [tuple(np.argsort(g)) for g in s3]
    thin = scheme_from_entries(
        [[s3.index(tuple(inv[x][i] for i in s3[y])) for y in range(6)] for x in range(6)]
    )
    assert not thin.is_commutative
    cases += [("thin-s3", thin, part) for part in enumerate_admissible_partitions(thin)]
    skew = catalog["cyclo-13-4"]
    assert skew.transpose_pairs == ((1, 2), (3, 4))
    cases += [
        ("cyclo-13-4", skew, ((0,), (1,), (2, 3, 4))),
        ("cyclo-13-4", skew, ((0,), (1, 3), (2,), (4,))),
    ]
    return cases


def test_tensor_fusion_matches_merge_then_verify(oracle_cases):
    fused_count = failed = 0
    for eid, s, part in oracle_cases:
        want = merge_then_verify(s, part)
        try:
            got = fuse_direct(s, part)
        except NotAScheme as exc:
            assert isinstance(want, AxiomViolation), (eid, part)
            assert type(exc.witness) is type(want), (eid, part)
            failed += 1
            continue
        assert not isinstance(want, AxiomViolation), (eid, part, want)
        assert (got.p == want.tensor.p).all(), (eid, part)
        assert got.p.dtype == want.tensor.p.dtype
        assert got.commutative == want.is_commutative, (eid, part)
        fused = fused_scheme(s, part)
        assert fused.transpose_map == want.transpose_map, (eid, part)
        assert fused.valencies == want.valencies, (eid, part)
        assert fused.symmetric == want.symmetric, (eid, part)
        fused_count += 1
    assert (fused_count, failed) == (263, 85)  # 274 + 52 + 20 + 2 cases


def test_tensor_fusion_witness_recounts(oracle_cases):
    """Every failure names arcs of the merged coloring that re-count to
    the reported numbers."""
    kinds = set()
    for eid, s, part in oracle_cases:
        try:
            fuse_direct(s, part)
            continue
        except NotAScheme as exc:
            w = exc.witness
        merged = merge_classes(s, canonical_partition(part, s.d))
        e = merged.entries
        kinds.add(type(w))
        if isinstance(w, TransposeNotRelation):
            assert e[w.x, w.y] == w.i, (eid, part)
            assert e[w.y, w.x] == w.found != w.expected, (eid, part)
            continue
        assert isinstance(w, InconsistentIntersectionNumber)
        assert w.count_a != w.count_b, (eid, part)
        for (x, y), count in ((w.pair_a, w.count_a), (w.pair_b, w.count_b)):
            assert e[x, y] == w.l, (eid, part)
            assert _kernels.pair_counts(e, x, y, merged.d)[w.i, w.j] == count, (eid, part)
    assert kinds == {TransposeNotRelation, InconsistentIntersectionNumber}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fusion_invariant_under_vertex_and_class_relabeling(catalog, data):
    eid = data.draw(st.sampled_from(sorted(e for e, s in catalog.items() if s.d <= 6)))
    s = catalog[eid]
    labels = data.draw(st.lists(st.integers(0, s.d - 1), min_size=s.d, max_size=s.d))
    part = canonical_partition(
        [[0]] + [[i + 1 for i in range(s.d) if labels[i] == b] for b in set(labels)], s.d
    )
    vperm = np.array(data.draw(st.permutations(range(s.n))))
    cperm = [0] + data.draw(st.permutations(range(1, s.d + 1)))
    t = scheme_from_entries(np.array(cperm)[s.color.entries][np.ix_(vperm, vperm)])
    mapped = canonical_partition([[cperm[i] for i in b] for b in part], s.d)
    try:
        fuse_direct(s, part)
    except NotAScheme:
        with pytest.raises(NotAScheme):
            fuse_direct(t, mapped)
        return
    a, b = fused_scheme(s, part), fused_scheme(t, mapped)
    # sigma[block of part] = index of its image in mapped
    sigma = [mapped.index(tuple(sorted(cperm[i] for i in blk))) for blk in part]
    inv = np.argsort(sigma)
    assert (b.tensor.p == a.tensor.p[np.ix_(inv, inv, inv)]).all(), (eid, part)
    assert b.transpose_map == tuple(sigma[a.transpose_map[inv[k]]] for k in range(len(part)))
    assert b.valencies == tuple(a.valencies[inv[k]] for k in range(len(part)))


def test_symmetrization_check_raises_with_asserts_stripped():
    """A grouping that puts both symmetrization rows into one group is
    refused by a typed error, not an assert."""
    stripped = compile_stripped(fusion)
    stripped.group_rows = lambda sums, keys: [[tuple(range(sums.shape[1]))]]
    with pytest.raises(SymmetrizationCheckFailed):
        stripped.idempotent_matching(catalog_scheme("cyclo-7-2"))
