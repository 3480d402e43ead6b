"""Stacked fusion decisions against the same decisions one at a time.

core.fuse_canonical, fusion.spectral_verdicts, spectra.union_spectra and
srg._closures each decide a whole stack at once, and every single-partition
or single-union entry point is a stack of one.  The tests here decide each
stack whole and item by item, on every admissible partition of every
catalog entry and of the d <= 5 schemes of the cyclotomic sweep, and on
tensors corrupted in one cell, and compare every field.  The memoized
deciders fill their memos in stacks through core.memoized's fill, whose
contract is pinned here too.
"""

import random
import types
from itertools import combinations

import numpy as np
import pytest

from ascheme import core, fusion, srg
from ascheme.catalog import _check_fusion, catalog_scheme
from ascheme.core import IntersectionTensor, Scheme, canonical_partition
from ascheme.errors import AxiomViolation, InconsistentIntersectionNumber, NotStronglyRegular
from ascheme.fusion import (
    bannai_muzychuk_check,
    cross_check_fusions,
    enumerate_admissible_partitions,
    is_amorphic,
    spectral_verdicts,
)
from ascheme.spectra import EigenTable, character_table, union_spectra, union_spectrum

from conftest import fresh_catalog, sweep_schemes


@pytest.fixture(scope="module")
def schemes():
    """(name, scheme): every catalog entry and every sweep scheme with d <= 5."""
    out = [(f"catalog-{k}", s) for k, s in enumerate(fresh_catalog())]
    out += [(f"sweep-{s.n}-{s.d}", s) for s in sweep_schemes() if s.d <= 5]
    return out


def corrupted(s, rng):
    """s's coloring with its tensor changed in one cell p[i, j, l], l >= 1,
    which keeps the l = 0 slice, and so the transpose map and valencies."""
    m = s.d + 1
    p = s.tensor.p.copy()
    i, j, l = rng.randrange(m), rng.randrange(m), rng.randrange(1, m)
    p[i, j, l] += 1
    return Scheme(s.color, IntersectionTensor(p))


def same_decision(a, b):
    """Two fuse_canonical verdicts are the same tensor bytes, or the same
    refusal: type, message and witness fields."""
    if isinstance(a, AxiomViolation):
        return type(a) is type(b) and str(a) == str(b) and vars(a) == vars(b)
    return (
        isinstance(b, IntersectionTensor)
        and a.p.dtype == b.p.dtype
        and a.p.shape == b.p.shape
        and a.p.tobytes() == b.p.tobytes()
        and a.commutative == b.commutative
        and not a.p.flags.writeable
    )


def same_verdict(a, b):
    return (
        a.partition == b.partition
        and a.is_scheme == b.is_scheme
        and a.dual_partition == b.dual_partition
        and a.witness == b.witness
        and (a.fused_table is None) == (b.fused_table is None)
        and (a.fused_table is None or a.fused_table.tobytes() == b.fused_table.tobytes())
    )


def test_stacked_fusion_decides_as_one_at_a_time(schemes):
    rng = random.Random(26)
    counts = {"fused": 0, "refused": 0, "corrupted refused": 0}
    for name, s in schemes:
        parts = enumerate_admissible_partitions(s)
        for scheme, kind in ((s, "refused"), (corrupted(s, rng), "corrupted refused")):
            stacked = core.fuse_canonical(scheme, parts)
            for part, got in zip(parts, stacked, strict=True):
                assert same_decision(got, core.fuse_canonical(scheme, [part])[0]), (name, part)
                if isinstance(got, AxiomViolation):
                    counts[kind] += 1
                elif scheme is s:
                    counts["fused"] += 1
    assert counts["fused"] > 0 and counts["refused"] > 0
    assert counts["corrupted refused"] > counts["refused"]


def test_stacked_spectral_verdicts_decide_as_one_at_a_time(schemes):
    checked = 0
    for name, s in schemes:
        if not s.is_commutative:
            continue
        e = character_table(s)
        parts = enumerate_admissible_partitions(s)
        for part, got in zip(parts, spectral_verdicts(e, parts), strict=True):
            assert same_verdict(got, bannai_muzychuk_check(e, part)), (name, part)
            checked += 1
        unions = core.mask_unions(s.d)
        for u, spec in zip(unions, union_spectra(e, unions), strict=True):
            assert spec == union_spectrum(e, u), (name, u)
    assert checked > 274


def test_stacked_closures_decide_as_one_at_a_time(schemes):
    for name, s in schemes:
        unions = core.mask_unions(s.d)
        for u, got in zip(unions, srg._closures(s, unions), strict=True):
            (alone,) = srg._closures(s, [u])
            assert got.tobytes() == alone.tobytes(), (name, u)
            assert not got.flags.writeable


def test_bm_witness_block_is_decided_at_the_grouping_tolerance():
    """The witness block of a spectral refusal is found at the tolerance
    that decided the grouping, CLUSTER_TOL times the largest sum of the
    table.  Rows 2 and 3 agree in block 1 at that tolerance and differ in
    block 2; a search at block 1's own smaller scale would see their gap
    of 5e-9 inside its window and raise ToleranceAmbiguity."""
    P = np.array(
        [[1, 1000, 1, 1], [1, 500, 1, 1], [1, 1.0, 1, 1], [1, 1.0 + 5e-9, -499, -499]],
        dtype=np.complex128,
    )
    e = EigenTable(P, (1, 1, 1, 1), ((None,) * 4,) * 4, 4, (1, 1000, 1, 1))
    v = bannai_muzychuk_check(e, ((0,), (1,), (2, 3)))
    assert not v.is_scheme
    assert v.witness == {"block": 2, "rows": [2, 3], "sums": [[2.0, 0.0], [-998.0, 0.0]]}


def recording(monkeypatch, module, name):
    """module.name wrapped to list the stack (second argument) of each
    call."""
    stacks = []
    routine = getattr(module, name)

    def recorded(first, stack):
        stacks.append(list(stack))
        return routine(first, stack)

    monkeypatch.setattr(module, name, recorded)
    return stacks


def test_check_fusion_makes_one_product_per_chunk(monkeypatch):
    """The catalog's fusion check decides every admissible partition in
    stacks of at most STACK_ENTRIES // (d + 1)^3, one fuse_canonical
    product each, in order: one stack for every catalog scheme, and
    ceil(52 / 5) stacks for cyclo-16-5 when a stack holds five."""
    stacks = recording(monkeypatch, fusion, "fuse_canonical")
    for s in fresh_catalog():
        if not s.is_commutative:
            continue
        stacks.clear()
        assert _check_fusion(s)[1] is True
        assert stacks == [enumerate_admissible_partitions(s)]
    s = catalog_scheme("cyclo-16-5")
    monkeypatch.setattr(core, "STACK_ENTRIES", 5 * 6**3 + 5)
    stacks.clear()
    assert _check_fusion(s)[1] is True
    parts = enumerate_admissible_partitions(s)
    assert len(parts) == 52
    assert stacks == [parts[a : a + 5] for a in range(0, 52, 5)]


def test_is_amorphic_stops_at_the_first_refusal_on_an_empty_memo(monkeypatch):
    """On a fresh scheme is_amorphic fuses one partition at a time and
    stops at the first that does not fuse; once a stacked check has kept
    every verdict, it reads them and fuses nothing."""
    stacks = recording(monkeypatch, fusion, "fuse_canonical")
    s = catalog_scheme("cyclo-13-4")
    parts = enumerate_admissible_partitions(s)
    am, cert = is_amorphic(s)
    assert not am
    first = parts.index(tuple(tuple(b) for b in cert["witness"]))
    assert 0 < first < len(parts)
    assert stacks == [[p] for p in parts[: first + 1]]
    stacks.clear()
    t = catalog_scheme("cyclo-13-4")
    cross_check_fusions(t, enumerate_admissible_partitions(t))
    stacks.clear()
    assert is_amorphic(t) == (am, cert)
    assert stacks == []


def test_enumeration_runs_once_and_keeps_canonical_partitions(monkeypatch):
    """enumerate_admissible_partitions enumerates once per scheme and hands
    out canonical partitions, each call in a new list; the fusion deciders
    take them as they are, without canonical_partition."""
    s = catalog_scheme("cyclo-16-5")
    first = enumerate_admissible_partitions(s)
    assert all(canonical_partition(p, s.d) == p for p in first)

    def refuse(*args):
        raise AssertionError("enumerated or canonicalized again")

    monkeypatch.setattr(fusion, "_partitions_of", refuse)
    monkeypatch.setattr(fusion, "canonical_partition", refuse)
    again = enumerate_admissible_partitions(s)
    assert again == first and again is not first
    assert all(v.is_scheme == direct for v, direct in cross_check_fusions(s, again))
    assert is_amorphic(s)[0]


def test_stacked_fusion_of_a_corrupted_tensor_names_the_first_cell():
    """A tensor corrupted in one cell is refused at the first (l, I, J), in
    a stack and alone, with the same witness."""
    s = catalog_scheme("cyclo-13-4")
    p = s.tensor.p.copy()
    p[1, 1, 3] += 1
    bad = Scheme(s.color, IntersectionTensor(p))
    part = ((0,), (1, 2), (3, 4))
    stacked = core.fuse_canonical(bad, [((0,), (1,), (2,), (3,), (4,)), part, part])
    assert isinstance(stacked[1], InconsistentIntersectionNumber)
    assert same_decision(stacked[1], stacked[2])
    assert same_decision(stacked[1], core.fuse_canonical(bad, [part])[0])
    assert (stacked[1].i, stacked[1].j) == (1, 1)
    assert isinstance(stacked[0], IntersectionTensor)


def test_union_fills_decide_each_partition_once(monkeypatch):
    """srg.fill_unions decides each distinct {union, complement} fusion
    once, in one stack, though a union and its complement share it; a
    second fill and every srg_params_from_scheme call after it decide
    nothing more."""
    stacks = recording(monkeypatch, fusion, "fuse_canonical")
    s = catalog_scheme("direct-k3-k3")
    unions = [u for k in range(1, s.d) for u in combinations(range(1, s.d + 1), k)]
    srg.fill_unions(s, unions)
    srg.fill_unions(s, unions)
    assert len(stacks) == 1 and len(stacks[0]) == len(unions) // 2
    for u in unions:
        try:
            srg.srg_params_from_scheme(s, u)
        except NotStronglyRegular:
            pass
    assert len(stacks) == 1


# --- the one batch path: core.memoized's fill ---------------------------------


def test_memoized_fill_decides_each_new_key_once_in_stacks(monkeypatch):
    """fill takes each argument's key once, skips the keys already kept,
    decides the rest in stacks of STACK_ENTRIES // entries keys and gives
    the values in argument order.  A stack that raises leaves the stacks
    before it kept, and the next fill decides only the rest."""

    @core.memoized(lambda s, x: tuple(sorted(x)))
    def total(s, x):
        return sum(x)

    stacks, refuse = [], set()

    def stack(s, keys):
        stacks.append(list(keys))
        if len(stacks) in refuse:
            raise RuntimeError("stack refused")
        return [sum(k) for k in keys]

    monkeypatch.setattr(core, "STACK_ENTRIES", 20)
    s = types.SimpleNamespace(_memo={})
    # two raw arguments with one key are decided once, as that key
    assert total.fill(s, [(2, 1), (3,), (1, 2)], stack, 10) == [3, 3, 3]
    assert stacks == [[(1, 2), (3,)]]
    # kept keys are skipped; the values follow the arguments
    args = [(4,), (2, 1), (5,), (3,), (6,), (4,)]
    assert total.fill(s, args, stack, 10) == [4, 3, 5, 3, 6, 4]
    assert stacks[1:] == [[(4,), (5,)], [(6,)]]
    assert total(s, (1, 2)) == 3 and len(stacks) == 3

    t = types.SimpleNamespace(_memo={})
    args = [(1,), (2,), (3,), (4,), (5,)]
    stacks.clear()
    refuse.add(2)
    with pytest.raises(RuntimeError, match="stack refused"):
        total.fill(t, args, stack, 10)
    assert stacks == [[(1,), (2,)], [(3,), (4,)]]
    assert sorted(k for _, k in t._memo) == [(1,), (2,)]
    stacks.clear()
    refuse.clear()
    assert total.fill(t, args, stack, 10) == [1, 2, 3, 4, 5]
    assert stacks == [[(3,), (4,)], [(5,)]]


def test_srg_fills_cross_stack_boundaries(monkeypatch):
    """With STACK_ENTRIES set so that a stack holds two unions, fill_unions
    grows the closed subsets and fill_spectra groups the spectra of
    direct-k3-k3's six proper unions in three stacks of two, in order, and
    every value kept equals the single call's on a fresh scheme.  The
    single spectrum call reads the table, not union_spectra."""
    s = catalog_scheme("direct-k3-k3")
    fresh = catalog_scheme("direct-k3-k3")
    unions = [u for u in core.mask_unions(s.d) if len(u) < s.d]
    assert len(unions) == 6 and all(s.symmetric)
    pairs = [unions[a : a + 2] for a in range(0, 6, 2)]

    closures = recording(monkeypatch, srg, "_closures")
    monkeypatch.setattr(core, "STACK_ENTRIES", 2 * (s.d + 1) ** 2)
    srg.fill_unions(s, unions)
    assert closures == pairs
    for u in unions:
        got = srg._closed_subset(s, u)
        assert got.tobytes() == srg._closed_subset(fresh, u).tobytes(), u
        assert not got.flags.writeable
    # s's values are kept; each single call on the fresh scheme is a stack of one
    assert closures == pairs + [[u] for u in unions]

    spectra = recording(monkeypatch, srg, "union_spectra")
    radicands = len(character_table(s).quarters[0])
    monkeypatch.setattr(core, "STACK_ENTRIES", 2 * (s.d + 1) ** 2 * (radicands + 2))
    srg.fill_spectra(s, unions)
    assert spectra == pairs
    for u in unions:
        assert srg._spectrum(s, u) == srg._spectrum(fresh, u), u
    assert spectra == pairs
