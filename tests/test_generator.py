import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ascheme import exactla, generator
from ascheme.catalog import build_cyclotomic, build_product, catalog_scheme, complete_scheme
from ascheme.core import MAX_D, MAX_N, Scheme, relabel_classes, scheme_from_entries
from ascheme.errors import (
    NotPrime,
    SplitRowMismatch,
    ToleranceAmbiguity,
    TooManyClasses,
    WitnessRejected,
    WitnessUnsolvable,
)
from ascheme.exactla import matrix_powers, solve_exact
from ascheme.generator import (
    WITNESS_MAX_N,
    check_theorem_4class,
    check_theorem_amorphic,
    check_theorem_fission,
    check_theorem_one_pair,
    check_theorem_skew_types,
    classify_skew_4class,
    find_generating_unions,
    generates,
    minimal_generating,
    permute_table_columns,
    predict_fission_table,
)
from ascheme.fusion import idempotent_matching
from ascheme.spectra import (
    EigenTable,
    character_table,
    distinct_eigenvalue_count,
    intersection_matrices,
    union_spectrum,
)

from conftest import (
    WITNESS_PRIMES,
    ModularCheckFailed,
    compile_stripped,
    fresh_catalog,
    reference_check_adjacency,
    reference_generates,
    reference_powers_mod,
)

T12_APPLICABLE = {
    "cyclo-7-2",
    "cyclo-11-2",
    "cyclo-19-2",
    "cyclo-23-2",
    "cyclo-31-2",
    "schurian-z4",
    "schurian-frob21",
    "wreath-k2-qr3",
}
T13_APPLICABLE = T12_APPLICABLE | {"wreath-qr3-k2", "wreath-qr7-k2", "wreath-qr7-k3"}
T14_APPLICABLE = {
    "cyclo-5-4",
    "cyclo-13-4",
    "cyclo-29-4",
    "cyclo-37-4",
    "schurian-z8-m3",
    "schurian-z9-m4",
    "wreath-qr3-qr3",
    "wreath-qr3-paley5",
    "wreath-paley5-qr3",
    "wreath-qr7-paley5",
}
T41_APPLICABLE = {
    "cyclo-5-4",
    "cyclo-13-4",
    "cyclo-29-4",
    "cyclo-37-4",
    "schurian-z9-m4",
    "wreath-qr3-qr3",
}


def test_generates_qr7():
    s = catalog_scheme("cyclo-7-2")
    r = generates(s, (1,))
    assert r.eigen_count == 3 and r.span_rank == 3 and r.generates
    assert r.witness_verified
    assert r.witness == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(-1, 2), Fraction(1, 2)),
    )
    r2 = generates(s, (1, 2))
    assert not r2.generates and r2.eigen_count == 2 and r2.witness is None


def test_generation_report_json():
    r = generates(catalog_scheme("cyclo-7-2"), (1,))
    js = r.to_json()
    assert js["witness"][2] == ["0", "-1/2", "1/2"]
    assert js["union"] == [1] and js["generates"] is True


def test_eigen_count_equals_span_rank_everywhere(catalog):
    for eid, s in catalog.items():
        if not s.is_commutative or s.d > 6:
            continue
        for r in find_generating_unions(s):
            assert r.eigen_count == r.span_rank, (eid, r.union)
            assert r.generates == (r.eigen_count == s.d + 1)
            if r.generates:
                assert r.witness_verified or s.n > WITNESS_MAX_N, (eid, r.union)


def _flattened_power_witness(s, union):
    """Reference oracle: solve sum_t c_t B^t = B_i over all (d+1)^2 entries
    of the flattened powers, an over-determined system in d+1 unknowns."""
    B = intersection_matrices(s)
    d = s.d
    BL = [[int(sum(B[i][r][c] for i in union)) for c in range(d + 1)] for r in range(d + 1)]
    powers = matrix_powers(BL, d)
    rows = [[P[r][c] for P in powers] for r in range(d + 1) for c in range(d + 1)]
    rhs = [
        [int(B[i][r][c]) for r in range(d + 1) for c in range(d + 1)] for i in range(d + 1)
    ]
    return tuple(tuple(sol) for sol in solve_exact(rows, rhs))


def test_witness_matches_flattened_power_solve(catalog):
    checked = 0
    for eid, s in catalog.items():
        if not s.is_commutative or s.d > 6:
            continue
        for r in find_generating_unions(s):
            if r.generates:
                assert r.witness == _flattened_power_witness(s, r.union), (eid, r.union)
                checked += 1
    assert checked > 100


def _moved(witness, i, t):
    """witness with coefficient t of class i moved by 1/den."""
    poly = list(witness[i])
    poly[t] += Fraction(1, math.lcm(*(c.denominator for c in poly)))
    return witness[:i] + (tuple(poly),) + witness[i + 1 :]


def test_modular_check_rejects_coefficient_moved_by_one_over_den():
    s = catalog_scheme("cyclo-13-4")
    r = generates(s, (1,))
    assert reference_check_adjacency(s, (1,), r.witness) >= 1
    for i in range(s.d + 1):
        for t in range(s.d + 1):
            with pytest.raises(ModularCheckFailed) as exc:
                reference_check_adjacency(s, (1,), _moved(r.witness, i, t))
            assert (exc.value.union, exc.value.i) == ((1,), i)


def test_modular_check_needs_several_primes_on_cyclotomic_241_6():
    s = build_cyclotomic(241, 6)
    r = generates(s, (1,))
    assert r.generates and r.witness_verified
    assert reference_check_adjacency(s, (1,), r.witness) > 1


def test_modular_check_raises_below_crt_bound():
    s = build_cyclotomic(241, 6)
    r = generates(s, (1,))
    with pytest.raises(ModularCheckFailed) as exc:
        reference_check_adjacency(s, (1,), r.witness, primes=WITNESS_PRIMES[:1])
    assert exc.value.union == (1,) and exc.value.i is None


def test_witness_primes_fit_int64():
    assert len(set(WITNESS_PRIMES)) == len(WITNESS_PRIMES)
    for p in WITNESS_PRIMES:
        assert sympy.isprime(p)
        # float64 powers: a row of residues times a 0/1 column
        assert MAX_N * p < 2**53
        # int64 combination: d + 1 products of residues
        assert (MAX_D + 1) * p * p < 2**63


def test_float64_powers_match_int64_reference():
    s = build_cyclotomic(241, 6)
    r = generates(s, (1,))
    used = reference_check_adjacency(s, (1,), r.witness)
    assert used > 1
    A = s.adjacency((1,))
    for p in WITNESS_PRIMES[:used]:
        ref = [np.eye(s.n, dtype=np.int64)]
        for _ in range(s.d):
            ref.append(ref[-1] @ A % p)
        got = reference_powers_mod(A.astype(np.float64), p, s.d + 1)
        assert got.dtype == np.int64
        assert (got == np.stack(ref)).all()


def test_modular_oracle_accepts_every_witness():
    """The regular-representation proof and the n x n modular check agree:
    every witness generates returns holds on the adjacency matrices.
    test_generates_equals_reference_pipeline runs the check on every
    generating union of its families with n <= WITNESS_MAX_N; this one
    covers the unions it does not reach, of cyclotomic (257,4), above that
    bound, and of cyclotomic (241,6)."""
    counts = {}
    for q, m in ((257, 4), (241, 6)):
        s = build_cyclotomic(q, m)
        counts[q, m] = 0
        for rep in find_generating_unions(s):
            if rep.generates:
                reference_check_adjacency(s, rep.union, rep.witness)
                counts[q, m] += 1
    assert counts == {(257, 4): 12, (241, 6): 54}


def test_generation_builds_no_adjacency_matrix(monkeypatch):
    """find_generating_unions decides every catalog scheme on the regular
    representation and never builds an n x n adjacency matrix."""

    def no_adjacency(self, classes):
        raise AssertionError("generation must not build an adjacency matrix")

    schemes = fresh_catalog()
    monkeypatch.setattr(Scheme, "adjacency", no_adjacency)
    reports = [find_generating_unions(s) for s in schemes]
    assert sum(len(r) for r in reports) == 407
    assert all(rep.witness_verified for r in reports for rep in r if rep.generates)


def test_generation_runs_no_minimal_polynomial(monkeypatch):
    """generates decides from the Krylov rank alone: the minimal-polynomial
    echelon, kept for distinct_eigenvalue_count, is not on its path."""

    def no_minpoly(B):
        raise AssertionError("generation must not compute a minimal polynomial")

    monkeypatch.setattr(exactla, "minpoly_degree", no_minpoly)
    reports = [find_generating_unions(s) for s in fresh_catalog()]
    assert sum(len(r) for r in reports) == 407


def _tampered_solve(A, rhs):
    xs = solve_exact(A, rhs)
    for x in xs:
        x[-1] += 1
    return xs


def _unsolvable_from_class_2(A, rhs):
    return solve_exact(A, rhs)[:2] + [None] * (len(rhs) - 2)


@pytest.mark.parametrize(
    "attr, fake, error, i",
    [
        ("solve_exact", _tampered_solve, WitnessRejected, 0),
        ("solve_exact", lambda A, rhs: [None] * len(rhs), WitnessUnsolvable, 0),
        ("solve_exact", _unsolvable_from_class_2, WitnessUnsolvable, 2),
    ],
)
def test_failed_generation_check_raises_typed_error(monkeypatch, attr, fake, error, i):
    monkeypatch.setattr(exactla, attr, fake)
    with pytest.raises(error) as exc:
        generates(catalog_scheme("cyclo-7-2"), (1,))
    assert exc.value.union == (1,) and exc.value.i == i


def test_false_full_rank_raises_witness_unsolvable(monkeypatch):
    """A rank that claims d+1 on a union that does not generate cannot
    produce a witness: e_1 is outside the span of K's columns e_0 and
    (0, 1, 1), so K c = e_1 has no solution."""
    monkeypatch.setattr(exactla, "rank", lambda vectors: len(vectors))
    with pytest.raises(WitnessUnsolvable) as exc:
        generates(catalog_scheme("cyclo-7-2"), (1, 2))
    assert exc.value.union == (1, 2) and exc.value.i == 1


def test_tampered_witness_raises_with_asserts_stripped(monkeypatch):
    """The checks survive python -O: run generator compiled with optimize=1,
    which strips assert statements as -O does."""
    stripped = compile_stripped(generator)
    monkeypatch.setattr(exactla, "solve_exact", _tampered_solve)
    with pytest.raises(WitnessRejected) as exc:
        stripped.generates(catalog_scheme("cyclo-7-2"), (1,))
    assert (exc.value.union, exc.value.i) == ((1,), 0)
    assert "regular representation" in str(exc.value)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_generation_invariant_under_vertex_and_class_relabeling(catalog, data):
    eid = data.draw(
        st.sampled_from(sorted(e for e, s in catalog.items() if s.is_commutative and s.d <= 6))
    )
    s = catalog[eid]
    vperm = np.array(data.draw(st.permutations(range(s.n))))
    cperm = [0] + data.draw(st.permutations(range(1, s.d + 1)))
    t = scheme_from_entries(np.array(cperm)[s.color.entries][np.ix_(vperm, vperm)])
    for a in find_generating_unions(s):
        b = generates(t, tuple(cperm[i] for i in a.union))
        assert (b.eigen_count, b.span_rank, b.generates, b.witness_verified) == (
            a.eigen_count, a.span_rank, a.generates, a.witness_verified
        ), (eid, a.union)
        if a.generates:
            assert all(b.witness[cperm[i]] == a.witness[i] for i in range(s.d + 1))


def test_exact_count_agrees_with_float_spectrum(catalog, tables):
    """The minimal-polynomial count must match the clustered eigenvalue
    count from the character table for every union (dual oracles)."""
    for eid in ("cyclo-13-4", "schurian-z4", "cyclo-16-5", "wreath-qr3-qr3"):
        s = catalog[eid]
        e = tables[eid]
        for r in find_generating_unions(s):
            assert r.eigen_count == len(union_spectrum(e, r.union)), (eid, r.union)


def test_find_generating_unions_13_4():
    reps = find_generating_unions(catalog_scheme("cyclo-13-4"))
    gen = [r.union for r in reps if r.generates]
    assert gen == [
        (1,),
        (2,),
        (3,),
        (4,),
        (1, 3),
        (1, 4),
        (2, 3),
        (2, 4),
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 4),
        (2, 3, 4),
    ]
    assert minimal_generating(reps) == [(1,), (2,), (3,), (4,)]


def test_find_generating_unions_guard():
    e = np.array([[(y - x) % 14 for y in range(14)] for x in range(14)])
    s = scheme_from_entries(e)
    assert s.d == 13
    with pytest.raises(TooManyClasses):
        find_generating_unions(s)


def test_union_validation():
    s = catalog_scheme("cyclo-7-2")
    with pytest.raises(ValueError):
        generates(s, ())
    with pytest.raises(ValueError):
        generates(s, (0,))


# --- T1.2 ------------------------------------------------------------------


def test_one_pair_applicable_set(catalog):
    got = {
        eid
        for eid, s in catalog.items()
        if s.is_commutative and check_theorem_one_pair(s).applicable
    }
    assert got == T12_APPLICABLE


def test_one_pair_holds_everywhere(catalog):
    for eid in sorted(T12_APPLICABLE):
        v = check_theorem_one_pair(catalog[eid])
        assert v.applicable and v.holds, eid
        assert v.evidence["eigen_counts"] == [catalog[eid].d + 1] * 2
        assert v.evidence["generates"] == [True, True]


def test_one_pair_hypothesis_filter():
    # inner quotient class is disconnected, so the symmetrized pair class
    # cannot generate; the theorem must report inapplicable, not a failure
    v = check_theorem_one_pair(catalog_scheme("wreath-qr3-k2"))
    assert not v.applicable
    assert v.evidence["reason"] == "symmetrized pair class does not generate"
    v = check_theorem_one_pair(catalog_scheme("cyclo-13-4"))
    assert not v.applicable  # two pairs
    v = check_theorem_one_pair(catalog_scheme("petersen"))
    assert not v.applicable  # symmetric


def test_verdict_json_shape():
    v = check_theorem_one_pair(catalog_scheme("petersen"))
    js = v.to_json()
    assert js["applicable"] is False and "holds" not in js
    v = check_theorem_one_pair(catalog_scheme("cyclo-7-2"))
    js = v.to_json()
    assert js["holds"] is True and js["theorem"] == "T1.2"


# --- T1.3 ------------------------------------------------------------------


def test_amorphic_criterion_applicable_set(catalog):
    got = {
        eid
        for eid, s in catalog.items()
        if s.is_commutative and check_theorem_amorphic(s).applicable
    }
    assert got == T13_APPLICABLE


def test_amorphic_criterion_holds_everywhere(catalog):
    for eid in sorted(T13_APPLICABLE):
        v = check_theorem_amorphic(catalog[eid])
        assert v.applicable and v.holds, eid
        assert v.evidence["branch"] == "d<=3"
        assert v.evidence["predicted_generatable"] is True
        assert v.evidence["actual_generatable"] is True
        assert v.evidence["pair_union_witness"] is not None


def test_amorphic_criterion_skips_non_amorphic():
    v = check_theorem_amorphic(catalog_scheme("schurian-z8-m3"))
    assert not v.applicable
    assert v.evidence["reason"] == "symmetrization not amorphic"
    assert not check_theorem_amorphic(catalog_scheme("cyclo-13-4")).applicable


# --- T1.4 ------------------------------------------------------------------


def test_4class_applicable_set(catalog):
    got = {
        eid
        for eid, s in catalog.items()
        if s.is_commutative and check_theorem_4class(s).applicable
    }
    assert got == T14_APPLICABLE


FOUND_I = {
    "cyclo-5-4": 3,
    "cyclo-13-4": 3,
    "cyclo-29-4": 3,
    "cyclo-37-4": 3,
    "schurian-z8-m3": 3,
    "schurian-z9-m4": 2,
    "wreath-qr3-qr3": 2,
    "wreath-qr3-paley5": 2,
    "wreath-paley5-qr3": 2,
    "wreath-qr7-paley5": 2,
}


def test_4class_holds_with_expected_witness(catalog):
    for eid, expect_i in FOUND_I.items():
        v = check_theorem_4class(catalog[eid])
        assert v.applicable and v.holds, eid
        assert v.evidence["all_choices_hold"] is True
        first = v.evidence["choices"][0]
        assert first["found_i"] == expect_i, eid
        assert first["via_relabel"] is False
        assert first["outside_statement"] is False
        # the witness union must really have d+1 = 5 distinct eigenvalues
        key = {2: "2+3", 3: "3"}[expect_i]
        assert first["unions"][key]["eigen_count"] == 5
        assert first["unions"][key]["generates"] is True


def test_4class_choice_count_matches_pairs(catalog):
    for eid in T14_APPLICABLE:
        s = catalog[eid]
        v = check_theorem_4class(s)
        assert len(v.evidence["choices"]) == len(s.transpose_pairs), eid


def test_4class_stable_under_relabeling():
    s = catalog_scheme("cyclo-13-4")
    base = check_theorem_4class(s)
    t = relabel_classes(s, (0, 3, 4, 1, 2))
    v = check_theorem_4class(t)
    assert v.holds == base.holds
    assert v.evidence["all_choices_hold"] is True


def test_4class_inapplicable():
    assert not check_theorem_4class(catalog_scheme("cyclo-7-2")).applicable
    assert not check_theorem_4class(catalog_scheme("cyclo-17-4")).applicable


# --- T3.1 ------------------------------------------------------------------

EXPECTED_A = {
    "cyclo-7-2": ("-7", 1),
    "cyclo-11-2": ("-11", 1),
    "cyclo-19-2": ("-19", 1),
    "cyclo-23-2": ("-23", 1),
    "cyclo-31-2": ("-31", 1),
    "schurian-z4": ("-4", 2),
    "schurian-frob21": ("-7", 1),
    "wreath-qr3-k2": ("-3", 2),
    "wreath-k2-qr3": ("-12", 1),
    "wreath-qr7-k2": ("-7", 2),
    "wreath-qr7-k3": ("-7", 2),
}


def test_fission_prediction_holds_with_expected_radicand(catalog):
    got = {
        eid
        for eid, s in catalog.items()
        if s.is_commutative and check_theorem_fission(s).applicable
    }
    assert got == set(EXPECTED_A)
    for eid, (a, split) in EXPECTED_A.items():
        v = check_theorem_fission(catalog[eid])
        assert v.applicable and v.holds, eid
        assert v.evidence["a"] == a, eid
        assert v.evidence["split_row"] == split, eid
        assert v.evidence["max_deviation"] == 0.0, eid


def test_predict_fission_table_qr7():
    x = catalog_scheme("cyclo-7-2")
    sym_t = character_table(complete_scheme(7))
    pred = predict_fission_table(sym_t, 1, Fraction(-7))
    assert pred.multiplicities == (1, 3, 3)
    assert pred.valencies == (1, 3, 3)
    # split entries are exact quadratics (-1 +- i sqrt 7)/2
    rho = pred.exact[1][1]
    assert rho.q == Fraction(-1, 2) and rho.r == Fraction(1, 2) and rho.v == -7
    assert pred.exact[2][1] == rho.conjugate()
    computed = character_table(x)
    # the split pair in either order
    devs = [np.abs(pred.P - computed.P[rows]).max() for rows in ([0, 1, 2], [0, 2, 1])]
    assert min(devs) < 1e-12


def test_predict_fission_table_validation():
    sym_t = character_table(complete_scheme(7))
    with pytest.raises(ValueError):
        predict_fission_table(sym_t, 1, Fraction(7))
    with pytest.raises(ValueError):
        predict_fission_table(sym_t, 0, Fraction(-7))
    odd = character_table(complete_scheme(4))  # multiplicity 3 cannot halve
    with pytest.raises(SplitRowMismatch):
        predict_fission_table(odd, 1, Fraction(-4))


def test_fission_rows_follow_the_row_map():
    """T3.1 matches rows by the symmetrization row map: planting x's table
    with rows 1..d reversed, which also swaps the split pair, leaves every
    verdict and its evidence unchanged."""
    for eid in EXPECTED_A:
        want = check_theorem_fission(catalog_scheme(eid))
        x = catalog_scheme(eid)  # a fresh scheme: the table planted below stays its own
        e = character_table(x)
        before = idempotent_matching(x)
        rows = [0, *range(x.d, 0, -1)]
        key = next(k for k, v in x._memo.items() if v is e)
        x._memo[key] = EigenTable(
            e.P[rows],
            tuple(e.multiplicities[r] for r in rows),
            tuple(e.exact[r] for r in rows),
            e.n,
            e.valencies,
        )
        after = idempotent_matching(x)
        pair = before.row_map[before.split_row]
        assert tuple(rows[r] for r in after.row_map[after.split_row]) == pair[::-1], eid
        assert check_theorem_fission(x) == want, eid


def test_permute_table_columns_validation():
    e = character_table(catalog_scheme("cyclo-7-2"))
    with pytest.raises(ValueError):
        permute_table_columns(e, (1, 0, 2))
    out = permute_table_columns(e, (0, 2, 1))
    assert (out.P[:, 1] == e.P[:, 2]).all()
    assert out.valencies == (1, 3, 3)


# --- T4.1 ------------------------------------------------------------------


def test_skew_types_applicable_set(catalog):
    got = {
        eid
        for eid, s in catalog.items()
        if s.is_commutative and check_theorem_skew_types(s).applicable
    }
    assert got == T41_APPLICABLE


EXPECTED_TYPE = {
    "cyclo-5-4": 3,
    "cyclo-13-4": 3,
    "cyclo-29-4": 3,
    "cyclo-37-4": 3,
    "schurian-z9-m4": 1,
    "wreath-qr3-qr3": 1,
}


def test_skew_types_hold(catalog):
    for eid, expect in EXPECTED_TYPE.items():
        v = check_theorem_skew_types(catalog[eid])
        assert v.applicable and v.holds, eid
        assert v.evidence["type"] == expect, eid


def test_skew_classification_type1():
    c = classify_skew_4class(catalog_scheme("wreath-qr3-qr3"))
    assert c.type == 1
    assert abs(c.radicands["b"]["computed"] - 3.0) < 1e-9
    assert abs(c.radicands["z"]["computed"] - 27.0) < 1e-9
    assert c.radicands["b"]["residual"] < 1e-9
    assert c.radicands["z"]["residual"] < 1e-9
    assert c.formulas_ok and c.row_sums_ok and c.properties_ok
    assert c.property_unions == {"1+3": 5, "2+4": 5}


def test_skew_classification_type3():
    c = classify_skew_4class(catalog_scheme("cyclo-13-4"))
    assert c.type == 3
    for name in ("y", "b", "z", "c"):
        assert c.radicands[name]["computed"] > 0
    # Galois-conjugate radicand pairs multiply to rational products
    assert abs(c.radicands["y"]["computed"] * c.radicands["b"]["computed"] - 13.0) < 1e-6
    assert c.property_unions == {"1": 5, "2": 5, "3": 5, "4": 5}
    assert c.row_sums_ok and c.properties_ok


def test_skew_classification_raises_in_the_ambiguity_window():
    """A float in x's table moved so that row 1's pair sum lies 2e-8 from
    row 2's, inside the window (6e-9, 6e-8) of the symmetrization's
    valency 6, raises rather than giving a failing T4.1 verdict."""
    x = build_cyclotomic(13, 4)  # a fresh scheme: the table planted below stays its own
    assert x.transpose_pairs == ((1, 2), (3, 4))
    e = character_table(x)
    assert e.exact[1][1] is None
    P = e.P.copy()
    P[1, 1] += 2e-8
    key = next(k for k, v in x._memo.items() if v is e)
    x._memo[key] = EigenTable(P, e.multiplicities, e.exact, e.n, e.valencies)
    with pytest.raises(ToleranceAmbiguity):
        classify_skew_4class(x)
    with pytest.raises(ToleranceAmbiguity):
        check_theorem_skew_types(x)


def test_skew_type_depends_on_pair_convention():
    """Swapping which transpose pair is (1,2) exchanges types 1 and 2 and
    swaps the radicand roles (b, z) -> (c, y)."""
    s = catalog_scheme("wreath-qr3-qr3")
    flipped = relabel_classes(s, (0, 3, 4, 1, 2))
    c = classify_skew_4class(flipped)
    assert c.type == 2
    assert abs(c.radicands["y"]["computed"] - 27.0) < 1e-9
    assert abs(c.radicands["c"]["computed"] - 3.0) < 1e-9
    assert c.formulas_ok and c.properties_ok
    # the canonical-choice verdict is unaffected
    v = check_theorem_skew_types(flipped)
    assert v.applicable and v.holds


def test_skew_types_inapplicable():
    # nonsymmetric but with a symmetric nontrivial class: not skew
    assert not check_theorem_skew_types(catalog_scheme("schurian-z8-m3")).applicable
    assert not check_theorem_skew_types(catalog_scheme("cyclo-17-4")).applicable


def _nonsymmetric_cyclotomic_4_class():
    out = []
    for q in range(5, 258, 8):
        try:
            out.append(build_cyclotomic(q, 4))
        except NotPrime:
            continue
    return out


def test_generates_equals_reference_pipeline(catalog, monkeypatch):
    """Equal GenerationReports, witness Fractions included, from generates
    and the list-based reference on every union of the catalog (407), of
    the 15 nonsymmetric cyclotomic (q, 4) with q <= 257, and of cyclotomic
    (31,2)^2 (n = 961, d = 8).  There the full union has k^(d+1) > 2^63,
    so the object-dtype products run."""
    dtypes = set()
    matmul = exactla.int_matmul

    def recorded(A, B):
        out = matmul(A, B)
        dtypes.add(out.dtype)
        return out

    monkeypatch.setattr(exactla, "int_matmul", recorded)
    c31 = build_cyclotomic(31, 2)
    families = {
        "catalog": [s for s in catalog.values() if s.is_commutative],
        "cyclotomic (q, 4)": _nonsymmetric_cyclotomic_4_class(),
        "(31,2)^2": [build_product(c31, c31, "direct")],
    }
    counts = {}
    for name, schemes in families.items():
        dtypes.clear()
        counts[name] = 0
        for s in schemes:
            for rep in find_generating_unions(s):
                assert rep == reference_generates(s, rep.union), (name, s.n, rep.union)
                counts[name] += 1
    assert counts == {"catalog": 407, "cyclotomic (q, 4)": 225, "(31,2)^2": 255}
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
