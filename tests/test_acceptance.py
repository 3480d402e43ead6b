"""Acceptance gate: the nine primary criteria, one test each.

Every test prints a single PASS/FAIL line so that

    pytest tests/test_acceptance.py -v -s

yields the full scorecard in order.  Tolerances are stated inline; exact
claims use rational arithmetic and admit no tolerance at all.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from ascheme.catalog import catalog_scheme, complete_scheme
from ascheme.cli import main
from ascheme.errors import NotAScheme
from ascheme.exact import QuadVal
from ascheme.fusion import bannai_muzychuk_check, enumerate_admissible_partitions, fuse_direct
from ascheme.generator import (
    WITNESS_MAX_N,
    check_theorem_4class,
    check_theorem_fission,
    classify_skew_4class,
    generates,
    predict_fission_table,
)
from ascheme.spectra import character_table, distinct_eigenvalue_count
from ascheme.srg import (
    connectivity_classification,
    lambda_from_eigen,
    mu_from_eigen,
    srg_eigen,
    srg_params_from_scheme,
)


def _report(num, label, ok, detail=""):
    line = f"[PRIMARY {num}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_theorem_14_sweep(catalog):
    targets = {
        eid: s
        for eid, s in catalog.items()
        if s.d == 4 and s.is_commutative and s.transpose_pairs
    }
    assert len(targets) >= 6
    assert "cyclo-13-4" in targets
    assert any(
        eid.startswith("wreath-") and len(s.transpose_pairs) == 1
        for eid, s in targets.items()
    )
    check_theorem_4class(targets["cyclo-13-4"])  # compile/cache warmup
    t0 = time.perf_counter()
    ok = True
    for eid in sorted(targets):
        v = check_theorem_4class(targets[eid])
        c = v.evidence["choices"][0]
        i = c["found_i"]
        key = {2: "1+3" if c["via_relabel"] else "2+3", 3: "3", 4: "3+4"}.get(i)
        ok = ok and v.applicable and v.holds and i in (2, 3, 4)
        ok = ok and c["unions"][key]["eigen_count"] == 5
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(
        1,
        "nonsymmetric 4-class generation (T1.4)",
        ok,
        f"{len(targets)} schemes, i in {{2,3,4}}, 5 eigenvalues, {elapsed:.2f}s",
    )


def test_criterion_2_generation_dual_oracle(catalog):
    unions_checked = 0
    disagreements = 0
    unverified = 0
    for eid in sorted(catalog):
        s = catalog[eid]
        if s.d > 6:
            continue
        for mask in range(1, 1 << s.d):
            u = tuple(i + 1 for i in range(s.d) if mask >> i & 1)
            rep = generates(s, u)
            unions_checked += 1
            count = distinct_eigenvalue_count(s, u)
            if (rep.eigen_count, rep.span_rank) != (count, count):
                disagreements += 1
            if rep.generates and s.n <= WITNESS_MAX_N and not rep.witness_verified:
                unverified += 1
    ok = disagreements == 0 and unverified == 0
    _report(
        2,
        "Krylov-rank generation verdict vs minimal-polynomial degree",
        ok,
        f"{unions_checked} unions, {disagreements} disagreements, "
        f"{unverified} unverified witnesses",
    )


def test_criterion_3_fusion_cross_oracle(catalog, tables):
    checked = 0
    disagreements = 0
    for eid in sorted(catalog):
        s = catalog[eid]
        if s.d > 5 or not s.is_commutative:
            continue
        e = tables[eid]
        for part in enumerate_admissible_partitions(s):
            verdict = bannai_muzychuk_check(e, part)
            try:
                fuse_direct(s, part)
                direct = True
            except NotAScheme:
                direct = False
            checked += 1
            if verdict.is_scheme != direct:
                disagreements += 1
    ok = checked >= 200 and disagreements == 0
    _report(
        3,
        "spectral vs direct fusion oracle",
        ok,
        f"{checked} partitions, {disagreements} disagreements",
    )


def _exact_row_sum_zero(row):
    q_total = Fraction(0)
    radical = {}
    for val in row:
        q_total += val.q
        if val.r:
            radical[val.v] = radical.get(val.v, Fraction(0)) + val.r
    return q_total == 0 and all(x == 0 for x in radical.values())


def test_criterion_4_row_sums(tables):
    exact_rows = 0
    float_rows = 0
    worst = 0.0
    ok = True
    for eid in sorted(tables):
        t = tables[eid]
        for j in range(1, t.d + 1):
            if all(v is not None for v in t.exact[j]):
                exact_rows += 1
                ok = ok and _exact_row_sum_zero(t.exact[j])
            else:
                float_rows += 1
                dev = abs(complex(t.P[j].sum()))
                worst = max(worst, dev)
                ok = ok and dev < 1e-8
    _report(
        4,
        "character-table rows j >= 1 sum to zero",
        ok,
        f"{exact_rows} rows exact, {float_rows} floating (worst {worst:.1e})",
    )


def test_criterion_5_srg_identities(catalog):
    ok = True
    for eid, union, params in (
        ("cyclo-5-2", (1,), (5, 2, 0, 1)),
        ("petersen", (1,), (10, 3, 0, 1)),
    ):
        p = srg_params_from_scheme(catalog[eid], union)
        ok = ok and (p.n, p.k, p.lam, p.mu) == params
        q = srg_eigen(*params)
        ok = ok and (q.r_exact, q.s_exact, q.m1, q.m2) == (
            p.r_exact,
            p.s_exact,
            p.m1,
            p.m2,
        )
        # exact roundtrips: lambda/mu from (k, r, s), multiplicity sum, trace
        ok = ok and lambda_from_eigen(p.k, p.r_exact, p.s_exact) == p.lam
        ok = ok and mu_from_eigen(p.k, p.r_exact, p.s_exact) == p.mu
        ok = ok and p.m1 + p.m2 == p.n - 1
        trace = (
            QuadVal.rational(p.k)
            + p.r_exact * QuadVal.rational(p.m1)
            + p.s_exact * QuadVal.rational(p.m2)
        )
        ok = ok and trace == QuadVal.rational(0)
    paley5 = srg_params_from_scheme(catalog["cyclo-5-2"], (1,))
    ok = ok and paley5.conference and paley5.m1 == paley5.m2 == 2

    blocks = catalog["wreath-k5-k2"]
    inner = srg_params_from_scheme(blocks, (1,))
    cls_in = connectivity_classification(blocks, (1,))
    three_way_in = (
        (not inner.connected)
        and inner.mu == 0
        and cls_in["components"] == 2
        and cls_in["component_sizes"] == [5, 5]
        and cls_in["clique_union_spectrum"]
        and cls_in["consistent"]
    )
    outer = srg_params_from_scheme(blocks, (2,))
    cls_out = connectivity_classification(blocks, (2,))
    three_way_out = (
        outer.connected
        and outer.mu > 0
        and cls_out["components"] == 1
        and not cls_out["clique_union_spectrum"]
        and cls_out["consistent"]
    )
    ok = ok and three_way_in and three_way_out
    _report(
        5,
        "strongly regular parameter identities",
        ok,
        "pentagon/Petersen roundtrip exact, Paley(5) conference, "
        "2xK5 disconnected iff mu=0 iff clique spectrum",
    )


def test_criterion_6_fission_prediction(catalog):
    sym_t = character_table(complete_scheme(7))
    predicted = predict_fission_table(sym_t, 1, Fraction(-7))
    rho = predicted.exact[1][1]
    ok = rho == QuadVal(Fraction(-1, 2), Fraction(1, 2), -7)
    computed = character_table(catalog["cyclo-7-2"])
    # rows in table order, the split pair either way round
    dev = min(np.abs(predicted.P - computed.P[rows]).max() for rows in ([0, 1, 2], [0, 2, 1]))
    ok = ok and dev < 1e-8
    v = check_theorem_fission(catalog["cyclo-7-2"])
    ok = ok and v.applicable and v.holds and v.evidence["a"] == "-7"
    _report(
        6,
        "tournament fission from K7 (T3.1, a = -7)",
        ok,
        f"rho = (-1+i*sqrt(7))/2, max deviation {dev:.1e}",
    )


def test_criterion_7_skew_type_classification(catalog):
    skew = {
        eid: s
        for eid, s in catalog.items()
        if s.d == 4 and s.class_kind == "skew-symmetric" and s.is_commutative
    }
    assert skew
    hist = {1: 0, 2: 0, 3: 0}
    ok = True
    for eid in sorted(skew):
        cls = classify_skew_4class(skew[eid])
        hist[cls.type] += 1
        if cls.type in (1, 2):
            ok = ok and all(v["residual"] < 1e-8 for v in cls.radicands.values())
        else:
            ok = ok and all(
                v["predicted"] is None and v["computed"] > 0
                for v in cls.radicands.values()
            )
        ok = ok and cls.formulas_ok and cls.row_sums_ok
        ok = ok and cls.properties_ok
        ok = ok and all(c == 5 for c in cls.property_unions.values())
    _report(
        7,
        "skew 4-class eigenvalue types (T4.1)",
        ok,
        f"{len(skew)} schemes, types " + "/".join(f"{t}:{c}" for t, c in hist.items()),
    )


def test_criterion_8_multiplicities_integral(tables):
    worst = 0.0
    ok = True
    for eid in sorted(tables):
        t = tables[eid]
        k = np.array(t.valencies, dtype=float)
        raw = t.n / (np.abs(t.P) ** 2 / k).sum(axis=1)
        resid = float(np.abs(raw - np.round(raw)).max())
        worst = max(worst, resid)
        rounded = np.round(raw).astype(int)
        ok = ok and resid < 1e-6
        ok = ok and int(rounded.sum()) == t.n
        ok = ok and tuple(int(m) for m in rounded) == t.multiplicities
    _report(
        8,
        "multiplicities integral and summing to n",
        ok,
        f"{len(tables)} schemes, worst residual {worst:.1e}",
    )


def test_criterion_9_catalog_determinism(tmp_path):
    f2 = tmp_path / "run_w2.jsonl"
    f3 = tmp_path / "run_w3.jsonl"
    assert main(["catalog-run", "--workers", "2", "--out", str(f2)]) == 0
    assert main(["catalog-run", "--workers", "3", "--out", str(f3)]) == 0
    b2, b3 = f2.read_bytes(), f3.read_bytes()
    records = [json.loads(ln) for ln in b2.decode().strip().split("\n")]
    ok = b2 == b3 and len(records) > 0
    ok = ok and all(r["error"] is None for r in records)
    ok = ok and not any(r["applicable"] and r["holds"] is False for r in records)
    _report(
        9,
        "catalog run byte-identical across worker counts",
        ok,
        f"{len(records)} records, {len(b2)} bytes",
    )
