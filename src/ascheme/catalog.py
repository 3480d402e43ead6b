"""The catalog battery: every check on every entry of a family.

run_catalog builds each entry of one of builders.FAMILIES, the bundled
catalog by default, and runs the checks of CHECKS on it, in that order:
the axioms, the character table, fusion, amorphicity, generating unions,
SRG unions and the five theorem checks of THEOREMS.  It emits one
JSON-ready record per (entry, check); a check that raises is captured in
its record's error field.  The axioms check runs the kernel on every
entry's coloring and compares its tensor with the one the builder handed
over.

build_cyclotomic and build_product stay importable from here too, where
perfbench's ladder reads them, and so does catalog_ids, which its catalog
workload reads.
"""

import json

import numpy as np

from . import _CHECKS, fusion, generator, spectra, srg
from .builders import build_cyclotomic, build_product, catalog_ids, catalog_scheme, family_table
from .core import json_default, mask_unions, verify_axioms
from .errors import BuilderTensorMismatch, InfeasibleParameters, NotStronglyRegular
from .spectra import RESID_TOL

CHECKS = tuple(_CHECKS)

# the theorem checks by name
THEOREMS = {name: getattr(generator, fn) for name, fn in _CHECKS.items() if fn}

FUSION_ENUM_MAX_D = 5
GENERATOR_SWEEP_MAX_D = 6


def _check_axioms(s):
    """The kernel's verdict on s's coloring, its tensor checked against the builder's."""
    kernel = verify_axioms(s.color).tensor.p
    diff = np.argwhere(kernel != s.tensor.p)
    if diff.size:
        i, j, l = (int(v) for v in diff[0])
        raise BuilderTensorMismatch(i, j, l, int(s.tensor.p[i, j, l]), int(kernel[i, j, l]))
    return True, True, {
        "n": s.n,
        "d": s.d,
        "kind": s.class_kind,
        "commutative": s.is_commutative,
    }


def _check_spectra(s):
    """Each non-valency row of the table sums to 0: exactly, on the integer
    keys of spectra.block_sums, where every entry snapped, and otherwise
    within RESID_TOL.  A failing exact row reports its sum as exact_sum,
    written as its key over 4."""
    e = spectra.character_table(s)
    worst = 0.0
    exact_rows = 0
    _, keys = spectra.block_sums(e, [[range(s.d + 1)]])
    for j in range(1, s.d + 1):
        form = spectra.key_form(e.quarters[0], keys[0, j, 0])
        if form is not None:
            if form != (0, ()):
                return True, False, {"row": j, "exact_sum": f"{form} / 4"}
            exact_rows += 1
        else:
            worst = max(worst, abs(complex(e.P[j].sum())))
    holds = worst < RESID_TOL
    return True, holds, {
        "multiplicities": list(e.multiplicities),
        "exactness_rows_all_exact": exact_rows,
        "max_row_sum_residual": worst,
    }


def _check_fusion(s):
    if s.d > FUSION_ENUM_MAX_D:
        return False, None, {"reason": f"d = {s.d} exceeds enumeration bound"}
    parts = fusion.enumerate_admissible_partitions(s)
    schemes = 0
    for verdict, direct in fusion.cross_check_fusions(s, parts):
        if verdict.is_scheme != direct:
            return True, False, {
                "partition": [list(b) for b in verdict.partition],
                "bm": verdict.is_scheme,
                "direct": direct,
            }
        schemes += int(direct)
    # every partition agreed
    return True, True, {"partitions": len(parts), "agreements": len(parts), "schemes": schemes}


def _check_amorphic(s):
    if s.d > FUSION_ENUM_MAX_D:
        return False, None, {"reason": f"d = {s.d} exceeds enumeration bound"}
    am, cert = fusion.is_amorphic(s)
    ev = {"is_amorphic": am}
    if not am:
        ev["witness_partition"] = cert.get("witness")
        return True, True, ev
    ev["partitions_checked"] = cert["partitions_checked"]
    if s.class_kind == "symmetric" and s.d >= 2:
        # every 2-block fusion of an amorphic symmetric scheme is strongly regular
        checked = 0
        parts = fusion.enumerate_admissible_partitions(s)
        pairs = [blocks[1:] for blocks in parts if len(blocks) == 3]
        srg.fill_unions(s, [b for pair in pairs for b in pair])
        for pair in pairs:
            for b in pair:
                try:
                    srg.srg_params_from_scheme(s, b)
                except NotStronglyRegular:
                    return True, False, {"is_amorphic": True, "non_srg_union": list(b)}
                checked += 1
        ev["srg_unions_checked"] = checked
    if s.class_kind == "symmetric" and s.d >= 3:
        e = spectra.character_table(s)
        nf = fusion.amorphic_normal_form(e)
        # additive compatibility of the deviation pattern
        ok = True
        for i in range(1, s.d + 1):
            for j in range(1, s.d + 1):
                li = complex(nf.a[i - 1]) + complex(nf.b[j - 1])
                rj = complex(nf.a[j - 1]) + complex(nf.b[i - 1])
                if abs(li - rj) > RESID_TOL:
                    ok = False
        ev["normal_form_additive"] = ok
        if not ok:
            return True, False, ev
    return True, True, ev


def _check_generators(s):
    if s.d > GENERATOR_SWEEP_MAX_D:
        return False, None, {"reason": f"d = {s.d} exceeds sweep bound"}
    reports = generator.find_generating_unions(s)
    gen = [r for r in reports if r.generates]
    verified = all(r.witness_verified for r in gen) if s.n <= generator.WITNESS_MAX_N else None
    return True, True, {
        "unions": len(reports),
        "generating": len(gen),
        "minimal": [list(u) for u in generator.minimal_generating(reports)],
        "witnesses_verified": verified,
    }


def _check_srg(s):
    """Every proper transpose-closed union's SRG parameters and, for each
    strongly regular one, its spectrum and connectivity classification.
    The unions' fusions and closed subsets are decided in stacked batches
    first (srg.fill_unions), then the spectra of the strongly regular ones
    (srg.fill_spectra).  srg_eigen's spectrum {k^1, r^m1, s^m2}, with r
    merged into k when mu = 0, must match the union's spectrum from the
    character table within RESID_TOL: a float eigensolve of the regular
    representation, snapped, that does not read the fused tensor."""
    if s.d > GENERATOR_SWEEP_MAX_D:
        return False, None, {"reason": f"d = {s.d} exceeds sweep bound"}
    unions = [
        u for u in mask_unions(s.d) if set(u) == {s.transpose_map[i] for i in u} and len(u) != s.d
    ]
    srg.fill_unions(s, unions)
    params = {}
    for u in unions:
        try:
            params[u] = srg.srg_params_from_scheme(s, u)
        except (NotStronglyRegular, InfeasibleParameters):
            continue
    found = []
    specs = srg.fill_spectra(s, list(params)) if params else []
    for (u, p), spec in zip(params.items(), specs):
        want = [(p.k, 1), (p.r, p.m1), (p.s, p.m2)] if p.mu else [(p.k, 1 + p.m1), (p.s, p.m2)]
        if len(spec) != len(want) or any(
            m != mw or abs(z - zw) >= RESID_TOL for (z, m), (zw, mw) in zip(spec, want)
        ):
            return True, False, {"union": list(u), "reason": "spectrum differs from srg_eigen's"}
        cls = srg.connectivity_classification(s, u)
        if not cls["consistent"]:
            return True, False, {"union": list(u), "classification": cls}
        found.append({"union": list(u), "params": p.to_json()})
    return True, True, {"srg_unions": found, "non_srg_unions": len(unions) - len(params)}


_PLAIN_CHECKS = {
    "axioms": _check_axioms,
    "spectra": _check_spectra,
    "fusion": _check_fusion,
    "amorphic": _check_amorphic,
    "generators": _check_generators,
    "srg": _check_srg,
}


def _record(name, error=None):
    """The record of one check before it runs, or of one that raised."""
    return {"check": name, "applicable": None, "holds": None, "evidence": None, "error": error}


def _run_checks(s, checks):
    out = []
    for name in checks:
        rec = _record(name)
        try:
            if name in THEOREMS:
                v = THEOREMS[name](s)
                verdict = v.applicable, v.holds, v.evidence
            else:
                verdict = _PLAIN_CHECKS[name](s)
            rec["applicable"], rec["holds"], rec["evidence"] = verdict
        except Exception as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        out.append(rec)
    return out


def _run_entry(args):
    eid, checks, family = args
    try:
        s = catalog_scheme(eid, family)
    except Exception as exc:
        error = f"build failed: {type(exc).__name__}: {exc}"
        return eid, [_record(name, error) for name in checks]
    return eid, _run_checks(s, checks)


def run_catalog(entry_ids=None, checks=None, workers=1, family="catalog"):
    """Run verification checks over the entries of a family.

    family names one of builders.FAMILIES; the default is the bundled
    catalog, whose ids run in sorted order.  Returns a list of JSON-ready
    records ordered by (the family's entry order, check order), one per
    (entry, check): an entry or check named twice runs once, and ids
    outside the family come last, sorted.  Every entry is built through
    catalog_scheme.  Per-entry failures, a build that raises or an
    unknown id among them, are captured in the record's error field and
    never abort the run.  Output is byte-identical for any worker count.
    The pool has at most one worker per entry, and a run left with one
    worker runs in this process.
    """
    table = family_table(family)
    if entry_ids is None:
        ids = list(table)
    else:
        wanted = set(entry_ids)
        ids = [eid for eid in table if eid in wanted] + sorted(wanted.difference(table))
    checks = list(CHECKS) if checks is None else [c for c in CHECKS if c in checks]
    jobs = [(eid, checks, family) for eid in ids]
    workers = min(workers, len(jobs))
    if workers > 1:
        import multiprocessing as mp

        # fork keeps workers independent of __main__ and of import order
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)
        with ctx.Pool(workers) as pool:
            results = dict(pool.map(_run_entry, jobs))
    else:
        results = dict(map(_run_entry, jobs))
    records = []
    for eid in ids:
        for rec in results[eid]:
            records.append({"id": eid, **rec})
    return records


def records_to_jsonl(records):
    return "\n".join(
        json.dumps(rec, sort_keys=True, separators=(",", ":"), default=json_default)
        for rec in records
    ) + "\n"


def check_failed(rec):
    """Whether a record's check raised, or applied and does not hold."""
    return rec["error"] is not None or bool(rec["applicable"] and rec["holds"] is False)


def catalog_exit_code(records):
    """0 all pass, 1 any failed or errored check, 2 reserved for input errors."""
    return 1 if any(map(check_failed, records)) else 0
