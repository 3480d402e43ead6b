"""Command-line interface.

Exit codes: 0 for success (and all-pass batch runs), 1 for a negative
analysis verdict (axiom violation, failed theorem, failed batch check),
2 for input errors (unreadable files, malformed scheme data, bad
arguments, and a scheme beyond a size or class-count guard: TooLarge,
TooManyClasses).

Each command imports the modules it runs inside its function, so a
one-shot `verify` loads only core (with _kernels) and errors, and `build`
adds builders and finitefield.  The check names for the parser come from
the package root's table, not from generator.
"""

import argparse
import json
import sys

from . import _CHECKS
from .core import (
    canonical_partition,
    emit_scheme_file,
    json_default,
    parse_scheme_file,
    union_classes,
    verify_axioms,
)
from .errors import AxiomViolation, ParseError, SchemeError, TooLarge, TooManyClasses

_THEOREMS = [name for name, fn in _CHECKS.items() if fn]


class _InputError(Exception):
    """Bad file or argument; maps to exit code 2."""


def _load_color(path):
    """The parsed color matrix of a scheme file; main maps a read failure,
    text that is not UTF-8 among them, and a ParseError to exit code 2."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    return parse_scheme_file(text)


def _load_scheme(path):
    return verify_axioms(_load_color(path))


def _fail(msg, code):
    print(f"error: {msg}", file=sys.stderr)
    return code


def _emit(payload, args, text_render):
    if args.format == "json":
        out = json.dumps(payload, indent=2, sort_keys=True, default=json_default) + "\n"
    else:
        out = text_render(payload)
    _write(out, args)


def _write(out, args):
    """out to the --out file, else to stdout; main maps a file that cannot
    be written to exit code 2."""
    if not args.out:
        sys.stdout.write(out)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(out)
    except OSError as exc:
        raise _InputError(f"cannot write {args.out}: {exc}")


def _parse_union(text, d):
    try:
        return union_classes(d, (int(t) for t in text.split(",") if t.strip()))
    except ValueError as exc:
        raise _InputError(f"bad union {text!r}; expected e.g. '1,3' ({exc})")


def _parse_partition(text, d):
    try:
        return canonical_partition(
            [[int(t) for t in blk.split(",") if t.strip()] for blk in text.split("|")], d
        )
    except ValueError as exc:
        raise _InputError(f"bad partition {text!r}; expected e.g. '0|1,2|3' ({exc})")


def cmd_verify(args):
    color = _load_color(args.scheme)
    try:
        s = verify_axioms(color)
    except AxiomViolation as exc:
        payload = {"valid": False, "violation": str(exc)}
        _emit(payload, args, lambda p: f"invalid: {p['violation']}\n")
        return 1
    payload = {
        "valid": True,
        "n": s.n,
        "d": s.d,
        "kind": s.class_kind,
        "commutative": s.is_commutative,
        "valencies": list(s.valencies),
    }
    _emit(
        payload,
        args,
        lambda p: (
            f"valid scheme: n={p['n']} d={p['d']} {p['kind']}"
            f"{' commutative' if p['commutative'] else ' NON-commutative'}\n"
            f"valencies: {p['valencies']}\n"
        ),
    )
    return 0


def _render_table(e):
    lines = [f"character table (n={e.n}, d={e.d}), row: eigenvalues, m=multiplicity"]
    tags = e.exactness()
    for j in range(e.d + 1):
        vals = []
        for i in range(e.d + 1):
            z = e.P[j, i]
            if abs(z.imag) < 1e-12:
                vals.append(f"{z.real:.6g}")
            else:
                vals.append(f"{z.real:.6g}{z.imag:+.6g}i")
        lines.append(f"  [{', '.join(vals)}]  m={e.multiplicities[j]}")
    lines.append(f"exactness: {tags}")
    return "\n".join(lines) + "\n"


def cmd_spectrum(args):
    from .spectra import character_table

    s = _load_scheme(args.scheme)
    e = character_table(s)
    _emit(e.to_json(), args, lambda p: _render_table(e))
    return 0


def cmd_fuse(args):
    from .fusion import cross_check_fusions, enumerate_admissible_partitions

    s = _load_scheme(args.scheme)
    if args.partition:
        partitions = [_parse_partition(args.partition, s.d)]
    else:
        partitions = enumerate_admissible_partitions(s)
    payload = []
    for verdict, direct in cross_check_fusions(s, partitions):
        rec = verdict.to_json()
        rec["direct_agrees"] = direct == verdict.is_scheme
        payload.append(rec)
    def render(p):
        lines = []
        for rec in p:
            mark = "scheme" if rec["is_scheme"] else "not a scheme"
            agree = "" if rec["direct_agrees"] else "  [ORACLE DISAGREEMENT]"
            lines.append(f"{rec['partition']}: {mark}{agree}")
        return "\n".join(lines) + "\n"
    _emit(payload, args, render)
    if any(not rec["direct_agrees"] for rec in payload):
        return 1
    return 0


def cmd_amorphic(args):
    from .fusion import is_amorphic

    s = _load_scheme(args.scheme)
    am, cert = is_amorphic(s)
    payload = {"is_amorphic": am, **cert}
    _emit(
        payload,
        args,
        lambda p: (f"amorphic ({p['partitions_checked']} partitions)\n" if am
                   else f"not amorphic; witness: {p.get('witness')}\n"),
    )
    return 0 if am else 1


def cmd_generators(args):
    from .generator import find_generating_unions, generates

    s = _load_scheme(args.scheme)
    if args.union:
        reports = [generates(s, _parse_union(args.union, s.d))]
    else:
        reports = find_generating_unions(s)
    payload = [r.to_json() for r in reports]
    def render(p):
        lines = []
        for r in p:
            mark = "generates" if r["generates"] else "does not generate"
            lines.append(
                f"union {r['union']}: {r['eigen_count']} distinct eigenvalues, "
                f"rank {r['span_rank']}; {mark}"
            )
        return "\n".join(lines) + "\n"
    _emit(payload, args, render)
    if args.union and not reports[0].generates:
        return 1
    return 0


def cmd_theorems(args):
    from . import generator

    s = _load_scheme(args.scheme)
    names = [args.theorem] if args.theorem else _THEOREMS
    verdicts = [getattr(generator, _CHECKS[t])(s) for t in names]
    payload = [v.to_json() for v in verdicts]
    def render(p):
        lines = []
        for v in p:
            if not v["applicable"]:
                lines.append(f"{v['theorem']}: not applicable ({v['evidence'].get('reason')})")
            else:
                lines.append(f"{v['theorem']}: {'holds' if v['holds'] else 'FAILS'}")
        return "\n".join(lines) + "\n"
    _emit(payload, args, render)
    if any(v.applicable and not v.holds for v in verdicts):
        return 1
    return 0


def cmd_catalog_run(args):
    """The battery over one family's entries, --ids among them, as JSONL.

    --family, --ids, --checks and --workers are checked here, not by the
    parser, which imports no builder; a bad one exits 2 before any build.
    """
    from . import catalog as cat

    if args.workers < 1:
        return _fail(f"--workers must be at least 1, got {args.workers}", code=2)
    try:
        known = cat.family_table(args.family)
    except KeyError as exc:
        return _fail(exc.args[0], code=2)
    ids = args.ids if args.ids else None
    if ids:
        bad = [i for i in ids if i not in known]
        if bad:
            return _fail(f"unknown {args.family} ids: {bad}", code=2)
    checks = args.checks if args.checks else None
    if checks:
        bad = [c for c in checks if c not in cat.CHECKS]
        if bad:
            return _fail(f"unknown checks: {bad}; available: {list(cat.CHECKS)}", code=2)
    records = cat.run_catalog(ids, checks, args.workers, args.family)
    _write(cat.records_to_jsonl(records), args)
    return cat.catalog_exit_code(records)


def cmd_build(args):
    from . import builders

    spec = args.spec
    try:
        if spec in builders.catalog_ids():
            s = builders.catalog_scheme(spec)
        elif spec.startswith("cyclotomic:"):
            q, m = (int(t) for t in spec.split(":", 1)[1].split(","))
            s = builders.build_cyclotomic(q, m)
        elif spec.startswith("complete:"):
            s = builders.complete_scheme(int(spec.split(":", 1)[1]))
        else:
            return _fail(
                f"unknown build spec {spec!r}; use a catalog id, "
                "'cyclotomic:q,m', or 'complete:n'",
                code=2,
            )
    except (SchemeError, ValueError) as exc:
        return _fail(f"build failed: {exc}", code=2)
    _write(emit_scheme_file(s), args)
    return 0


def _global_flags(parser, suppress):
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument(
        "--format", choices=("json", "text"),
        **(kw if suppress else {"default": "text"}),
    )
    parser.add_argument("--out", **(kw if suppress else {"default": None}))


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="ascheme",
        description="Exact analysis of commutative association schemes",
    )
    _global_flags(ap, suppress=False)
    # the same flags are accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    _global_flags(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the scheme axioms on a file", parents=[common])
    p.add_argument("scheme")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="character table and multiplicities", parents=[common])
    p.add_argument("scheme")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fuse", help="fusion verdicts (spectral and direct)", parents=[common])
    p.add_argument("scheme")
    p.add_argument("--partition", help="blocks like '0|1,2|3'; default: all admissible")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("amorphic", help="decide amorphicity by exhaustive fusion", parents=[common])
    p.add_argument("scheme")
    p.set_defaults(func=cmd_amorphic)

    p = sub.add_parser("generators", help="which unions generate the algebra", parents=[common])
    p.add_argument("scheme")
    p.add_argument("--union", help="single union like '1,3'; default: all")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("theorems", help="run the structural theorem checks", parents=[common])
    p.add_argument("scheme")
    p.add_argument("--theorem", choices=sorted(_THEOREMS))
    p.set_defaults(func=cmd_theorems)

    p = sub.add_parser("catalog-run", help="batch checks over a family of schemes", parents=[common])
    p.add_argument("--family", default="catalog", help="default: the bundled catalog")
    p.add_argument("--ids", nargs="*", help="subset of the family's ids")
    p.add_argument("--checks", nargs="*", help=f"subset of {list(_CHECKS)}")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_catalog_run)

    p = sub.add_parser("build", help="emit a catalog or parametrized scheme file", parents=[common])
    p.add_argument("spec", help="catalog id, 'cyclotomic:q,m', or 'complete:n'")
    p.set_defaults(func=cmd_build)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        return _fail(str(exc), code=2)
    except ParseError as exc:
        return _fail(f"parse error: {exc}", code=2)
    except (TooLarge, TooManyClasses) as exc:
        return _fail(str(exc), code=2)
    except SchemeError as exc:
        return _fail(str(exc), code=1)


if __name__ == "__main__":
    sys.exit(main())
