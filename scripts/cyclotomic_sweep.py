#!/usr/bin/env python3
"""Run the full check battery over named families of cyclotomic schemes.

Families:

  cyclotomic      every (q, m) with q a prime power, q <= 257, 2 <= m <= 6
                  and m dividing q - 1: 174 schemes, about 4 s.
  nonsymmetric-4  (q, 4) for every prime power q = 5 (mod 8) with
                  257 < q <= MAX_N = 4096: 129 primes, 13^3 and 5^5, 131
                  skew-symmetric 4-class schemes, the paper's application.
                  It takes minutes, most of them in the axioms check's
                  O(n^3) kernel.

Run from the repository root, with family names to run only those:

    python3 scripts/cyclotomic_sweep.py [family ...]

Each scheme's records get the id cyclo-<q>-<m> and are written as the
catalog's JSONL, in (q, m) order.  The script prints one line per family:
its name, the number of schemes, the number of failed or errored checks,
the seconds it took and the sha256 of its JSONL, so two versions of the
package can be compared by digest.  tests/test_catalog.py pins the
cyclotomic family's digest through sweep().  A generating union with
n > generator.WITNESS_MAX_N reads witness_verified false, so the
generators records of nonsymmetric-4 read witnesses_verified null.
"""

import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ascheme.builders import _prime_power, build_cyclotomic  # noqa: E402
from ascheme.catalog import CHECKS, _run_checks, check_failed, records_to_jsonl  # noqa: E402
from ascheme.core import MAX_N  # noqa: E402
from ascheme.errors import NotPrime  # noqa: E402


def _prime_powers(lo, hi):
    """Prime powers q with lo <= q <= hi."""
    out = []
    for q in range(lo, hi + 1):
        try:
            _prime_power(q)
        except NotPrime:
            continue
        out.append(q)
    return out


def sweep_params():
    """The (q, m) of the cyclotomic family, in order."""
    return [(q, m) for q in _prime_powers(2, 257) for m in range(2, 7) if (q - 1) % m == 0]


def nonsymmetric_4_params():
    """The (q, 4) of the nonsymmetric-4 family, in order."""
    return [(q, 4) for q in _prime_powers(258, MAX_N) if q % 8 == 5]


FAMILIES = {"cyclotomic": sweep_params, "nonsymmetric-4": nonsymmetric_4_params}


def run_family(params):
    """(number of schemes, failed or errored checks, sha256 of the JSONL)."""
    records = []
    for q, m in params:
        s = build_cyclotomic(q, m)
        records += [{"id": f"cyclo-{q}-{m}", **rec} for rec in _run_checks(s, CHECKS)]
    bad = sum(map(check_failed, records))
    digest = hashlib.sha256(records_to_jsonl(records).encode()).hexdigest()
    return len(records) // len(CHECKS), bad, digest


def sweep():
    """run_family over the cyclotomic family."""
    return run_family(sweep_params())


def main(names):
    for name in names or FAMILIES:
        if name not in FAMILIES:
            sys.exit(f"unknown family {name!r}; choose from {list(FAMILIES)}")
        start = time.perf_counter()
        schemes, bad, digest = run_family(FAMILIES[name]())
        print(f"{name} schemes {schemes} failed {bad} "
              f"seconds {time.perf_counter() - start:.1f} sha256 {digest}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
