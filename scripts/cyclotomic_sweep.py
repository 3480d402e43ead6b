#!/usr/bin/env python3
"""Run the full check battery over every cyclotomic scheme (q, m) with q a
prime power, q <= 257, 2 <= m <= 6 and m dividing q - 1: 174 schemes.

Run from the repository root:

    python3 scripts/cyclotomic_sweep.py

Each scheme's records get the id cyclo-<q>-<m> and are written as the
catalog's JSONL, in (q, m) order.  The script prints the number of schemes,
the number of failed or errored checks and the sha256 of that JSONL, so two
versions of the package can be compared by digest.  It takes about 4 s on
a 2-vCPU machine; tests/test_catalog.py pins its digest through sweep().
"""

import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ascheme.builders import _prime_power, build_cyclotomic  # noqa: E402
from ascheme.catalog import CHECKS, _run_checks, check_failed, records_to_jsonl  # noqa: E402
from ascheme.errors import NotPrime  # noqa: E402

MAX_Q = 257
MAX_M = 6


def sweep_params():
    """The (q, m) of the sweep, in order."""
    out = []
    for q in range(2, MAX_Q + 1):
        try:
            _prime_power(q)
        except NotPrime:
            continue
        out += [(q, m) for m in range(2, MAX_M + 1) if (q - 1) % m == 0]
    return out


def sweep():
    """(number of schemes, failed or errored checks, sha256 of the JSONL)."""
    records = []
    for q, m in sweep_params():
        s = build_cyclotomic(q, m)
        records += [{"id": f"cyclo-{q}-{m}", **rec} for rec in _run_checks(s, CHECKS)]
    bad = sum(map(check_failed, records))
    digest = hashlib.sha256(records_to_jsonl(records).encode()).hexdigest()
    return len(records) // len(CHECKS), bad, digest


def main():
    start = time.perf_counter()
    schemes, bad, digest = sweep()
    print(f"schemes {schemes}  failed {bad}  "
          f"seconds {time.perf_counter() - start:.1f}")
    print(f"sha256 {digest}")


if __name__ == "__main__":
    main()
