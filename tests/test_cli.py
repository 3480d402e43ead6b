import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ascheme.builders import build_cyclotomic
from ascheme.catalog import catalog_scheme
from ascheme.cli import main
from ascheme.core import MAX_D, MAX_N, emit_scheme_file, parse_scheme_file, verify_axioms

from conftest import corrupted_ladder_961

PENTAGON = """\
5 2
0 1 2 2 1
1 0 1 2 2
2 1 0 1 2
2 2 1 0 1
1 2 2 1 0
"""

BROKEN_COUNTS = """\
4 2
0 1 2 2
1 0 1 2
2 1 0 2
2 2 2 0
"""


@pytest.fixture
def pentagon_file(tmp_path):
    f = tmp_path / "pentagon.txt"
    f.write_text(PENTAGON)
    return str(f)


@pytest.fixture
def qr7_file(tmp_path):
    f = tmp_path / "qr7.txt"
    f.write_text(emit_scheme_file(catalog_scheme("cyclo-7-2")))
    return str(f)


def scheme_file(tmp_path, eid):
    f = tmp_path / f"{eid}.txt"
    f.write_text(emit_scheme_file(catalog_scheme(eid)))
    return str(f)


def test_verify_valid(pentagon_file, capsys):
    assert main(["verify", pentagon_file]) == 0
    out = capsys.readouterr().out
    assert "valid scheme: n=5 d=2 symmetric commutative" in out


def test_verify_crlf_tabs_and_comments_read_as_the_plain_file(pentagon_file, tmp_path, capsys):
    rows = PENTAGON.splitlines()
    noisy = ["# the pentagon, tab separated", "", rows[0] + "\t# n d"]
    noisy += ["\t" + row.replace(" ", " \t") + "  # row" for row in rows[1:]]
    f = tmp_path / "pentagon-crlf.txt"
    f.write_bytes(("\r\n".join(noisy) + "\r\n").encode())
    for fmt in ("text", "json"):
        assert main(["verify", pentagon_file, "--format", fmt]) == 0
        plain = capsys.readouterr().out
        assert main(["verify", str(f), "--format", fmt]) == 0
        assert capsys.readouterr().out == plain


def test_verify_json(pentagon_file, capsys):
    assert main(["verify", pentagon_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["valencies"] == [1, 2, 2]


def test_verify_axiom_violation(tmp_path, capsys):
    f = tmp_path / "broken.txt"
    f.write_text(BROKEN_COUNTS)
    assert main(["verify", str(f)]) == 1
    assert "invalid:" in capsys.readouterr().out


def test_verify_rejects_corrupted_n_961(tmp_path, capsys):
    # the scheme file holds the coloring's own labels, so the witness names
    # the classes and pairs the kernel sees
    e, d = corrupted_ladder_961()
    f = tmp_path / "corrupted.txt"
    f.write_text(f"{e.shape[0]} {d}\n" + "".join(" ".join(map(str, r)) + "\n" for r in e.tolist()))
    assert main(["verify", str(f)]) == 1
    assert capsys.readouterr().out == (
        "invalid: intersection number p[5,6]^2 not constant: "
        "pair (0, 3) gives 105, pair (0, 17) gives 104\n"
    )


def test_verify_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("2 9\n0 1\n1 0\n")
    assert main(["verify", str(f)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_size_guards_are_input_errors(tmp_path, capsys):
    """A file beyond MAX_N or MAX_D, and a scheme beyond an enumeration
    guard (cyclotomic (27, 13) has d = 13), exit 2 as input errors, with
    the guard's message."""
    for header, message in (
        (f"{MAX_N + 1} 1", f"n = {MAX_N + 1} exceeds the supported maximum {MAX_N}"),
        (f"3 {MAX_D + 1}", f"d = {MAX_D + 1} exceeds the supported maximum {MAX_D}"),
    ):
        f = tmp_path / "big.txt"
        f.write_text(header + "\n0 1 1\n1 0 1\n1 1 0\n")
        assert main(["verify", str(f)]) == 2
        assert message in capsys.readouterr().err
    f = tmp_path / "cyclo-27-13.txt"
    f.write_text(emit_scheme_file(build_cyclotomic(27, 13)))
    for command in ("amorphic", "fuse", "generators"):
        assert main([command, str(f)]) == 2
        assert "d = 13 exceeds" in capsys.readouterr().err


def test_verify_missing_file(capsys):
    assert main(["verify", "/no/such/file"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_verify_file_that_is_not_utf8(tmp_path, capsys):
    f = tmp_path / "latin1.txt"
    f.write_bytes(b"5 2\n# caf\xe9\n" + PENTAGON.encode().split(b"\n", 1)[1])
    assert main(["verify", str(f)]) == 2
    assert f"cannot read {f}" in capsys.readouterr().err


def test_verify_out_that_cannot_be_opened(pentagon_file, tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    assert main(["verify", pentagon_file, "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}")


def test_catalog_run_out_that_cannot_be_opened(tmp_path, capsys):
    target = tmp_path / "missing" / "out.jsonl"
    argv = ["catalog-run", "--ids", "cyclo-5-2", "--checks", "axioms", "--out", str(target)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}")


def test_spectrum_text(pentagon_file, capsys):
    assert main(["spectrum", pentagon_file]) == 0
    out = capsys.readouterr().out
    assert "character table (n=5, d=2)" in out
    assert "m=2" in out and "quadratic-exact" in out


def test_spectrum_json_and_flag_positions(pentagon_file, capsys):
    assert main(["--format", "json", "spectrum", pentagon_file]) == 0
    first = capsys.readouterr().out
    assert main(["spectrum", pentagon_file, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["multiplicities"] == [1, 2, 2]
    assert len(payload["P"]) == 9


def test_spectrum_seed_precision_flags(pentagon_file, capsys):
    """Neither --seed nor --precision is a flag: the table has one float64
    path with fixed draws, and the parser rejects both with exit code 2."""
    for flag in (["--seed", "7"], ["--precision", "128"]):
        for argv in (["spectrum", pentagon_file, *flag], [*flag, "spectrum", pentagon_file]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
    assert main(["spectrum", pentagon_file]) == 0
    assert "character table" in capsys.readouterr().out


def test_fuse_single_partition(pentagon_file, capsys):
    assert main(["fuse", pentagon_file, "--partition", "0|1,2"]) == 0
    out = capsys.readouterr().out
    assert "scheme" in out and "DISAGREEMENT" not in out


def test_fuse_all_partitions(tmp_path, capsys):
    f = scheme_file(tmp_path, "cyclo-13-4")
    assert main(["fuse", f, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 7
    assert all(rec["direct_agrees"] for rec in payload)
    fused = [rec for rec in payload if rec["is_scheme"]]
    assert all(rec["dual"][0] == [0] for rec in fused)


def test_fuse_bad_partition(pentagon_file, capsys):
    # a block that joins 0 to a class, overlapping blocks, a missing class
    # or one out of range is an input error (2), not a "no" verdict (1)
    for partition in ("0|x", "0,1|2", "0|1,2|2", "1", "0|1,2,3"):
        assert main(["fuse", pentagon_file, "--partition", partition]) == 2
        assert "bad partition" in capsys.readouterr().err


def test_amorphic_yes(tmp_path, capsys):
    f = scheme_file(tmp_path, "direct-k3-k3")
    assert main(["amorphic", f]) == 0
    assert "amorphic (5 partitions)" in capsys.readouterr().out


def test_amorphic_no(tmp_path, capsys):
    f = scheme_file(tmp_path, "cyclo-17-4")
    assert main(["amorphic", f]) == 1
    out = capsys.readouterr().out
    assert "not amorphic" in out and "witness" in out


def test_generators_all(qr7_file, capsys):
    assert main(["generators", qr7_file]) == 0
    out = capsys.readouterr().out
    assert "union [1]: 3 distinct eigenvalues, rank 3; generates" in out
    assert "union [1, 2]: 2 distinct eigenvalues, rank 2; does not generate" in out


def test_generators_single_union_exit_codes(qr7_file, capsys):
    assert main(["generators", qr7_file, "--union", "1"]) == 0
    capsys.readouterr()
    assert main(["generators", qr7_file, "--union", "1,2"]) == 1
    capsys.readouterr()
    for union in ("x", "7", "0,1"):
        assert main(["generators", qr7_file, "--union", union]) == 2
        assert "bad union" in capsys.readouterr().err


def test_generators_json_witness(qr7_file, capsys):
    assert main(["generators", qr7_file, "--union", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["witness"][2] == ["0", "-1/2", "1/2"]
    assert payload[0]["witness_verified"] is True


def test_theorems_all(qr7_file, capsys):
    assert main(["theorems", qr7_file]) == 0
    out = capsys.readouterr().out
    assert "T1.2: holds" in out
    assert "T1.3: holds" in out
    assert "T3.1: holds" in out
    assert "T1.4: not applicable" in out
    assert "T4.1: not applicable" in out


def test_theorems_single(tmp_path, capsys):
    f = scheme_file(tmp_path, "cyclo-13-4")
    assert main(["theorems", f, "--theorem", "T1.4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["theorem"] == "T1.4" and payload[0]["holds"] is True


def test_catalog_run_subset(capsys):
    assert main(["catalog-run", "--ids", "cyclo-5-2", "--checks", "axioms", "srg"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    recs = [json.loads(ln) for ln in lines]
    assert [r["check"] for r in recs] == ["axioms", "srg"]
    assert all(r["id"] == "cyclo-5-2" for r in recs)


def test_catalog_run_repeated_id_runs_once(capsys):
    assert main(["catalog-run", "--ids", "cyclo-7-2"]) == 0
    once = capsys.readouterr().out
    assert main(["catalog-run", "--ids", "cyclo-7-2", "cyclo-7-2"]) == 0
    assert capsys.readouterr().out == once


def test_catalog_run_unknown_inputs(capsys):
    assert main(["catalog-run", "--ids", "nope"]) == 2
    assert "unknown catalog ids" in capsys.readouterr().err
    assert main(["catalog-run", "--checks", "nope"]) == 2
    assert "unknown checks" in capsys.readouterr().err


def test_catalog_run_unknown_family_or_id_outside_it(capsys, monkeypatch):
    from ascheme import catalog

    monkeypatch.setattr(catalog, "run_catalog", None)  # nothing may run
    assert main(["catalog-run", "--family", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown family 'nope'" in err
    assert all(name in err for name in ("catalog", "cyclotomic", "nonsymmetric-4"))
    assert main(["catalog-run", "--family", "nonsymmetric-4", "--ids", "cyclo-5-2"]) == 2
    assert "unknown nonsymmetric-4 ids: ['cyclo-5-2']" in capsys.readouterr().err
    assert main(["catalog-run", "--family", "cyclotomic", "--ids", "petersen"]) == 2
    assert "unknown cyclotomic ids: ['petersen']" in capsys.readouterr().err


def test_catalog_run_family_entry_matches_the_catalog_entry(tmp_path):
    """cyclo-5-2 is in the catalog and in the cyclotomic family, and both
    runs write the same bytes."""
    fam = tmp_path / "family.jsonl"
    cat = tmp_path / "catalog.jsonl"
    argv = ["catalog-run", "--ids", "cyclo-5-2", "--checks", "axioms"]
    assert main([*argv, "--family", "cyclotomic", "--out", str(fam)]) == 0
    assert main([*argv, "--out", str(cat)]) == 0
    assert fam.read_bytes() == cat.read_bytes()


def test_catalog_run_rejects_fewer_than_one_worker(capsys, monkeypatch):
    from ascheme import catalog

    monkeypatch.setattr(catalog, "run_catalog", None)  # nothing may run
    for n in ("0", "-3"):
        assert main(["catalog-run", "--ids", "cyclo-5-2", "--workers", n]) == 2
        assert "--workers must be at least 1" in capsys.readouterr().err


def test_catalog_run_out_and_workers(tmp_path, capsys):
    f1 = tmp_path / "one.jsonl"
    f2 = tmp_path / "two.jsonl"
    ids = ["cyclo-5-2", "cyclo-7-2", "schurian-z4"]
    assert main(["catalog-run", "--ids", *ids, "--out", str(f1)]) == 0
    assert main(["catalog-run", "--ids", *ids, "--workers", "2", "--out", str(f2)]) == 0
    assert capsys.readouterr().out == ""
    assert f1.read_bytes() == f2.read_bytes()


def test_build_complete(capsys):
    assert main(["build", "complete:6"]) == 0
    s = verify_axioms(parse_scheme_file(capsys.readouterr().out))
    assert s.n == 6 and s.d == 1


def test_build_cyclotomic_matches_catalog(capsys):
    assert main(["build", "cyclotomic:7,2"]) == 0
    via_param = capsys.readouterr().out
    assert main(["build", "cyclo-7-2"]) == 0
    via_id = capsys.readouterr().out
    assert via_param == via_id


def test_build_to_file(tmp_path, capsys):
    out = tmp_path / "scheme.txt"
    assert main(["build", "petersen", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    s = verify_axioms(parse_scheme_file(out.read_text()))
    assert s.valencies == (1, 3, 6)


def test_build_errors(capsys):
    assert main(["build", "nonsense"]) == 2
    assert "unknown build spec" in capsys.readouterr().err
    assert main(["build", "cyclotomic:6,5"]) == 2
    assert "build failed" in capsys.readouterr().err
    assert main(["build", "complete:1"]) == 2
    capsys.readouterr()


def test_spectrum_out_flag(pentagon_file, tmp_path, capsys):
    target = tmp_path / "table.json"
    assert main(["spectrum", pentagon_file, "--format", "json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["multiplicities"] == [1, 2, 2]


def test_console_script_installed(pentagon_file):
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from ascheme.cli import main; sys.exit(main(sys.argv[1:]))",
         "verify", pentagon_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "valid scheme" in proc.stdout


def test_cli_import_loads_no_heavy_dependencies():
    """One-shot commands pay for every module `import ascheme.cli` loads;
    scipy, sympy, numba and mpmath have no place there."""
    import ascheme

    env = dict(os.environ, PYTHONPATH=str(Path(ascheme.__file__).parents[1]))
    code = "import sys, ascheme.cli; print(*{m.split('.')[0] for m in sys.modules})"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "ascheme" in loaded and "numpy" in loaded
    assert not loaded & {"scipy", "sympy", "numba", "mpmath"}


# A one-shot launch as the `ascheme` console script makes it; the ascheme
# modules it loaded go to the last line of stderr.
_FOOTPRINT = (
    "import sys\n"
    "from ascheme.cli import main\n"
    "code = main()\n"
    "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'ascheme'), file=sys.stderr)\n"
    "sys.exit(code)\n"
)
VERIFY_MODULES = {"ascheme", "ascheme.cli", "ascheme.core", "ascheme._kernels", "ascheme.errors"}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["verify", "FILE"], VERIFY_MODULES),
        (["verify", "FILE", "--format", "json"], VERIFY_MODULES),
        (["build", "cyclo-13-4"], VERIFY_MODULES | {"ascheme.builders", "ascheme.finitefield"}),
    ],
)
def test_one_shot_launch_loads_only_the_modules_it_runs(argv, loaded, pentagon_file):
    """verify needs the parser, the axiom kernel and the errors; build adds
    the builders and GF(q).  No decider, catalog battery or exact
    arithmetic is imported or compiled for them."""
    import ascheme

    env = dict(os.environ, PYTHONPATH=str(Path(ascheme.__file__).parents[1]))
    argv = [pentagon_file if a == "FILE" else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stderr.splitlines()[-1].split()) == loaded


def test_check_names_have_one_source(capsys):
    """The --theorem choices, the --checks help, catalog.CHECKS and
    catalog.THEOREMS agree, and each theorem check is decided by the
    generator function whose verdict carries its name."""
    from ascheme import catalog, generator

    theorems = [c for c in catalog.CHECKS if c in catalog.THEOREMS]
    assert list(catalog.THEOREMS) == theorems == ["T1.2", "T1.3", "T1.4", "T3.1", "T4.1"]
    assert set(catalog.CHECKS) - set(theorems) == set(catalog._PLAIN_CHECKS)
    s = catalog_scheme("cyclo-13-4")
    for name, decide in catalog.THEOREMS.items():
        assert getattr(generator, decide.__name__) is decide
        assert decide(s).theorem_id == name
    with pytest.raises(SystemExit):
        main(["theorems", "--help"])
    assert "--theorem {" + ",".join(sorted(theorems)) + "}" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["catalog-run", "--help"])
    assert f"subset of {list(catalog.CHECKS)}" in " ".join(capsys.readouterr().out.split())


def test_parse_loads_no_numpy_ma(pentagon_file):
    """numpy.ma costs a one-shot launch about 15 ms; parsing and
    validating a scheme file must not pull it in."""
    import ascheme

    env = dict(os.environ, PYTHONPATH=str(Path(ascheme.__file__).parents[1]))
    code = (
        "import sys, pathlib, ascheme.cli; from ascheme.core import parse_scheme_file; "
        "parse_scheme_file(pathlib.Path(sys.argv[1]).read_text()); "
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, pentagon_file],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
