import ast
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascheme import core, generator
from ascheme.catalog import CHECKS, _run_checks, build_cyclotomic, catalog_scheme
from ascheme.core import (
    canonical_form,
    emit_scheme_file,
    merge_classes,
    parse_scheme_file,
    relabel_classes,
    scheme_from_entries,
    symmetrize,
    verify_axioms,
)
from ascheme.errors import (
    InconsistentIntersectionNumber,
    MalformedHeader,
    MissingRelationIndex,
    NonSquareBody,
    NonzeroDiagonal,
    OutOfRangeEntry,
    TransposeNotRelation,
)

from conftest import adjacency, compile_stripped

PENTAGON = """\
5 2
0 1 2 2 1
1 0 1 2 2
2 1 0 1 2
2 2 1 0 1
1 2 2 1 0
"""


def test_parse_and_verify_pentagon():
    s = verify_axioms(parse_scheme_file(PENTAGON))
    assert s.n == 5 and s.d == 2
    assert s.valencies == (1, 2, 2)
    assert s.class_kind == "symmetric"
    assert s.is_commutative
    assert s.tensor.p[1, 1, 2] == 1  # neighbors of a non-edge pair


def test_parse_comments_and_blank_lines():
    text = "# pentagon\n\n5 2  # header\n" + "\n".join(
        line + " # row" for line in PENTAGON.splitlines()[1:]
    )
    s = verify_axioms(parse_scheme_file(text))
    assert s.n == 5


def test_parse_errors_carry_line_numbers():
    with pytest.raises(MalformedHeader):
        parse_scheme_file("")
    with pytest.raises(MalformedHeader):
        parse_scheme_file("5\n")
    with pytest.raises(NonSquareBody) as ei:
        parse_scheme_file("2 1\n0 1\n")
    assert ei.value.line is not None
    with pytest.raises(NonSquareBody):
        parse_scheme_file("2 1\n0 1 1\n1 0\n")
    with pytest.raises(OutOfRangeEntry):
        parse_scheme_file("2 1\n0 7\n1 0\n")
    with pytest.raises(NonzeroDiagonal):
        parse_scheme_file("2 1\n1 1\n1 0\n")
    # class 0 off the diagonal is out of range too
    with pytest.raises(OutOfRangeEntry):
        parse_scheme_file("3 2\n0 1 2\n1 0 0\n2 0 0\n")
    # a declared class never occurs
    with pytest.raises(MissingRelationIndex):
        parse_scheme_file("2 2\n0 1\n1 0\n")


def test_axiom_violation_inconsistent_counts():
    # class 1 is a path, not a regular relation
    text = "4 2\n0 1 2 2\n1 0 1 2\n2 1 0 2\n2 2 2 0\n"
    with pytest.raises(InconsistentIntersectionNumber):
        verify_axioms(parse_scheme_file(text))


def test_axiom_violation_transpose_mixed():
    # color 1 holds (0,1) and the symmetric pair (0,2)/(2,0): transpose of
    # class 1 meets both classes
    text = "3 2\n0 1 1\n2 0 1\n1 2 0\n"
    with pytest.raises(TransposeNotRelation):
        verify_axioms(parse_scheme_file(text))


def test_emit_roundtrip_is_stable():
    s = verify_axioms(parse_scheme_file(PENTAGON))
    text = emit_scheme_file(s)
    s2 = verify_axioms(parse_scheme_file(text))
    assert emit_scheme_file(s2) == text
    assert (s2.color.entries == canonical_form(s)[0].color.entries).all()


def test_scheme_from_entries_z4():
    e = np.array([[(j - i) % 4 for j in range(4)] for i in range(4)])
    s = scheme_from_entries(e)
    assert s.d == 3
    assert s.valencies == (1, 1, 1, 1)
    assert s.transpose_map == (0, 3, 2, 1)


def test_relabel_classes_roundtrip():
    s = catalog_scheme("cyclo-13-4")
    perm = (0, 3, 4, 1, 2)
    t = relabel_classes(s, perm)
    assert t.valencies == tuple(np.array(s.valencies)[np.argsort(perm)])
    inv = tuple(int(np.argsort(perm)[i]) for i in range(5))
    back = relabel_classes(t, inv)
    assert (back.color.entries == s.color.entries).all()
    assert back.tensor.p.tolist() == s.tensor.p.tolist()


def test_canonical_form_idempotent(catalog):
    for eid in ("cyclo-13-4", "schurian-z4", "wreath-qr3-qr3", "petersen"):
        s = catalog[eid]
        c1, _ = canonical_form(s)
        c2, perm = canonical_form(c1)
        assert perm == tuple(range(s.d + 1))
        assert (c1.color.entries == c2.color.entries).all()


def test_canonical_order_puts_transpose_pairs_adjacent(catalog):
    for eid, s in catalog.items():
        for i, j in s.transpose_pairs:
            assert j == i + 1, (eid, i, j)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**32 - 1), st.integers(0, 200))
def test_min_row_matches_the_bytes_loop(n, seed, shared):
    # rows that agree on a long prefix, and equal rows, make the word-wise
    # narrowing run past the first word and end with ties
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < 0.3
    mask[:, : min(shared, n)] = mask[0, : min(shared, n)]
    mask[n // 2] = mask[0]
    assert core._min_row(mask) == min(mask[r].tobytes() for r in range(n))


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(1, 5))))
def test_canonical_form_is_labeling_invariant(perm):
    s = catalog_scheme("cyclo-13-4")
    t = relabel_classes(s, (0,) + tuple(perm))
    c_s = canonical_form(s)[0]
    c_t = canonical_form(t)[0]
    assert (c_s.color.entries == c_t.color.entries).all()


def test_merge_classes_total_fusion_is_complete():
    s = verify_axioms(parse_scheme_file(PENTAGON))
    color = merge_classes(s, [[0], [1, 2]])
    k5 = verify_axioms(color)
    assert k5.d == 1 and k5.valencies == (1, 4)


@pytest.mark.parametrize(
    "blocks",
    [
        [[0], [1, 2], [2, 3, 4]],  # overlapping blocks
        [[0, 1], [2, 3, 4]],  # 0 joined to a class
        [[0], [1, 2], [3]],  # class 4 missing
    ],
)
def test_merge_and_fuse_classes_reject_non_partitions(blocks):
    s = catalog_scheme("cyclo-13-4")
    for merge in (core.merge_classes, core.fuse_classes):
        with pytest.raises(ValueError, match="partition 0..4"):
            merge(s, blocks)


def test_derived_fields_match_the_coloring(catalog):
    """transpose_map, valencies and symmetric, read off the l = 0 slice of
    p, equal counts on the coloring, for every catalog scheme and its
    symmetrization: row 0's color histogram, the color of (y, x) at each
    class's first arc (x, y), and whether a class equals its transpose."""
    checked = 0
    for s in catalog.values():
        for t in {id(s): s, id(sym := symmetrize(s)[0]): sym}.values():
            e = t.color.entries
            classes = range(t.d + 1)
            assert t.valencies == tuple(np.bincount(e[0], minlength=t.d + 1).tolist())
            first = [divmod(int(np.argmax(e == i)), t.n) for i in classes]
            assert t.transpose_map == tuple(int(e[y, x]) for x, y in first)
            assert t.symmetric == tuple(bool(((e == i) == (e == i).T).all()) for i in classes)
            checked += 1
    assert checked == 45 + 22  # the schemes and the nonsymmetric ones' symmetrizations


def test_symmetrize_symmetric_scheme_is_identity():
    s = verify_axioms(parse_scheme_file(PENTAGON))
    sym, corr = symmetrize(s)
    assert corr == (0, 1, 2)
    assert sym is s


def test_symmetrize_pairs_collapse(catalog):
    x = catalog["cyclo-7-2"]
    sym, corr = symmetrize(x)
    assert sym.d == 1 and sym.n == 7  # tournament symmetrizes to K_7
    assert corr[1] == corr[2] == 1
    x = catalog["cyclo-13-4"]
    sym, corr = symmetrize(x)
    assert sym.d == 2
    assert corr[1] == corr[2] and corr[3] == corr[4] and corr[1] != corr[3]


def test_higman_small_class_count_is_commutative(catalog):
    # every scheme here with at most four classes must come out commutative
    for eid, s in catalog.items():
        if s.d <= 4:
            assert s.is_commutative, eid


def test_adjacency_union():
    s = verify_axioms(parse_scheme_file(PENTAGON))
    A1 = adjacency(s, 1)
    A12 = adjacency(s, (1, 2))
    assert A1.sum() == 10
    assert (A12 == 1 - np.eye(5, dtype=np.int64)).all()


# --- the memo of derived objects ---------------------------------------------


def test_memo_keys_on_normalized_arguments():
    s = catalog_scheme("cyclo-13-4")
    assert symmetrize(s) is symmetrize(s)
    assert generator.generates(s, (3, 1)) is generator.generates(s, [1, 3, 1])
    # a symmetric scheme's symmetrization is the scheme itself, kept out
    # of its own memo
    p = catalog_scheme("petersen")
    assert symmetrize(p)[0] is p and not p._memo


def test_memo_keys_on_the_function_not_its_name():
    s = catalog_scheme("cyclo-13-4")
    stripped = compile_stripped(generator)
    ours, theirs = generator.generates(s, (1,)), stripped.generates(s, (1,))
    assert ours is not theirs and ours.to_json() == theirs.to_json()
    assert len(s._memo) == 2


@pytest.mark.parametrize("eid", ["cyclo-13-4", "schurian-z8-m3", "petersen"])
def test_memo_frees_a_scheme_by_refcount(eid):
    """No memo entry refers to its own scheme, so a scheme whose memo the
    whole battery filled is freed, with its symmetrization, as soon as the
    last reference goes, with the cycle collector off."""
    gc.collect()
    gc.disable()
    try:
        s = catalog_scheme(eid)
        _run_checks(s, CHECKS)
        assert s._memo
        refs = [weakref.ref(s), weakref.ref(symmetrize(s)[0])]
        del s
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_package_has_no_assert_statement():
    """Runtime invariants are typed errors: python -O strips assert
    statements, so none may guard anything in the package."""
    package = Path(core.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(package.glob("*.py"))) >= 10
    assert found == []


def test_package_does_not_import_mpmath():
    """numpy is the one runtime dependency: no module of the package
    imports mpmath, at the top or inside a function."""
    package = Path(core.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "mpmath"]
    assert len(list(package.glob("*.py"))) >= 10
    assert found == []
