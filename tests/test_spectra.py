import ast
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from ascheme import spectra
from ascheme.catalog import build_cyclotomic, catalog_scheme
from ascheme.core import scheme_from_entries, symmetrize
from ascheme.errors import (
    MultiplicityNotIntegral,
    MultiplicitySumMismatch,
    NonCommutative,
    NormalFormUnreachable,
    NotPrime,
    ToleranceAmbiguity,
)
from ascheme.exact import QuadVal
from ascheme.fusion import amorphic_normal_form, idempotent_matching, symmetrization_row_map
from ascheme.spectra import (
    EigenTable,
    character_table,
    distinct_eigenvalue_count,
    intersection_matrices,
    multiplicities,
    union_spectrum,
)

from conftest import (
    compile_stripped,
    reference_eigenrows_mp,
    reference_row_map,
    reference_skew_split,
    reference_union_spectrum,
    reference_vote_perms,
)

SQRT5 = math.sqrt(5.0)
SQRT7 = math.sqrt(7.0)


def two_blocks_k5():
    """Group-divisible scheme on 2 x K_5: class 1 within blocks, 2 across."""
    e = np.zeros((10, 10), dtype=np.int64)
    for x in range(10):
        for y in range(10):
            if x != y:
                e[x, y] = 1 if x // 5 == y // 5 else 2
    return scheme_from_entries(e)


def test_intersection_matrices_pentagon():
    s = catalog_scheme("cyclo-5-2")
    B = intersection_matrices(s)
    assert B[0].tolist() == np.eye(3, dtype=np.int64).tolist()
    assert B[1].tolist() == [[0, 2, 0], [1, 0, 1], [0, 1, 1]]
    # sum rule: sum_i B_i has constant row sums n
    assert (sum(B).sum(axis=1) == 5).all()


def test_pentagon_table_golden():
    e = character_table(catalog_scheme("cyclo-5-2"))
    assert e.multiplicities == (1, 2, 2)
    expect = np.array(
        [
            [1, 2, 2],
            [1, (-1 + SQRT5) / 2, (-1 - SQRT5) / 2],
            [1, (-1 - SQRT5) / 2, (-1 + SQRT5) / 2],
        ]
    )
    assert np.abs(e.P - expect).max() < 1e-12
    assert e.exact[1][1] == QuadVal(Fraction(-1, 2), Fraction(1, 2), 5)
    assert set(e.exactness()) == {"rational-exact", "quadratic-exact"}


def test_petersen_table_golden():
    e = character_table(catalog_scheme("petersen"))
    assert e.multiplicities == (1, 5, 4)
    expect = np.array([[1, 3, 6], [1, 1, -2], [1, -2, 1]], dtype=np.float64)
    assert np.abs(e.P - expect).max() < 1e-12
    assert all(v is not None and v.is_rational for row in e.exact for v in row)


def test_qr7_table_golden():
    e = character_table(catalog_scheme("cyclo-7-2"))
    assert e.multiplicities == (1, 3, 3)
    rho = QuadVal(Fraction(-1, 2), Fraction(1, 2), -7)
    assert e.exact[1][1] == rho
    assert e.exact[2][1] == rho.conjugate()
    assert abs(complex(e.P[1, 1]) - (-1 + 1j * SQRT7) / 2) < 1e-12


def test_unsnapped_entries_stay_floating():
    # quartic Gauss periods do not lie in any quadratic field
    e = character_table(catalog_scheme("cyclo-13-4"))
    assert "floating" in e.exactness()
    assert e.multiplicities == (1, 3, 3, 3, 3)


def projector_residuals(s, e):
    """Independent check: E_j built from row j must be idempotent with
    trace m_j.  Uses only adjacency matrices, not the eigen solver."""
    n = s.n
    out = []
    for j in range(s.d + 1):
        E = np.zeros((n, n), dtype=np.complex128)
        for i in range(s.d + 1):
            E += np.conj(e.P[j, i]) / s.valencies[i] * s.adjacency(i)
        E *= e.multiplicities[j] / n
        out.append(
            (
                float(np.abs(E @ E - E).max()),
                abs(complex(np.trace(E)) - e.multiplicities[j]),
            )
        )
    return out


@pytest.mark.parametrize(
    "eid", ["cyclo-5-2", "petersen", "cyclo-13-4", "schurian-z4", "wreath-qr7-k2"]
)
def test_rows_give_idempotent_projectors(eid):
    s = catalog_scheme(eid)
    e = character_table(s)
    for idem_resid, trace_resid in projector_residuals(s, e):
        assert idem_resid < 1e-8
        assert trace_resid < 1e-8


def test_orthogonality_all_tables(tables, catalog):
    for eid, e in tables.items():
        s = catalog[eid]
        k = np.array(s.valencies, dtype=np.float64)
        G = (e.P / k[None, :]) @ np.conj(e.P).T
        expect = np.diag([s.n / m for m in e.multiplicities])
        assert np.abs(G - expect).max() < 1e-6 * s.n, eid


def test_row_sums(tables):
    for eid, e in tables.items():
        sums = e.P.sum(axis=1)
        assert abs(sums[0] - e.n) < 1e-8 * e.n, eid
        assert np.abs(sums[1:]).max() < 1e-8 * e.n, eid


def test_multiplicities_sum_to_n(tables):
    for e in tables.values():
        assert e.multiplicities[0] == 1
        assert sum(e.multiplicities) == e.n


def test_multiplicity_sum_raises_with_asserts_stripped():
    stripped = compile_stripped(spectra)
    stripped.multiplicities = lambda P, valencies, n: [1] * len(valencies)
    with pytest.raises(MultiplicitySumMismatch, match=r"\[1, 1, 1\], n = 10"):
        stripped.character_table(catalog_scheme("petersen"))


def test_multiplicity_not_integral_raises():
    P = np.array([[1, 2], [1, -0.5]], dtype=np.complex128)
    with pytest.raises(MultiplicityNotIntegral):
        multiplicities(P, (1, 2), 3)


def test_union_spectrum_pentagon():
    e = character_table(catalog_scheme("cyclo-5-2"))
    spec = union_spectrum(e, (1,))
    assert [(round(z.real, 6), m) for z, m in spec] == [
        (2.0, 1),
        (round((-1 + SQRT5) / 2, 6), 2),
        (round((-1 - SQRT5) / 2, 6), 2),
    ]
    total = union_spectrum(e, (1, 2))
    assert [(z.real, m) for z, m in total] == [(4.0, 1), (-1.0, 4)]


def test_union_spectrum_disconnected_union():
    s = two_blocks_k5()
    e = character_table(s)
    spec = union_spectrum(e, (1,))
    assert [(z.real, m) for z, m in spec] == [(4.0, 2), (-1.0, 8)]


def test_union_spectrum_matches_exact_count(catalog):
    for eid in ("cyclo-5-2", "cyclo-7-2", "cyclo-13-4", "schurian-z4", "petersen"):
        s = catalog[eid]
        e = character_table(s)
        for i in range(1, s.d + 1):
            spec = union_spectrum(e, (i,))
            assert len(spec) == distinct_eigenvalue_count(s, (i,)), (eid, i)
            assert sum(m for _, m in spec) == s.n


def test_union_spectrum_matches_numpy_eigs():
    s = catalog_scheme("cyclo-13-4")
    e = character_table(s)
    A = s.adjacency((1, 2))
    w = np.sort_complex(np.linalg.eigvals(A.astype(np.float64)))
    flat = np.sort_complex(
        np.concatenate([[z] * m for z, m in union_spectrum(e, (1, 2))])
    )
    assert np.abs(w - flat).max() < 1e-8


def test_clustering_ambiguity_raises():
    # two unsnapped values 5e-9 apart: too close to separate, too far to merge
    P = np.array(
        [[1.0, 3.0, 3.0], [1.0, 0.5, -1.5], [1.0, 0.5 + 5e-9, -1.5 - 5e-9]],
        dtype=np.complex128,
    )
    e = EigenTable(P, (1, 3, 3), ((None,) * 3,) * 3, 7, (1, 3, 3))
    with pytest.raises(ToleranceAmbiguity):
        union_spectrum(e, (1,))


def test_union_validation():
    e = character_table(catalog_scheme("cyclo-5-2"))
    with pytest.raises(ValueError):
        union_spectrum(e, ())
    with pytest.raises(ValueError):
        union_spectrum(e, (0, 1))
    with pytest.raises(ValueError):
        union_spectrum(e, (3,))


def test_seed_determinism_and_independence():
    """The fixed seed makes the table deterministic, and it is independent
    of vertex order, since it is read from the intersection tensor."""
    s = catalog_scheme("cyclo-13-4")
    e1 = character_table(s)
    # a fresh scheme: the same one would hand back its memoized table
    e2 = character_table(catalog_scheme("cyclo-13-4"))
    assert (e1.P == e2.P).all()
    assert (e1.exact, e1.multiplicities) == (e2.exact, e2.multiplicities)
    perm = np.random.default_rng(3).permutation(s.n)
    e3 = character_table(scheme_from_entries(s.color.entries[np.ix_(perm, perm)]))
    assert (e1.P == e3.P).all()
    assert (e1.exact, e1.multiplicities) == (e3.exact, e3.multiplicities)


def test_high_precision_agrees():
    """The float64 table matches the one mpmath finds at 34 digits: each
    row within 1e-9 of its own reference row, with equal multiplicity."""
    for eid in ("petersen", "cyclo-13-4"):
        s = catalog_scheme(eid)
        e = character_table(s)
        ref = reference_eigenrows_mp(s)
        dist = np.abs(e.P[:, None, :] - ref[None, :, :]).max(axis=2)
        match = dist.argmin(axis=1)
        assert sorted(match) == list(range(s.d + 1))
        assert dist.min(axis=1).max() < 1e-9
        k = np.array(s.valencies, dtype=np.float64)
        mults = s.n / (np.abs(ref[match]) ** 2 / k).sum(axis=1)
        assert e.multiplicities == tuple(int(round(m)) for m in mults)
        assert np.abs(mults - np.round(mults)).max() < 1e-9


@pytest.mark.parametrize(
    "q, m",
    [(16, 15), (27, 13), (32, 31), (64, 21), (81, 10), (81, 20), (121, 12), (125, 31),
     (169, 14), (243, 11), (256, 17)],
)
def test_collision_prone_cyclotomic_tables(q, m):
    """Cyclotomic schemes where draws of coefficients from [-10, 10] make
    two rows' eigenvalues collide exactly: the wider retry draws separate
    them.  Every column's spectrum from the table has as many values as
    the exact minimal polynomial of its class."""
    s = build_cyclotomic(q, m)
    e = character_table(s)
    assert sum(e.multiplicities) == s.n
    for i in range(1, s.d + 1):
        assert len(union_spectrum(e, (i,))) == distinct_eigenvalue_count(s, (i,)), i


def thin_group_scheme(mult_table):
    n = len(mult_table)
    inv = [next(y for y in range(n) if mult_table[x][y] == 0) for x in range(n)]
    e = np.array([[mult_table[inv[x]][y] for y in range(n)] for x in range(n)])
    return scheme_from_entries(e)


def test_noncommutative_rejected():
    # S_3 acting on itself: smallest non-commutative scheme
    elems = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]  # (rotation, flip)
    def mul(a, b):
        ra, fa = a
        rb, fb = b
        return ((ra + (rb if fa == 0 else -rb)) % 3, (fa + fb) % 2)
    table = [[elems.index(mul(a, b)) for b in elems] for a in elems]
    s = thin_group_scheme(table)
    assert not s.is_commutative
    assert s.d == 5
    with pytest.raises(NonCommutative):
        intersection_matrices(s)
    with pytest.raises(NonCommutative):
        character_table(s)


def test_table_json_shape():
    e = character_table(catalog_scheme("cyclo-5-2"))
    js = e.to_json()
    assert len(js["P"]) == 9 and js["multiplicities"] == [1, 2, 2]
    assert len(js["exactness"]) == 9


def test_tables_are_memoized_and_read_only():
    s = catalog_scheme("petersen")
    e = character_table(s)
    assert character_table(s) is e
    trivial = character_table(scheme_from_entries(np.zeros((1, 1), dtype=np.int64), d=0))
    for table in (e, trivial):
        with pytest.raises(ValueError):
            table.P[0, 0] = 2
    assert e.P[0, 0] == 1 and trivial.P[0, 0] == 1


def _perms_or_none(normal_form, e, fix):
    try:
        got = normal_form(e, fix)
    except NormalFormUnreachable:
        return None
    return got if isinstance(got, tuple) else (got.row_perm, got.col_perm)


def test_group_rows_decides_as_the_loops_it_replaced(catalog):
    """union_spectrum, the amorphic normal form, the row map to the
    symmetrization and T4.1's row split are each now one group_rows call;
    on the catalog's tables, their symmetrizations and every nonsymmetric
    cyclotomic (q, 4) with q <= 257, they decide as the comparison loops
    they replaced (the references in conftest), spectra bit for bit."""
    schemes = list(catalog.values())
    for q in range(5, 258, 4):
        if f"cyclo-{q}-4" in catalog:
            continue
        try:
            s = build_cyclotomic(q, 4)
        except NotPrime:
            continue
        if s.class_kind != "symmetric":
            schemes.append(s)
    tables = {id(t): t for x in schemes for t in (x, symmetrize(x)[0])}
    spectra_seen = normal_forms = one_pair = splits = 0
    for s in tables.values():
        e = character_table(s)
        for size in range(1, s.d + 1):
            for u in combinations(range(1, s.d + 1), size):
                assert union_spectrum(e, u) == reference_union_spectrum(e, u), u
                spectra_seen += 1
        if s.d >= 3 and s.class_kind == "symmetric":
            for fix in [None, *range(1, s.d + 1)]:
                got = _perms_or_none(amorphic_normal_form, e, fix)
                assert got == _perms_or_none(reference_vote_perms, e, fix), fix
            normal_forms += 1
    for x in schemes:
        row_map = symmetrization_row_map(x)
        assert row_map == reference_row_map(x)
        if len(x.transpose_pairs) == 1:
            assert idempotent_matching(x).row_map == row_map
            one_pair += 1
        if x.d == 4 and x.class_kind == "skew-symmetric":
            assert x.transpose_pairs == ((1, 2), (3, 4))
            assert row_map[1:] == reference_skew_split(x)
            splits += 1
    assert (len(schemes), len(tables)) == (56, 89)
    assert (spectra_seen, normal_forms, one_pair, splits) == (679, 19, 15, 17)


def test_only_spectra_holds_a_tolerance():
    """Table values are compared in spectra alone: no other module defines
    a *_TOL name or reads CLUSTER_TOL, so a comparison loop written
    elsewhere fails here."""
    offenders = []
    for path in sorted(Path(spectra.__file__).parent.glob("*.py")):
        if path.name == "spectra.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                defined = name if isinstance(node.ctx, ast.Store) else None
            elif isinstance(node, ast.alias):
                name, defined = node.name, node.asname
            else:
                continue
            if name == "CLUSTER_TOL" or (defined or "").endswith("_TOL"):
                offenders.append(f"{path.name}:{node.lineno}:{name}")
    assert offenders == []
