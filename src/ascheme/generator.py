"""Generation criterion and machine checks of the structural theorems.

A union digraph generates the Bose-Mesner algebra iff its regular-
representation matrix B_union has d+1 distinct eigenvalues.  That count is
decided once, exactly: it is the rank over Q of the (d+1) x (d+1) Krylov
matrix K whose column t is B_union^t e_0, the coordinates of B_union^t in
the basis {B_i} (proof in generates).  The minimal-polynomial degree,
spectra.distinct_eigenvalue_count, is an independent oracle for the tests.
The witness polynomial of class i is the unique solution of K c = e_i, so
the witnesses are the columns of K^-1, all found in one elimination of K.
They are re-checked in integers on the regular representation, which
proves them on the n x n adjacency matrices too (see generates), so
nothing here builds an n x n matrix.  The powers of B_union are built once
per union, in integers: K and the regular-representation check read that
one list.  No generation verdict depends on floating point.  T3.1
compares its predicted fission table with the computed one within
RESID_TOL, rows aligned by the row map to the symmetrization that
idempotent_matching fixes.

The theorem checkers (one-pair, amorphic, 4-class, fission prediction,
skew-type classification) assemble these primitives; each returns a
TheoremVerdict with structured evidence, reporting applicability honestly
(a scheme outside a theorem's hypotheses yields applicable = False with
no truth claim).
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla
from .core import canonical_form, memoized, symmetrize, union_classes
from .errors import (
    SplitRowMismatch,
    TooManyClasses,
    TypeUnclassifiable,
    WitnessRejected,
    WitnessUnsolvable,
)
from .exact import QuadVal, snap_fraction
from .fusion import (
    amorphic_normal_form,
    idempotent_matching,
    is_amorphic,
    symmetrization_row_map,
)
from .spectra import (
    RESID_TOL,
    EigenTable,
    character_table,
    group_rows,
    intersection_matrices,
)

# witness_verified is set for generating unions with n up to this bound,
# which fixes the reports' bytes; the proof itself holds for every n.
WITNESS_MAX_N = 256


@dataclass(frozen=True)
class GenerationReport:
    """Verdict for one union: its exact eigenvalue count, which is the
    Krylov (power-span) rank and is reported under both names, and (when
    generating) the polynomials expressing each basis matrix."""

    union: tuple
    eigen_count: int
    span_rank: int
    generates: bool
    witness: tuple  # per class i, coefficients of B_union powers; None if not generating
    witness_verified: bool  # generating and n <= WITNESS_MAX_N: the witness is proven

    def to_json(self):
        return {
            "union": list(self.union),
            "eigen_count": self.eigen_count,
            "span_rank": self.span_rank,
            "generates": self.generates,
            "witness": None
            if self.witness is None
            else [[str(c) for c in poly] for poly in self.witness],
            "witness_verified": self.witness_verified,
        }


@memoized(lambda s, union: union_classes(s.d, union))
def generates(s, union):
    """Exact generation verdict for the union digraph.

    One list of powers B_union^0, ..., B_union^d, exact in integers
    (exactla.matrix_powers), feeds every check.  The union generates iff
    B_union has d+1 distinct eigenvalues, and that count is the rank of the
    Krylov matrix K = [e_0, B e_0, ..., B^d e_0], column 0 of each power:
    B_union is diagonalizable (the B_i of a commutative scheme are), so the
    count is the degree of its minimal polynomial, which is
    dim span{I, B, ..., B^d} as the degree is at most d+1.  Every power of
    B_union lies in span{B_i}, since the tensor is verified (below), and
    X -> X e_0 is injective there, since B_i e_0 = e_i (p_{i0}^l is 1 iff
    i = l).  So the rank of K, the image of span{I, B, ..., B^d}, is the
    eigenvalue count; the report gives it as both eigen_count and
    span_rank.  The witness for class i solves K c = e_i, so that
    sum_t c_t B^t = B_i; one solve_exact call finds all d+1 of them.  They
    are re-checked in integers against the same powers on the regular
    representation, and that proves them on the adjacency matrices:
    s.tensor is verified against s.color (by the axiom kernel, by the
    translation-scheme row-0 check of the cyclotomic builder, or as closed
    forms and block sums of verified tensors), so A_i A_j = sum_l p_ij^l A_l
    and A_i -> B_i is an algebra homomorphism, the algebra being
    associative.  It is injective, since B_i e_0 = e_i.  Hence
    sum_t c_t B_union^t = B_i implies sum_t c_t A_union^t = A_i.
    witness_verified records that proof for a generating union with
    n <= WITNESS_MAX_N, as the catalog report has always read it.  A failed
    check raises a GenerationCheckFailed subclass naming the union and
    class.  The report is computed once per (scheme, union).
    """
    u = union_classes(s.d, union)
    B = intersection_matrices(s)
    d = s.d
    powers = exactla.matrix_powers(sum(B[i] for i in u), d)
    K = np.stack([P[:, 0] for P in powers], axis=1).tolist()
    span_rank = exactla.rank(K)
    gen = span_rank == d + 1
    witness = None
    if gen:
        units = [[int(r == i) for r in range(d + 1)] for i in range(d + 1)]
        sols = exactla.solve_exact(K, units)
        if None in sols:
            raise WitnessUnsolvable("K c = e_i has no solution", u, sols.index(None))
        witness = tuple(tuple(sol) for sol in sols)
        _check_regular(B, powers, u, witness)
    verified = gen and s.n <= WITNESS_MAX_N
    return GenerationReport(u, span_rank, span_rank, gen, witness, verified)


def _check_regular(B, powers, union, witness):
    """den * sum_t c_t B_union^t == den * B_i in integers, for every class i.

    One object-dtype product of the scaled witness rows with the flattened
    powers B_union^0, ..., B_union^d gives every sum; the first mismatch in
    (i, r, c) order is reported.
    """
    m = len(B)
    scaled = [exactla.scale_to_integers(poly) for poly in witness]
    coef = np.array([cs for _, cs in scaled], dtype=object)
    dens = np.array([den for den, _ in scaled], dtype=object)
    got = coef @ np.stack([P.ravel() for P in powers]).astype(object)
    want = dens[:, None] * np.stack([b.ravel() for b in B]).astype(object)
    bad = np.argwhere(got != want)
    if bad.size:
        i, (r, c) = int(bad[0, 0]), divmod(int(bad[0, 1]), m)
        raise WitnessRejected(f"fails the regular representation at ({r},{c})", union, i)


def find_generating_unions(s):
    """Reports for every nonempty union, ordered by (size, indices)."""
    if s.d > 12:
        raise TooManyClasses(f"d = {s.d} exceeds the 2^d search guard")
    unions = []
    for mask in range(1, 2 ** s.d):
        u = tuple(i + 1 for i in range(s.d) if mask >> i & 1)
        unions.append(u)
    unions.sort(key=lambda u: (len(u), u))
    return [generates(s, u) for u in unions]


def minimal_generating(reports):
    """Inclusion-minimal generating unions from a find_generating_unions run."""
    gens = [set(r.union) for r in reports if r.generates]
    return [
        tuple(sorted(u))
        for u in gens
        if not any(v < u for v in gens)
    ]


@dataclass(frozen=True)
class TheoremVerdict:
    theorem_id: str
    applicable: bool
    holds: bool  # None iff not applicable
    evidence: dict

    def to_json(self):
        out = {"theorem": self.theorem_id, "applicable": self.applicable}
        if self.applicable:
            out["holds"] = self.holds
        out["evidence"] = self.evidence
        return out


def _needs_one_pair(x, tid):
    """The not-applicable verdict unless x is commutative with exactly one
    transpose pair, else None."""
    if len(x.transpose_pairs) != 1 or not x.is_commutative:
        return TheoremVerdict(tid, False, None, {"reason": "needs exactly one transpose pair"})


def _needs_amorphic_symmetrization(x, tid):
    """The not-applicable verdict, with is_amorphic's certificate, unless
    the symmetrization of x is amorphic, else None."""
    am, cert = is_amorphic(symmetrize(x)[0])
    if not am:
        ev = {"reason": "symmetrization not amorphic", "certificate": cert}
        return TheoremVerdict(tid, False, None, ev)


def check_theorem_one_pair(x):
    """One-pair generation transfer (T1.2).

    Hypotheses: exactly one transpose pair and the symmetrized pair class
    generates the symmetrization.  Conclusion: each pair member alone has
    d+1 distinct eigenvalues (one more than the symmetrization needs) and
    generates the full algebra.
    """
    tid = "T1.2"
    refused = _needs_one_pair(x, tid)
    if refused:
        return refused
    p1, p2 = x.transpose_pairs[0]
    sym, corr = symmetrize(x)
    sym_rep = generates(sym, (corr[p1],))
    if not sym_rep.generates:
        return TheoremVerdict(tid, False, None, {
            "reason": "symmetrized pair class does not generate",
            "sym_eigen_count": sym_rep.eigen_count,
            "sym_required": sym.d + 1,
        })
    required = x.d + 1
    reps = [generates(x, (p,)) for p in (p1, p2)]
    holds = all(r.eigen_count == required and r.generates for r in reps)
    return TheoremVerdict(tid, True, holds, {
        "pair": [p1, p2],
        "sym_class": corr[p1],
        "eigen_counts": [r.eigen_count for r in reps],
        "required": required,
        "generates": [r.generates for r in reps],
    })


def check_theorem_amorphic(x):
    """Amorphic-fission generatability criterion (T1.3).

    Applicable to one-pair schemes whose symmetrization is amorphic with
    d classes.  Predicts generatability iff d <= 3, or d = 4 and the
    deviant idempotent of the split class column survives the fission.
    When generatable, also verifies the witness form: some union of the
    pair member with one other class has d+2 distinct eigenvalues.
    """
    tid = "T1.3"
    refused = _needs_one_pair(x, tid) or _needs_amorphic_symmetrization(x, tid)
    if refused:
        return refused
    p1, p2 = x.transpose_pairs[0]
    sym, corr = symmetrize(x)
    d = sym.d
    evidence = {"sym_d": d}
    if d <= 3:
        predicted = True
        evidence["branch"] = "d<=3"
    elif d == 4:
        match = idempotent_matching(x)
        nf = amorphic_normal_form(character_table(sym), fix_last_col=corr[p1])
        e_d_row = nf.row_perm[d]
        predicted = match.is_primitive_in_x(e_d_row)
        evidence.update(
            {
                "branch": "d==4",
                "deviant_row": e_d_row,
                "split_row": match.split_row,
                "idempotent_survives": predicted,
            }
        )
    else:
        predicted = False
        evidence["branch"] = "d>=5"
    reports = find_generating_unions(x)
    actual = any(r.generates for r in reports)
    evidence["predicted_generatable"] = predicted
    evidence["actual_generatable"] = actual
    evidence["minimal_unions"] = [list(u) for u in minimal_generating(reports)]
    holds = predicted == actual
    if holds and predicted:
        found = None
        for i in range(1, x.d + 1):
            if i == p2:
                continue
            u = tuple(sorted({i, p1}))
            rep = next(r for r in reports if r.union == u)
            if rep.eigen_count == x.d + 1 and rep.generates:
                found = {"i": i, "union": list(u)}
                break
        evidence["pair_union_witness"] = found
        holds = found is not None
    return TheoremVerdict(tid, True, holds, evidence)


def check_theorem_4class(x):
    """Nonsymmetric 4-class generation guarantee (T1.4).

    After relabeling the checked transpose pair to (3, 4) and the other
    two classes, in order, to (1, 2), some union among R_1 u R_3,
    R_2 u R_3, R_3 has exactly 5 distinct eigenvalues and generates.  The
    unions are named in those labels and mapped back to x's classes, so
    generates runs on x itself, whose verdicts do not depend on labels.
    The success is reported as i in {2, 3, 4}: a success via R_1 u R_3
    equals i = 2 after the legal swap of classes 1 and 2, which are either
    both symmetric or the two members of the other pair.  In the skew case
    both choices of checked pair are run; the verdict is the canonical
    labeling's, with the alternate recorded in evidence.
    """
    tid = "T1.4"
    if x.d != 4 or not x.is_commutative or not x.transpose_pairs:
        return TheoremVerdict(
            tid, False, None, {"reason": "needs a nonsymmetric 4-class scheme"}
        )
    choices = []
    for pair in x.transpose_pairs:
        # x_class[c] is the class of x that the relabeling names c
        x_class = [0, *(i for i in range(1, 5) if i not in pair), *pair]
        results = {}
        for u in [(1, 3), (2, 3), (3,), (3, 4)]:
            rep = generates(x, [x_class[c] for c in u])
            results[u] = {"eigen_count": rep.eigen_count, "generates": rep.generates}
        ok = lambda u: results[u]["eigen_count"] == 5 and results[u]["generates"]
        if ok((3,)):
            found_i, via_relabel = 3, False
        elif ok((2, 3)):
            found_i, via_relabel = 2, False
        elif ok((3, 4)):
            found_i, via_relabel = 4, False
        elif ok((1, 3)):
            found_i, via_relabel = 2, True
        else:
            found_i, via_relabel = None, False
        choices.append({
            "pair": list(pair),
            "unions": {"+".join(map(str, u)): r for u, r in results.items()},
            "found_i": found_i,
            "via_relabel": via_relabel,
            "outside_statement": found_i is not None
            and via_relabel
            and not ok((2, 3))
            and not ok((3,)),
            "holds": found_i is not None,
        })
    return TheoremVerdict(tid, True, choices[0]["holds"], {
        "choices": choices,
        "all_choices_hold": all(c["holds"] for c in choices),
    })


def permute_table_columns(e, perm):
    """Relabel table classes: column i of the result is column perm[i]."""
    if perm[0] != 0:
        raise ValueError("column 0 must stay fixed")
    cols = list(perm)
    P = e.P[:, cols].copy()
    exact = tuple(tuple(row[c] for c in cols) for row in e.exact)
    return EigenTable(
        P,
        e.multiplicities,
        exact,
        e.n,
        tuple(e.valencies[c] for c in cols),
    )


def predict_fission_table(sym_t, split_row, a):
    """Predicted table of a one-pair fission splitting the last class.

    The designated row duplicates into a conjugate pair with entries
    (p_d(split) +- sqrt(a))/2 in the two new columns; every other row
    halves its last-column entry into both; a must be a negative
    rational.  Raises SplitRowMismatch when the halving pattern is
    impossible (odd split valency or multiplicity).
    """
    d = sym_t.d
    if not 1 <= split_row <= d:
        raise ValueError("split_row must be a non-valency row index")
    a = Fraction(a)
    if a >= 0:
        raise ValueError("a must be negative")
    if sym_t.multiplicities[split_row] % 2:
        raise SplitRowMismatch(
            f"split row multiplicity {sym_t.multiplicities[split_row]} is odd"
        )
    if sym_t.valencies[d] % 2:
        raise SplitRowMismatch(f"split valency {sym_t.valencies[d]} is odd")
    half = QuadVal.rational(Fraction(1, 2))
    root = QuadVal.sqrt_rational(a)

    def halved(val, z):
        if val is not None:
            q = val * half
            return q, q.to_complex()
        return None, z / 2

    rows_exact = []
    rows_val = []
    mults = []
    kd2 = sym_t.valencies[d] // 2
    top_exact = [QuadVal.rational(v) for v in sym_t.valencies[:d]]
    top_exact += [QuadVal.rational(kd2)] * 2
    rows_exact.append(top_exact)
    rows_val.append([complex(v) for v in sym_t.valencies[:d]] + [kd2, kd2])
    mults.append(1)
    for j in range(1, d + 1):
        base_exact = [sym_t.exact[j][c] for c in range(d)]
        base_val = [complex(sym_t.P[j, c]) for c in range(d)]
        if j == split_row:
            pd = sym_t.exact[j][d]
            if pd is not None and pd.is_rational:
                rho = (pd + root) * half
                rho_c = rho.to_complex()
                pair = [(rho, rho_c), (rho.conjugate(), rho_c.conjugate())]
            else:
                z = complex(sym_t.P[j, d])
                rt = cmath.sqrt(complex(a))
                pair = [(None, (z + rt) / 2), (None, (z - rt) / 2)]
            for (ex1, v1), (ex2, v2) in (
                (pair[0], pair[1]),
                (pair[1], pair[0]),
            ):
                rows_exact.append(base_exact + [ex1, ex2])
                rows_val.append(base_val + [v1, v2])
                mults.append(sym_t.multiplicities[j] // 2)
        else:
            ex, v = halved(sym_t.exact[j][d], complex(sym_t.P[j, d]))
            rows_exact.append(base_exact + [ex, ex])
            rows_val.append(base_val + [v, v])
            mults.append(sym_t.multiplicities[j])
    P = np.array(rows_val, dtype=np.complex128)
    valencies = tuple(sym_t.valencies[:d]) + (kd2, kd2)
    return EigenTable(
        P,
        tuple(mults),
        tuple(tuple(r) for r in rows_exact),
        sym_t.n,
        valencies,
    )


def check_theorem_fission(x):
    """Fission-table shape prediction (T3.1).

    Applicable to one-pair schemes with amorphic symmetrization.  The
    radicand a is extracted from the computed split row and snapped by
    exact.snap_fraction to the nearest rational with denominator at most
    64 within RESID_TOL; holds when a < 0 and the predicted table matches
    the computed one entrywise within RESID_TOL after column alignment.
    Rows are aligned by the symmetrization row map of idempotent_matching:
    the predicted row of symmetrization row j meets the x row that fuses
    to it, and the two rows of the split pair are tried in both orders.
    """
    tid = "T3.1"
    refused = _needs_one_pair(x, tid) or _needs_amorphic_symmetrization(x, tid)
    if refused:
        return refused
    p1, p2 = x.transpose_pairs[0]
    sym, corr = symmetrize(x)
    c_star = corr[p1]
    x_t = character_table(x)
    sym_t = character_table(sym)
    match = idempotent_matching(x)
    split = match.split_row
    col_perm = [0] + [c for c in range(1, sym.d + 1) if c != c_star] + [c_star]
    sym_aligned = permute_table_columns(sym_t, col_perm)
    ra = match.row_map[split][0]
    rho = complex(x_t.P[ra, p1])
    pd_split = complex(sym_t.P[split, c_star])
    aval = (2 * rho - pd_split) ** 2
    a = snap_fraction(aval.real, RESID_TOL, max_den=64) if abs(aval.imag) < RESID_TOL else None
    if a is None or a >= 0:
        return TheoremVerdict(tid, True, False, {
            "reason": "extracted radicand not a negative rational",
            "a": [aval.real, aval.imag],
        })
    predicted = predict_fission_table(sym_aligned, split, a)
    class_of = {corr[i]: i for i in range(1, x.d + 1) if i not in (p1, p2)}
    x_cols = [0] + [class_of[c] for c in col_perm[1:-1]] + [p1, p2]
    devs = []
    for pair in (match.row_map[split], match.row_map[split][::-1]):
        rows = [r for j, g in enumerate(match.row_map) for r in (pair if j == split else g)]
        devs.append(float(np.abs(predicted.P - x_t.P[np.ix_(rows, x_cols)]).max()))
    dev = min(devs)
    return TheoremVerdict(tid, True, dev < RESID_TOL, {
        "a": str(a),
        "split_row": split,
        "max_deviation": dev,
        "column_order": x_cols,
    })


@dataclass(frozen=True)
class SkewClassification:
    """Theorem 4.1 type and parameter validation for a skew 4-class scheme."""

    type: int
    entries: dict  # rho, sigma, tau, omega as [re, im]
    radicands: dict  # name -> {computed, predicted, residual}
    formulas_ok: bool
    row_sums_ok: bool
    property_unions: dict  # union -> eigen_count (per-type 5-eigenvalue props)
    properties_ok: bool

    def to_json(self):
        return {
            "type": self.type,
            "entries": self.entries,
            "radicands": self.radicands,
            "formulas_ok": self.formulas_ok,
            "row_sums_ok": self.row_sums_ok,
            "property_unions": self.property_unions,
            "properties_ok": self.properties_ok,
        }


def classify_skew_4class(x):
    """Assign a skew-symmetric 4-class scheme to one of the three
    eigenvalue patterns and validate the radicand formulas.

    With pairs labeled (1,2), (3,4), let rho, tau be the fission entries
    of symmetrization row 1 on the two pair columns and sigma, omega
    those of row 2.  Type 1: sigma, tau complex with radicands n k_1/m_2
    and n k_2/m_1; type 2: rho, omega complex with radicands n k_1/m_1
    and n k_2/m_2; type 3: all four complex, radicands positive.
    """
    if x.d != 4 or x.class_kind != "skew-symmetric":
        raise ValueError("classification needs a skew-symmetric 4-class scheme")
    if x.transpose_pairs != ((1, 2), (3, 4)):
        x = canonical_form(x)[0]
    x_t = character_table(x)
    sym, corr = symmetrize(x)
    sym_t = character_table(sym)
    cA, cB = corr[1], corr[3]
    n = x.n
    k1, k2 = 2 * x.valencies[1], 2 * x.valencies[3]
    m1, m2 = sym_t.multiplicities[1], sym_t.multiplicities[2]
    r = [None, sym_t.P[1, cA].real, sym_t.P[2, cA].real]
    t = [None, sym_t.P[1, cB].real, sym_t.P[2, cB].real]
    rows_of = symmetrization_row_map(x)
    if len(rows_of[1]) != 2 or len(rows_of[2]) != 2:
        raise TypeUnclassifiable("each symmetrization row must split in two")

    def rep_row(js, col):
        # deterministic conjugate choice: nonnegative imaginary part first
        j = max(js, key=lambda jj: (x_t.P[jj, col].imag, -jj))
        return j

    ja = rep_row(rows_of[1], 1)
    jb = rep_row(rows_of[2], 1)
    rho, tau = complex(x_t.P[ja, 1]), complex(x_t.P[ja, 3])
    sigma, omega = complex(x_t.P[jb, 1]), complex(x_t.P[jb, 3])
    # an entry is complex iff it differs from its conjugate
    im = {
        name: len(group_rows(np.array([[z], [z.conjugate()]]), [[None], [None]])) == 2
        for name, z in (("rho", rho), ("sigma", sigma), ("tau", tau), ("omega", omega))
    }
    rad = lambda z: 4 * z.imag ** 2
    radicands = {}
    if not im["rho"] and not im["omega"] and im["sigma"] and im["tau"]:
        typ = 1
        radicands["b"] = {"computed": rad(sigma), "predicted": n * k1 / m2}
        radicands["z"] = {"computed": rad(tau), "predicted": n * k2 / m1}
    elif im["rho"] and im["omega"] and not im["sigma"] and not im["tau"]:
        typ = 2
        radicands["y"] = {"computed": rad(rho), "predicted": n * k1 / m1}
        radicands["c"] = {"computed": rad(omega), "predicted": n * k2 / m2}
    elif all(im.values()):
        typ = 3
        radicands["y"] = {"computed": rad(rho), "predicted": None}
        radicands["b"] = {"computed": rad(sigma), "predicted": None}
        radicands["z"] = {"computed": rad(tau), "predicted": None}
        radicands["c"] = {"computed": rad(omega), "predicted": None}
    else:
        raise TypeUnclassifiable(
            f"imaginary-part pattern {im} matches no Theorem 4.1 case"
        )
    checks = [
        abs(rho.real - r[1] / 2),
        abs(omega.real - t[2] / 2),
        abs(sigma.real - r[2] / 2),
        abs(tau.real - t[1] / 2),
    ]
    for v in radicands.values():
        if v["predicted"] is None:
            v["residual"] = None
        else:
            v["residual"] = abs(v["computed"] - v["predicted"])
    # type 3 radicands 4 Im(z)^2 are positive, as all four entries are complex
    radicands_ok = typ == 3 or all(v["residual"] < RESID_TOL for v in radicands.values())
    formulas_ok = radicands_ok and max(checks) < RESID_TOL
    row_sums_ok = (
        abs(1 + 2 * rho.real + 2 * tau.real) < RESID_TOL
        and abs(1 + 2 * sigma.real + 2 * omega.real) < RESID_TOL
    )
    if typ in (1, 2):
        prop_unions = [(1, 3), (2, 4)]
    else:
        prop_unions = [(1,), (2,), (3,), (4,)]
    property_unions = {}
    properties_ok = True
    for u in prop_unions:
        cnt = generates(x, u).eigen_count
        property_unions["+".join(map(str, u))] = cnt
        properties_ok = properties_ok and cnt == 5
    return SkewClassification(
        typ,
        {
            "rho": [rho.real, rho.imag],
            "sigma": [sigma.real, sigma.imag],
            "tau": [tau.real, tau.imag],
            "omega": [omega.real, omega.imag],
        },
        radicands,
        formulas_ok,
        row_sums_ok,
        property_unions,
        properties_ok,
    )


def check_theorem_skew_types(x):
    """Skew 4-class type classification and parameter identities (T4.1)."""
    tid = "T4.1"
    if x.d != 4 or x.class_kind != "skew-symmetric" or not x.is_commutative:
        return TheoremVerdict(
            tid, False, None, {"reason": "needs a skew-symmetric 4-class scheme"}
        )
    try:
        cls = classify_skew_4class(x)
    except TypeUnclassifiable as exc:
        return TheoremVerdict(tid, True, False, {"reason": str(exc)})
    holds = cls.formulas_ok and cls.row_sums_ok and cls.properties_ok
    return TheoremVerdict(tid, True, holds, cls.to_json())
