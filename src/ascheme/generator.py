"""Generation criterion and machine checks of the structural theorems.

A union digraph generates the Bose-Mesner algebra iff its regular-
representation matrix B_union has d+1 distinct eigenvalues.  Both sides of
that criterion are computed exactly and from different matrices: the
eigenvalue count is the minimal-polynomial degree of B_union over Q, and
the algebra dimension is the rank of the (d+1) x (d+1) Krylov matrix K
whose column t is B_union^t e_0.  Since B_i e_0 = e_i (p_{i0}^l is 1 iff
i = l), that column holds the coordinates of B_union^t in the basis {B_i},
and X -> X e_0 is injective on the algebra.  The witness polynomial of
class i is the unique solution of K c = e_i, re-checked in integers on the
regular representation and, for n <= WITNESS_MAX_N, on the n x n
adjacency matrices modulo enough primes that the Chinese remainder bound
makes the check exact.  No verdict in this module depends on floating
point.

The theorem checkers (one-pair, amorphic, 4-class, fission prediction,
skew-type classification) assemble these primitives; each returns a
TheoremVerdict with structured evidence, reporting applicability honestly
(a scheme outside a theorem's hypotheses yields applicable = False with
no truth claim).
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla
from .core import canonical_form, relabel_classes, symmetrize, union_classes
from .errors import (
    CriterionDisagreement,
    SplitRowMismatch,
    TooManyClasses,
    TypeUnclassifiable,
    WitnessBoundUnreached,
    WitnessRejected,
    WitnessUnsolvable,
)
from .exact import QuadVal
from .fusion import amorphic_normal_form, idempotent_matching, is_amorphic
from .spectra import (
    EigenTable,
    character_table,
    distinct_eigenvalue_count,
    intersection_matrices,
)

RESID_TOL = 1e-8
WITNESS_MAX_N = 256
# Largest primes below 2^27.  Two bounds keep the n x n check exact:
# WITNESS_MAX_N * p < 2^53, so each float64 product of a power (residues
# below p) with the 0/1 adjacency matrix sums at most n terms below p; and
# (MAX_D + 1) * p^2 < 2^63, so the int64 combination of d + 1 residue
# products with residue coefficients cannot overflow.
WITNESS_PRIMES = (
    134217689, 134217649, 134217617, 134217613, 134217593, 134217541,
    134217529, 134217509, 134217497, 134217493, 134217487, 134217467,
    134217439, 134217437, 134217409, 134217403, 134217401, 134217367,
    134217361, 134217353, 134217323, 134217301, 134217277, 134217257,
)


@dataclass(frozen=True)
class GenerationReport:
    """Verdict for one union: exact eigenvalue count, Krylov (power-span) rank,
    and (when generating) the polynomials expressing each basis matrix."""

    union: tuple
    eigen_count: int
    span_rank: int
    generates: bool
    witness: tuple  # per class i, coefficients of B_union powers; None if not generating
    witness_verified: bool

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


def generates(s, union):
    """Exact generation verdict for the union digraph.

    eigen_count is the minimal-polynomial degree of B_union.  span_rank is
    the rank of the Krylov matrix K = [e_0, B e_0, ..., B^d e_0], which is
    dim span{I, B, ..., B^d}; the union generates iff both equal d+1.  The
    witness for class i solves K c = e_i, so that sum_t c_t B^t = B_i.  It
    is re-checked in integers on the regular representation, and for
    n <= WITNESS_MAX_N on the n x n adjacency matrices, multi-modularly
    with a proven CRT bound (witness_verified).  A failed check raises a
    GenerationCheckFailed subclass naming the union and class.
    """
    u = union_classes(s.d, union)
    B = intersection_matrices(s)
    d = s.d
    BL = [
        [int(sum(B[i][r][c] for i in u)) for c in range(d + 1)]
        for r in range(d + 1)
    ]
    eigen_count = exactla.minpoly_degree(BL)
    powers = exactla.matrix_powers(BL, d)
    K = [[powers[t][r][0] for t in range(d + 1)] for r in range(d + 1)]
    span_rank = exactla.rank(K)
    if eigen_count != span_rank:
        raise CriterionDisagreement(
            f"minimal-polynomial degree {eigen_count} != Krylov rank {span_rank}", u
        )
    gen = eigen_count == d + 1
    witness = None
    verified = False
    if gen:
        polys = []
        for i in range(d + 1):
            sol = exactla.solve_exact(K, [int(r == i) for r in range(d + 1)])
            if sol is None:
                raise WitnessUnsolvable("K c = e_i has no solution", u, i)
            polys.append(tuple(sol))
        witness = tuple(polys)
        _check_regular(B, powers, u, witness)
        if s.n <= WITNESS_MAX_N:
            _check_adjacency(s, u, witness)
            verified = True
    return GenerationReport(u, eigen_count, span_rank, gen, witness, verified)


def _scaled(poly):
    """(den, integer coefficients) with den the lcm of the denominators."""
    den = math.lcm(*(c.denominator for c in poly))
    return den, [c.numerator * (den // c.denominator) for c in poly]


def _check_regular(B, powers, union, witness):
    """den * sum_t c_t B_union^t == den * B_i in integers, for every class i."""
    m = len(B)
    for i, poly in enumerate(witness):
        den, coef = _scaled(poly)
        for r in range(m):
            for c in range(m):
                acc = sum(ct * P[r][c] for ct, P in zip(coef, powers))
                if acc != den * int(B[i][r][c]):
                    raise WitnessRejected(
                        f"fails the regular representation at ({r},{c})",
                        union, i, "regular",
                    )


def _check_adjacency(s, union, witness):
    """Check sum_t c_t A^t == A_i on the n x n matrices, for every class i.

    Works modulo the primes of WITNESS_PRIMES in turn, all classes at once;
    the powers come from _powers_mod, the combination with the witness
    coefficients is int64.  Every entry of A^t is at most k^t (k the
    union's valency), so the integer difference den * (sum_t c_t A^t - A_i)
    is bounded by M = max_i (den_i + sum_t |den_i c_t| k^t).  Once the
    product of the primes used exceeds 2M, agreement modulo each prime
    proves equality.  Returns the number of primes used.
    """
    A = s.adjacency(union).astype(np.float64)
    k = sum(s.valencies[i] for i in union)
    scaled = [_scaled(poly) for poly in witness]
    bound = 2 * max(
        den + sum(abs(c) * k**t for t, c in enumerate(coef)) for den, coef in scaled
    )
    classes = np.arange(len(witness))[:, None, None]
    target = s.color.entries[None, :, :] == classes
    modulus = 1
    for used, p in enumerate(WITNESS_PRIMES, 1):
        coef = np.array([[c % p for c in cs] for _, cs in scaled], dtype=np.int64)
        dens = np.array([den % p for den, _ in scaled], dtype=np.int64)
        got = np.tensordot(coef, _powers_mod(A, p, len(witness)), axes=1) % p
        bad = np.flatnonzero((got != target * dens[:, None, None]).any(axis=(1, 2)))
        if bad.size:
            raise WitnessRejected(
                f"fails the adjacency matrices modulo {p}", union, int(bad[0]), "adjacency"
            )
        modulus *= p
        if modulus > bound:
            return used
    raise WitnessBoundUnreached(
        f"{len(WITNESS_PRIMES)} primes do not reach the CRT bound {bound}", union
    )


def _powers_mod(A, p, count):
    """A^0, ..., A^(count - 1) modulo p as one int64 array, for a 0/1
    float64 matrix A.  The products run on BLAS in float64: a power's
    residues are below p, so every partial sum of a row times a 0/1 column
    is an integer below n * p < 2^53 (see WITNESS_PRIMES) and exact."""
    apow = [np.eye(A.shape[0])]
    for _ in range(count - 1):
        apow.append(np.fmod(apow[-1] @ A, p))
    return np.stack(apow).astype(np.int64)


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


def _one_pair(s):
    pairs = s.transpose_pairs
    return pairs[0] if len(pairs) == 1 else None


def check_theorem_one_pair(x):
    """One-pair generation transfer (T1.2).

    Hypotheses: exactly one transpose pair and the symmetrized pair class
    generates the symmetrization.  Conclusion: each pair member alone has
    d+1 distinct eigenvalues (one more than the symmetrization needs) and
    generates the full algebra.
    """
    tid = "T1.2"
    pair = _one_pair(x)
    if pair is None or not x.is_commutative:
        return TheoremVerdict(
            tid, False, None, {"reason": "needs exactly one transpose pair"}
        )
    p1, p2 = pair
    sym, corr = symmetrize(x)
    sym_rep = generates(sym, (corr[p1],))
    if not sym_rep.generates:
        return TheoremVerdict(
            tid,
            False,
            None,
            {
                "reason": "symmetrized pair class does not generate",
                "sym_eigen_count": sym_rep.eigen_count,
                "sym_required": sym.d + 1,
            },
        )
    required = x.d + 1
    reps = [generates(x, (p,)) for p in (p1, p2)]
    holds = all(r.eigen_count == required and r.generates for r in reps)
    return TheoremVerdict(
        tid,
        True,
        holds,
        {
            "pair": [p1, p2],
            "sym_class": corr[p1],
            "eigen_counts": [r.eigen_count for r in reps],
            "required": required,
            "generates": [r.generates for r in reps],
        },
    )


def check_theorem_amorphic(x):
    """Amorphic-fission generatability criterion (T1.3).

    Applicable to one-pair schemes whose symmetrization is amorphic with
    d classes.  Predicts generatability iff d <= 3, or d = 4 and the
    deviant idempotent of the split class column survives the fission.
    When generatable, also verifies the witness form: some union of the
    pair member with one other class has d+2 distinct eigenvalues.
    """
    tid = "T1.3"
    pair = _one_pair(x)
    if pair is None or not x.is_commutative:
        return TheoremVerdict(
            tid, False, None, {"reason": "needs exactly one transpose pair"}
        )
    sym, corr = symmetrize(x)
    am, cert = is_amorphic(sym)
    if not am:
        return TheoremVerdict(
            tid,
            False,
            None,
            {"reason": "symmetrization not amorphic", "certificate": cert},
        )
    p1, p2 = pair
    d = sym.d
    evidence = {"sym_d": d}
    if d <= 3:
        predicted = True
        evidence["branch"] = "d<=3"
    elif d == 4:
        sym_t = character_table(sym)
        match = idempotent_matching(x, sym_table=sym_t)
        nf = amorphic_normal_form(sym_t, fix_last_col=corr[p1])
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


def _relabel_pair_to_34(x, pair):
    """Permutation sending the given pair to classes (3, 4), all other
    classes to 1, 2 preserving their relative order."""
    rest = [i for i in range(1, 5) if i not in pair]
    perm = [0] * 5
    perm[pair[0]], perm[pair[1]] = 3, 4
    perm[rest[0]], perm[rest[1]] = 1, 2
    return tuple(perm)


def check_theorem_4class(x):
    """Nonsymmetric 4-class generation guarantee (T1.4).

    After relabeling the checked transpose pair to (3, 4), some union
    among R_1 u R_3, R_2 u R_3, R_3 has exactly 5 distinct eigenvalues and
    generates.  The success is reported as i in {2, 3, 4}: a success via
    R_1 u R_3 equals i = 2 after the legal swap of classes 1 and 2, which
    are either both symmetric or the two members of the other pair.  In
    the skew case both choices of checked pair are run; the verdict is
    the canonical labeling's, with the alternate recorded in evidence.
    """
    tid = "T1.4"
    if x.d != 4 or not x.is_commutative or not x.transpose_pairs:
        return TheoremVerdict(
            tid, False, None, {"reason": "needs a nonsymmetric 4-class scheme"}
        )
    choices = []
    for pair in x.transpose_pairs:
        y = relabel_classes(x, _relabel_pair_to_34(x, pair))
        unions = [(1, 3), (2, 3), (3,), (3, 4)]
        results = {}
        for u in unions:
            rep = generates(y, u)
            results[u] = {
                "eigen_count": rep.eigen_count,
                "generates": rep.generates,
            }
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
        choices.append(
            {
                "pair": list(pair),
                "unions": {
                    "+".join(map(str, u)): results[u] for u in unions
                },
                "found_i": found_i,
                "via_relabel": via_relabel,
                "outside_statement": found_i is not None
                and via_relabel
                and not ok((2, 3))
                and not ok((3,)),
                "holds": found_i is not None,
            }
        )
    holds = choices[0]["holds"]
    return TheoremVerdict(
        tid,
        True,
        holds,
        {
            "choices": choices,
            "all_choices_hold": all(c["holds"] for c in choices),
        },
    )


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
        e.eigen_basis[:, cols].copy(),
        e.n,
        tuple(e.valencies[c] for c in cols),
    )


def predict_fission_table(sym_table, split_row, a):
    """Predicted table of a one-pair fission splitting the last class.

    The designated row duplicates into a conjugate pair with entries
    (p_d(split) +- sqrt(a))/2 in the two new columns; every other row
    halves its last-column entry into both; a must be a negative
    rational.  Raises SplitRowMismatch when the halving pattern is
    impossible (odd split valency or multiplicity).
    """
    d = sym_table.d
    if not 1 <= split_row <= d:
        raise ValueError("split_row must be a non-valency row index")
    a = Fraction(a)
    if a >= 0:
        raise ValueError("a must be negative")
    if sym_table.multiplicities[split_row] % 2:
        raise SplitRowMismatch(
            f"split row multiplicity {sym_table.multiplicities[split_row]} is odd"
        )
    if sym_table.valencies[d] % 2:
        raise SplitRowMismatch(f"split valency {sym_table.valencies[d]} is odd")
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
    kd2 = sym_table.valencies[d] // 2
    top_exact = [QuadVal.rational(v) for v in sym_table.valencies[:d]]
    top_exact += [QuadVal.rational(kd2)] * 2
    rows_exact.append(top_exact)
    rows_val.append([complex(v) for v in sym_table.valencies[:d]] + [kd2, kd2])
    mults.append(1)
    for j in range(1, d + 1):
        base_exact = [sym_table.exact[j][c] for c in range(d)]
        base_val = [complex(sym_table.P[j, c]) for c in range(d)]
        if j == split_row:
            pd = sym_table.exact[j][d]
            if pd is not None and pd.is_rational:
                rho = (pd + root) * half
                rho_c = rho.to_complex()
                pair = [(rho, rho_c), (rho.conjugate(), rho_c.conjugate())]
            else:
                z = complex(sym_table.P[j, d])
                rt = cmath.sqrt(complex(a))
                pair = [(None, (z + rt) / 2), (None, (z - rt) / 2)]
            for (ex1, v1), (ex2, v2) in (
                (pair[0], pair[1]),
                (pair[1], pair[0]),
            ):
                rows_exact.append(base_exact + [ex1, ex2])
                rows_val.append(base_val + [v1, v2])
                mults.append(sym_table.multiplicities[j] // 2)
        else:
            ex, v = halved(sym_table.exact[j][d], complex(sym_table.P[j, d]))
            rows_exact.append(base_exact + [ex, ex])
            rows_val.append(base_val + [v, v])
            mults.append(sym_table.multiplicities[j])
    P = np.array(rows_val, dtype=np.complex128)
    valencies = tuple(sym_table.valencies[:d]) + (kd2, kd2)
    return EigenTable(
        P,
        tuple(mults),
        tuple(tuple(r) for r in rows_exact),
        P.copy(),
        sym_table.n,
        valencies,
    )


def _bottleneck_value(cost):
    """Minimum over row-to-column matchings of the largest matched cost.

    Binary search over the distinct costs for the smallest threshold whose
    admitted entries hold a perfect matching, found by augmenting paths.
    """
    m = cost.shape[0]

    def perfect(allowed):
        owner = [-1] * m

        def augment(i, seen):
            for j in np.flatnonzero(allowed[i]):
                if not seen[j]:
                    seen[j] = True
                    if owner[j] < 0 or augment(owner[j], seen):
                        owner[j] = i
                        return True
            return False

        return all(augment(i, [False] * m) for i in range(m))

    values = np.unique(cost)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if perfect(cost <= values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def compare_fission_tables(predicted, computed):
    """Max entrywise deviation after optimally matching rows.

    Columns must already be aligned; rows are matched by minimizing the
    worst per-row deviation (bottleneck assignment), so conjugate-pair
    order does not matter.
    """
    if predicted.P.shape != computed.P.shape:
        raise SplitRowMismatch(
            f"table shapes differ: {predicted.P.shape} vs {computed.P.shape}"
        )
    m = predicted.P.shape[0]
    cost = np.empty((m, m))
    for i in range(m):
        cost[i] = np.abs(predicted.P[i][None, :] - computed.P).max(axis=1)
    return _bottleneck_value(cost)


def check_theorem_fission(x):
    """Fission-table shape prediction (T3.1).

    Applicable to one-pair schemes with amorphic symmetrization.  The
    radicand a is extracted from the computed split row, snapped to a
    rational; holds when a < 0 and the predicted table matches the
    computed one entrywise within 1e-8 after column alignment.
    """
    tid = "T3.1"
    pair = _one_pair(x)
    if pair is None or not x.is_commutative:
        return TheoremVerdict(
            tid, False, None, {"reason": "needs exactly one transpose pair"}
        )
    sym, corr = symmetrize(x)
    am, cert = is_amorphic(sym)
    if not am:
        return TheoremVerdict(
            tid,
            False,
            None,
            {"reason": "symmetrization not amorphic", "certificate": cert},
        )
    p1, p2 = pair
    c_star = corr[p1]
    x_t = character_table(x)
    sym_t = character_table(sym)
    match = idempotent_matching(x, x_table=x_t, sym_table=sym_t)
    split = match.split_row
    col_perm = [0] + [c for c in range(1, sym.d + 1) if c != c_star] + [c_star]
    sym_aligned = permute_table_columns(sym_t, col_perm)
    ra = match.row_map[split][0]
    rho = complex(x_t.P[ra, p1])
    pd_split = complex(sym_t.P[split, c_star])
    aval = (2 * rho - pd_split) ** 2
    a = Fraction(aval.real).limit_denominator(64)
    snapped = (
        abs(aval.imag) < RESID_TOL and abs(aval.real - float(a)) < RESID_TOL
    )
    if not snapped or a >= 0:
        return TheoremVerdict(
            tid,
            True,
            False,
            {
                "reason": "extracted radicand not a negative rational",
                "a": [aval.real, aval.imag],
            },
        )
    predicted = predict_fission_table(sym_aligned, split, a)
    class_of = {corr[i]: i for i in range(1, x.d + 1) if i not in (p1, p2)}
    x_cols = [0] + [class_of[c] for c in col_perm[1:-1]] + [p1, p2]
    computed = permute_table_columns(x_t, x_cols)
    dev = compare_fission_tables(predicted, computed)
    holds = dev < RESID_TOL
    return TheoremVerdict(
        tid,
        True,
        holds,
        {
            "a": str(a),
            "split_row": split,
            "max_deviation": dev,
            "column_order": x_cols,
        },
    )


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
    scale = max(1.0, float(np.abs(x_t.P).max()))
    tol = 1e-9 * scale
    # match x rows to symmetrization rows by fused sums
    fused = np.stack(
        [x_t.P[:, 1] + x_t.P[:, 2], x_t.P[:, 3] + x_t.P[:, 4]], axis=1
    )
    target = np.stack([sym_t.P[1:, cA], sym_t.P[1:, cB]], axis=1)
    rows_of = {1: [], 2: []}
    for j in range(1, 5):
        dist = np.abs(fused[j] - target).max(axis=1)
        w = int(np.argmin(dist))
        if dist[w] > tol or dist[1 - w] < 10 * tol:
            raise TypeUnclassifiable(
                f"x row {j} does not match a unique symmetrization row"
            )
        rows_of[w + 1].append(j)
    if any(len(v) != 2 for v in rows_of.values()):
        raise TypeUnclassifiable("each symmetrization row must split in two")

    def rep_row(js, col):
        # deterministic conjugate choice: nonnegative imaginary part first
        j = max(js, key=lambda jj: (x_t.P[jj, col].imag, -jj))
        return j

    ja = rep_row(rows_of[1], 1)
    jb = rep_row(rows_of[2], 1)
    rho, tau = complex(x_t.P[ja, 1]), complex(x_t.P[ja, 3])
    sigma, omega = complex(x_t.P[jb, 1]), complex(x_t.P[jb, 3])
    im = {
        "rho": abs(rho.imag) > tol,
        "sigma": abs(sigma.imag) > tol,
        "tau": abs(tau.imag) > tol,
        "omega": abs(omega.imag) > tol,
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
    if typ == 3:
        radicands_ok = all(v["computed"] > tol for v in radicands.values())
    else:
        radicands_ok = all(v["residual"] < RESID_TOL for v in radicands.values())
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
        cnt = distinct_eigenvalue_count(x, u)
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
