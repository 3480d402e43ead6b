"""Exception hierarchy for scheme analysis.

Every failure mode gets its own class so callers can match on type instead
of parsing messages.  Parse and axiom errors carry enough location data to
point at the offending entry of a color matrix.
"""


class SchemeError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# parse errors

class ParseError(SchemeError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {col}" if col is not None else "") + ")"
        super().__init__(message + loc)


class MalformedHeader(ParseError):
    pass


class NonSquareBody(ParseError):
    pass


class OutOfRangeEntry(ParseError):
    pass


class NonzeroDiagonal(ParseError):
    pass


class MissingRelationIndex(ParseError):
    pass


# ---------------------------------------------------------------------------
# axiom violations

class AxiomViolation(SchemeError):
    """A color matrix is not an association scheme."""


class TransposeNotRelation(AxiomViolation):
    """Some relation's transpose is not a single relation class."""

    def __init__(self, i, x, y, expected, found):
        self.i, self.x, self.y = i, x, y
        self.expected, self.found = expected, found
        super().__init__(
            f"transpose of relation {i} is not a relation: arc ({x},{y}) has "
            f"color {i} but ({y},{x}) has color {found}, expected {expected}"
        )


class InconsistentIntersectionNumber(AxiomViolation):
    """p_{ij}^l is not constant over the pairs of some relation class."""

    def __init__(self, i, j, l, pair_a, count_a, pair_b, count_b):
        self.i, self.j, self.l = i, j, l
        self.pair_a, self.count_a = pair_a, count_a
        self.pair_b, self.count_b = pair_b, count_b
        super().__init__(
            f"intersection number p[{i},{j}]^{l} not constant: "
            f"pair {pair_a} gives {count_a}, pair {pair_b} gives {count_b}"
        )

    @classmethod
    def from_witness(cls, witness):
        """The violation named by a kernel witness (i, j, l, x1, y1, c1, x2, y2, c2)."""
        i, j, l, xa, ya, ca, xb, yb, cb = (int(v) for v in witness)
        return cls(i, j, l, (xa, ya), ca, (xb, yb), cb)


class ViolationNotReproduced(SchemeError):
    """The axiom kernel found a violating pair that its recount clears."""


class NonCommutative(SchemeError):
    """Operation requires a commutative scheme."""


# ---------------------------------------------------------------------------
# spectral errors

class EigenSeparationFailure(SchemeError):
    """Random combinations failed to separate the common eigenspaces."""


class MultiplicityNotIntegral(SchemeError):
    def __init__(self, row, value):
        self.row, self.value = row, value
        super().__init__(f"multiplicity of eigenrow {row} is {value}, not an integer")


class MultiplicitySumMismatch(SchemeError):
    """Multiplicities of a character table fail m_0 = 1, sum m_j = n."""


class ToleranceAmbiguity(SchemeError):
    """A floating comparison fell into the ambiguous band around the tolerance."""


class EntryNotQuarterIntegral(SchemeError):
    """A snapped table entry q + r*sqrt(v) has 4q or 4r not an integer, so it
    is not (u +- sqrt(w))/2 with u and w of denominator at most 2."""

    def __init__(self, row, col, value):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"entry ({row}, {col}) = {value} is not a quarter-integral radical")


# ---------------------------------------------------------------------------
# fusion errors

class TooManyClasses(SchemeError):
    """Partition enumeration guard: too many classes to enumerate."""


class NotAScheme(SchemeError):
    """A fused coloring violates the scheme axioms."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NormalFormUnreachable(SchemeError):
    """No row/column permutation brings a table to amorphic normal form."""


class MatchingAmbiguous(SchemeError):
    """Eigenrow matching between a scheme and its symmetrization is ambiguous."""


class SymmetrizationCheckFailed(SchemeError):
    """The spectral criterion rejects a symmetrization, which always fuses."""


# ---------------------------------------------------------------------------
# exact-arithmetic invariants: a defect or corrupted data, never a verdict

class MinpolyDegreeExceeded(SchemeError):
    """Powers of an m x m matrix stayed independent past degree m."""

    def __init__(self, dim):
        self.dim = dim
        super().__init__(f"minimal polynomial degree exceeded the dimension {dim}")


class WitnessRejected(SchemeError):
    """A witness polynomial does not reproduce its basis matrix on the
    (d+1) x (d+1) regular representation.

    union is the union tuple; i is the class whose witness failed.
    """

    def __init__(self, message, union, i):
        self.union, self.i = tuple(union), i
        super().__init__(f"union {list(self.union)}, class {i}: {message}")


# ---------------------------------------------------------------------------
# fission / classification errors

class SplitRowMismatch(SchemeError):
    """Computed fission table does not match the predicted split-row pattern."""


class TypeUnclassifiable(SchemeError):
    """A skew 4-class table fits none of the three fission types."""


# ---------------------------------------------------------------------------
# strongly regular graph errors

class NotStronglyRegular(SchemeError):
    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class InfeasibleParameters(SchemeError):
    """SRG parameters fail an integrality or sign condition."""


class SrgCheckFailed(SchemeError):
    """An internal cross-check of an SRG extraction failed.

    check is "valency" when the fused union class has the wrong valency and
    "connectivity" when mu > 0 disagrees with the component count read
    from the union's closed subset.
    """

    def __init__(self, message, union, check):
        self.union, self.check = tuple(union), check
        super().__init__(f"union {list(self.union)}: {message}")


# ---------------------------------------------------------------------------
# builder errors

class NotPrime(SchemeError):
    """Cyclotomic builder needs a prime power field order."""


class BadDivisor(SchemeError):
    """Cyclotomic class count must divide q - 1."""


class NotTransitive(SchemeError):
    """Orbital construction needs a transitive group."""


class TooLarge(SchemeError):
    """Construction exceeds the supported size bounds."""


class BuilderTensorMismatch(SchemeError):
    """A builder's tensor differs from the one the axiom kernel finds on
    the builder's coloring: a defect in the builder."""

    def __init__(self, i, j, l, built, kernel):
        self.i, self.j, self.l = i, j, l
        self.built, self.kernel = built, kernel
        super().__init__(
            f"built p[{i},{j}]^{l} = {built} but the axiom kernel gives {kernel}"
        )


class FieldCheckFailed(SchemeError):
    """Building GF(p^k) broke an invariant of finite fields.

    check is "modulus" when no monic irreducible of degree k was found,
    "order" when an element's powers never return to 1, and "generator"
    when no element has order q - 1.
    """

    def __init__(self, message, p, k, check):
        self.p, self.k, self.check = p, k, check
        super().__init__(f"GF({p}^{k}): {message}")
