"""Error taxonomy.

Every library error carries a stable machine-readable ``code`` (its class
name) and an optional ``witness`` payload; the CLI surfaces both verbatim
and maps any IsolabError to exit status 2.
"""


class IsolabError(Exception):
    """Base class: a violated precondition or an uncertifiable computation."""

    def __init__(self, message="", witness=None):
        super().__init__(message)
        self.witness = witness

    @property
    def code(self):
        return type(self).__name__

    def to_json(self):
        return {"error": self.code, "witness": self.witness,
                "message": str(self) or None}


class InvariantViolated(IsolabError):
    """An internal invariant failed: a bug, not a property of the input.

    Lost precision is reported as InsufficientPrecision instead.
    """


# --- scalar arithmetic ---------------------------------------------------

class FrobeniusLiftFailure(IsolabError):
    """Hensel iteration for the Frobenius lift failed to converge."""


class DivisionByZero(IsolabError):
    """Inversion of a value that is zero to working precision."""


class PrecisionExhausted(IsolabError):
    """An operation would leave no certified digits."""


# --- isocrystals ----------------------------------------------------------

class InsufficientPrecision(IsolabError):
    """A required valuation or pivot cannot be certified at precision N."""


class NonInvertible(IsolabError):
    """A determinant (or pivot) is zero to working precision."""


class ResidueFieldTooSmall(IsolabError):
    """Splitting an isoclinic block needs a larger residue field.

    The required degree is reported in ``witness``; the base is never
    extended silently.
    """


class FieldSpecMismatch(IsolabError):
    """Operands live over different coefficient rings."""


# --- Lie-algebra side -----------------------------------------------------

class NotNilpotent(IsolabError):
    """The lower central series stabilized at a nonzero subspace."""


class SlopeOutOfRange(IsolabError):
    """A slope fell outside the admissible window [-1, 0]."""


class SlopeNotStrictlyNegative(IsolabError):
    """An operation requiring strictly negative slopes saw slope >= 0."""


class SplitUnavailable(IsolabError):
    """A split that is not available: no F-equivariant complement exists at
    the working precision, or no precision gives it here, as for a fine
    split inside one slope whose denominator divides f."""


class DegreeTooLarge(IsolabError):
    """A series degree beyond the configured bound was requested."""


# --- root data ------------------------------------------------------------

class UnsupportedType(IsolabError):
    """Root-datum type without a matrix realization in scope."""


# --- perfected series -----------------------------------------------------

class ParameterMismatch(IsolabError):
    """Series operands disagree on p, variable count, field or bound."""


class NonzeroConstantTerm(IsolabError):
    """Composition requires substituted series with zero constant term."""


class SequenceTooShort(IsolabError):
    """An empty congruence-degree sequence was supplied."""


class DegreeBoundTooSmall(IsolabError):
    """A requested ideal power exceeds what the degree bound certifies."""


class SlopeOrderViolated(IsolabError):
    """Slope magnitudes supplied in the wrong order (needs 0 < mu0 < mu1 <= 1)."""


class MalformedInput(IsolabError):
    """Input JSON does not match the published schema (CLI exit 1)."""
