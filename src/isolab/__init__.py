"""Exact arithmetic for slope decompositions of semilinear algebra.

Everything is computed over Z_q/p^N with certified valuations (no floats):
Newton slopes and isoclinic splittings of semilinear Frobenius modules,
nilpotent Lie brackets compatible with Frobenius, the
Baker-Campbell-Hausdorff group law with its integrality gate, root-datum
slope bookkeeping, and truncated perfected power-series rings with their
membership tests.  The ``isolab`` console script exposes every operation
as a JSON batch command.
"""

from .errors import (DegreeBoundTooSmall, DegreeTooLarge, DivisionByZero,
                     FieldSpecMismatch, FrobeniusLiftFailure,
                     InsufficientPrecision, InvariantViolated, IsolabError,
                     MalformedInput, NonInvertible, NonzeroConstantTerm,
                     NotNilpotent, ParameterMismatch, PrecisionExhausted,
                     ResidueFieldTooSmall, SequenceTooShort,
                     SlopeNotStrictlyNegative, SlopeOrderViolated,
                     SlopeOutOfRange, SplitUnavailable, UnsupportedType)
from .padic import FieldSpec, PadicScalar
from .isocrystal import (Isocrystal, internal_hom, newton_slopes, slope_part,
                         slope_split, standard_simple)
from .dieudonne import (DieudonneLie, aut_lie_algebra, dla_validate,
                        lattice_intersect_subspace, lower_central_series,
                        minimal_slope_center_check, pdiv_dimension,
                        smallest_f_stable_subalgebra)
from .bch import (FreeLieElement, bch_series, denominator_profile,
                  group_mul, lattice_closure_check, lie_project, rho_defect)
from .roots import (RootDatumWithCochar, adjoint_isocrystal,
                    adjoint_slope_cross_check, coxeter_gate, leaf_dimension,
                    slope_multiset_from_roots, unipotent_nilpotency)
from .perfseries import (PerfectedSeries, RestrictedParams, membership_ECd,
                         membership_restricted, ps_add, ps_compose, ps_embed,
                         ps_frobenius, ps_mul, ps_pow, ps_truncate_ideal,
                         rigidity_check, slope_exponents)

__version__ = "0.1.0"

__all__ = [
    "FieldSpec", "PadicScalar",
    "Isocrystal", "newton_slopes", "slope_split", "slope_part",
    "internal_hom", "standard_simple",
    "DieudonneLie", "dla_validate", "lower_central_series",
    "lattice_intersect_subspace", "pdiv_dimension",
    "minimal_slope_center_check", "aut_lie_algebra",
    "smallest_f_stable_subalgebra",
    "FreeLieElement", "lie_project", "bch_series", "denominator_profile",
    "group_mul", "lattice_closure_check", "rho_defect",
    "RootDatumWithCochar", "leaf_dimension", "slope_multiset_from_roots",
    "unipotent_nilpotency", "coxeter_gate", "adjoint_isocrystal",
    "adjoint_slope_cross_check",
    "PerfectedSeries", "RestrictedParams", "ps_add", "ps_mul", "ps_pow",
    "ps_frobenius", "ps_truncate_ideal", "ps_embed", "ps_compose",
    "membership_restricted", "membership_ECd", "rigidity_check",
    "slope_exponents",
    "IsolabError", "MalformedInput", "FrobeniusLiftFailure",
    "DivisionByZero", "PrecisionExhausted", "InsufficientPrecision",
    "NonInvertible", "ResidueFieldTooSmall", "FieldSpecMismatch",
    "NotNilpotent", "SlopeOutOfRange", "SlopeNotStrictlyNegative",
    "SplitUnavailable", "DegreeTooLarge", "UnsupportedType",
    "ParameterMismatch", "NonzeroConstantTerm", "SequenceTooShort",
    "DegreeBoundTooSmall", "SlopeOrderViolated", "InvariantViolated",
]
