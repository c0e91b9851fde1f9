"""The Exact references: the p-adic ones against rational arithmetic,
the BCH ones against bch_series."""

import random
from fractions import Fraction

from isolab import FieldSpec, PadicScalar, bch_series
from isolab.errors import InsufficientPrecision

from reference import (claims_agree, rat_charpoly, ref_bch_double_sum,
                       ref_bch_matrix_oracle, ref_charpoly, ref_mat_mul,
                       ref_scalar_add, ref_scalar_mul)

SPECS = [FieldSpec(p, f, N) for p in (2, 3, 5, 7) for f in (1, 2, 3)
         for N in (2, 3, 6, 12)]


def _rational(rng, p):
    """0 now and then, else a small rational of valuation -2..2."""
    if rng.random() < 0.15:
        return Fraction(0)
    return Fraction(rng.randint(-30, 30) * p ** rng.randint(0, 2),
                    rng.choice((1, 2, 3, p, p * p)))


def _entry(rng, spec, x):
    """x to relative precision N, or now and then cut to O(p^b), b below
    or above its valuation."""
    a = PadicScalar.from_fraction(spec, x)
    if rng.random() < 0.3:
        a = ref_scalar_add(a, PadicScalar.zero(spec, rng.randint(-2, spec.N)))
    return a


def test_exact_references_claim_only_true_digits():
    # every entry is checked by claims_agree: each output of the four
    # references, and each input, cut or not
    rng = random.Random(61)
    violations, nonzero, zero = [], {}, {}

    def check(op, got, exact):
        seen = zero if got.is_zero else nonzero
        seen[op] = seen.get(op, 0) + 1
        if not claims_agree(got, exact):
            violations.append((op, got, exact))

    raised = 0
    for _ in range(800):
        spec = rng.choice(SPECS)
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        X = [[_rational(rng, spec.p) for _ in range(n)] for _ in range(n)]
        Y = [[_rational(rng, spec.p) for _ in range(m)] for _ in range(n)]
        A = [[_entry(rng, spec, x) for x in row] for row in X]
        B = [[_entry(rng, spec, y) for y in row] for row in Y]
        for a, x in zip(sum(A + B, []), sum(X + Y, [])):
            check("input", a, x)
        try:
            for c, exact in zip(ref_charpoly(A, spec), rat_charpoly(X)):
                check("charpoly", c, exact)
        except InsufficientPrecision:
            raised += 1
        for row, xrow in zip(ref_mat_mul(A, B), X):
            for j, c in enumerate(row):
                check("mat_mul", c, sum(x * y[j] for x, y in zip(xrow, Y)))
        for a, b, x, y in zip(sum(A, []), sum(B, []), sum(X, []), sum(Y, [])):
            check("add", ref_scalar_add(a, b), x + y)
            check("sub", ref_scalar_add(a, -b), x - y)
            check("mul", ref_scalar_mul(a, b), x * y)
    assert violations == []
    assert raised < 400 and min(nonzero.values()) > 1000
    assert set(nonzero) == set(zero) == {"input", "charpoly", "mat_mul",
                                         "add", "sub", "mul"}


def test_matrix_oracle_through_degree_5():
    for c in range(1, 6):
        assert ref_bch_matrix_oracle(c) is None


def test_double_sum_oracle_through_degree_5():
    for c in range(1, 6):
        a = bch_series(c)
        b = ref_bch_double_sum(c)
        assert a.terms == b.terms
