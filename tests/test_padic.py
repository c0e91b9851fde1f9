import json
import random
import time
from fractions import Fraction

import pytest

from isolab import (DieudonneLie, FieldSpec, Isocrystal, PadicScalar,
                    PerfectedSeries, padic, RootDatumWithCochar, membership_ECd,
                    ps_compose, rigidity_check, slope_exponents, slope_part)
from isolab.dieudonne import lattice_intersect_subspace, pdiv_dimension
from isolab.errors import (DivisionByZero, FieldSpecMismatch, MalformedInput,
                           PrecisionExhausted)
from isolab.padic import (_BASES, P_CEILING, _is_prime, _rational, _sequence,
                          canonical_modulus)
from isolab.perfseries import ps_scale

from reference import (X, iso, mono, ref_canonical_modulus, ref_invert,
                       ref_raw_inv_unit, ref_red_rows, ref_scalar_add,
                       ref_scalar_mul, ref_sigma_mats, run_optimized)


Z5 = FieldSpec(5, 1, 10)
Z4 = FieldSpec(2, 2, 4)


def test_valuation_extraction():
    # 5^3 * (1 + 5)
    x = PadicScalar.from_int(Z5, 125 * 6)
    assert x.valuation() == 3
    assert x.unit[0] % 5 == 1


def test_zero_reports_precision_bound():
    spec = FieldSpec(5, 1, 6)
    z = PadicScalar.zero(spec)
    assert z.is_zero
    assert z.valuation().bound == 6


def test_from_coeffs_refuses_a_tuple_of_the_wrong_length():
    for coeffs in ((), (1, 0, 0)):
        with pytest.raises(MalformedInput) as exc:
            PadicScalar.from_coeffs(Z4, coeffs)
        assert str(exc.value) == "coefficient tuple has wrong length"
        assert exc.value.witness == list(coeffs)


def test_generator_is_unit():
    t = PadicScalar.from_coeffs(Z4, [0, 1])
    assert t.valuation() == 0


def test_sigma_fixes_prime_field():
    x = PadicScalar.from_int(Z4, 5)
    assert (x.sigma() - x).is_zero


def test_sigma_squared_is_identity_f2():
    t = PadicScalar.from_coeffs(Z4, [0, 1])
    assert (t.sigma().sigma() - t).is_zero
    # and sigma(t) is a genuinely different element
    assert not (t.sigma() - t).is_zero


def test_sigma_congruent_to_pth_power_mod_p():
    spec = FieldSpec(3, 4, 6)
    rng = random.Random(7)
    for _ in range(10):
        x = PadicScalar.from_coeffs(spec, [rng.randrange(3 ** 6)
                                           for _ in range(4)])
        d = x.sigma() - x * x * x
        assert d.is_zero or d.valuation() >= 1


def test_sigma_order_divides_f():
    spec = FieldSpec(2, 3, 5)
    t = PadicScalar.from_coeffs(spec, [0, 1, 0])
    y = t
    for _ in range(3):
        y = y.sigma()
    assert (y - t).is_zero


def test_invert_one():
    one = PadicScalar.from_int(Z5, 1)
    assert (one.invert() - one).is_zero


def test_invert_p():
    x = PadicScalar.from_int(Z5, 5).invert()
    assert x.valuation() == -1
    assert x.unit[0] == 1


def test_invert_geometric_series():
    spec = FieldSpec(3, 1, 4)
    x = PadicScalar.from_int(spec, 4)
    inv = x.invert()
    expected = PadicScalar.from_int(spec, (1 - 3 + 9 - 27) % 81)
    assert (inv - expected).is_zero
    assert ((x * inv) - PadicScalar.from_int(spec, 1)).is_zero


def test_divide_by_zero_raises():
    with pytest.raises(DivisionByZero):
        PadicScalar.zero(Z5).invert()


def test_precision_exhaustion():
    spec = FieldSpec(5, 1, 4)
    with pytest.raises(PrecisionExhausted):
        PadicScalar.from_raw(spec, (1,), 4, 4)


@pytest.mark.parametrize("spec", [Z5, Z4, FieldSpec(3, 3, 6)],
                         ids=["Z5", "Z4", "Z27"])
def test_from_raw_all_zero_is_the_zero(spec):
    zero = (0,) * spec.f
    for shift in range(-3, 4):
        for abs_prec in range(shift + 1, shift + spec.N + 3):
            rel_mod = abs_prec - shift
            # the same zero as a tuple whose entries are all 0 mod p^rel_mod
            same = (spec.p ** rel_mod,) + zero[1:]
            assert not any(c % spec.p ** rel_mod for c in same)
            want = PadicScalar.from_raw(spec, same, shift, abs_prec)
            got = PadicScalar.from_raw(spec, zero, shift, abs_prec)
            assert got.is_zero and got.abs_prec == abs_prec
            assert got.to_json() == want.to_json()
            assert got.to_json() == PadicScalar.zero(spec, abs_prec).to_json()
        for abs_prec in range(shift - 2, shift + 1):
            # no certified digits: raised before the zero is recognised
            with pytest.raises(PrecisionExhausted) as exc:
                PadicScalar.from_raw(spec, zero, shift, abs_prec)
            assert exc.value.witness == {"abs": abs_prec, "shift": shift}


def test_from_raw_represents_its_input():
    # ref_scalar_add and ref_charpoly normalize through from_raw too, so
    # this checks it against its contract directly: coefficients negative
    # or up to p^(2N), shifts -6..6, abs_prec from shift + 1 to shift + 2N
    rng = random.Random(29)
    zeros = units = raised = capped = 0
    for spec in [FieldSpec(p, f, N) for p in (2, 3, 5) for f in (1, 2, 3)
                 for N in (1, 2, 4)]:
        p, N = spec.p, spec.N
        for _ in range(60):
            shift = rng.randint(-6, 6)
            abs_prec = rng.randint(shift + 1, shift + 2 * N)
            rel_mod = abs_prec - shift
            # a shared power of p makes low valuations and vanishing sums
            common = p ** rng.choice((0, 0, rng.randint(0, rel_mod + 1)))
            coeffs = tuple(
                common * rng.randint(-p ** (2 * N), p ** (2 * N))
                * rng.choice((0, 1, 1, p, p ** N)) for _ in range(spec.f))
            x = PadicScalar.from_raw(spec, coeffs, shift, abs_prec)
            pM = p ** rel_mod
            if all(c % pM == 0 for c in coeffs):
                assert x.is_zero and x.abs_prec == abs_prec
                zeros += 1
                continue
            assert not x.is_zero
            # p^v * unit_i = p^shift * c_i mod p^abs, or mod p^(v + N) where
            # the cap N cuts the relative precision; divided by p^shift
            mod = p ** (x.abs_prec - shift)
            assert all((u * p ** (x.v - shift) - c) % mod == 0
                       for u, c in zip(x.unit, coeffs))
            assert any(u % p for u in x.unit)
            assert x.rel == min(abs_prec - x.v, N)
            assert all(0 <= u < p ** x.rel for u in x.unit)
            units += 1
            raised += x.v > shift
            capped += x.rel < abs_prec - x.v
    # raised: the unit's valuation is above the shift; capped: N cuts rel
    assert zeros > 400 and units > 600 and raised > 250 and capped > 200


def _rand_scalar(spec, rng):
    v = rng.randrange(-2, 3)
    coeffs = [rng.randrange(spec.p ** spec.N) for _ in range(spec.f)]
    if all(c % spec.p == 0 for c in coeffs):
        coeffs[0] += 1
    return PadicScalar.from_coeffs(spec, coeffs, valuation=v)


@pytest.mark.parametrize("p,f", [(2, 1), (5, 2), (3, 3)])
def test_ring_laws(p, f):
    spec = FieldSpec(p, f, 8)
    rng = random.Random(100 * p + f)
    for _ in range(25):
        a, b, c = (_rand_scalar(spec, rng) for _ in range(3))
        assert ((a + b) + c - (a + (b + c))).is_zero
        assert ((a + b) * c - (a * c + b * c)).is_zero
        assert (a * b - b * a).is_zero


def test_valuation_rules():
    rng = random.Random(11)
    spec = FieldSpec(7, 2, 8)
    for _ in range(25):
        a = _rand_scalar(spec, rng)
        b = _rand_scalar(spec, rng)
        assert (a * b).valuation() == a.valuation() + b.valuation()
        s = a + b
        if not s.is_zero:
            assert s.valuation() >= min(a.valuation(), b.valuation())
        if a.valuation() != b.valuation():
            assert s.valuation() == min(a.valuation(), b.valuation())


def test_sigma_is_ring_hom():
    rng = random.Random(13)
    spec = FieldSpec(3, 2, 6)
    for _ in range(20):
        a = _rand_scalar(spec, rng)
        b = _rand_scalar(spec, rng)
        assert ((a + b).sigma() - (a.sigma() + b.sigma())).is_zero
        assert ((a * b).sigma() - a.sigma() * b.sigma()).is_zero


def test_json_round_trip():
    rng = random.Random(17)
    spec = FieldSpec(5, 2, 6)
    for _ in range(10):
        x = _rand_scalar(spec, rng)
        y = PadicScalar.from_json(spec, x.to_json())
        assert (x - y).is_zero
    z = PadicScalar.zero(spec, bound=3)
    assert PadicScalar.from_json(spec, z.to_json()).is_zero


def test_fieldspec_refuses_booleans_and_non_integral_values():
    # no other test builds a spec with p = 13, so no cached spec decides:
    # FieldSpec(13, True, 5) used to be kept under the key of (13, 1, 5)
    for args in ((13, True, 5), (True, 1, 5), (13, 1, False), (13, 1, 2.5),
                 (13, 1.5, 5), (13.5, 1, 5), (13, 1, "5")):
        with pytest.raises(MalformedInput) as exc:
            FieldSpec(*args)
        assert str(exc.value) == "need prime p >= 2, f >= 1, N >= 1"
        assert exc.value.witness == dict(zip("pfN", args))
    # an integral value is keyed and stored as an int
    spec = FieldSpec(13.0, 1, Fraction(5))
    assert spec is FieldSpec(13, 1, 5) is FieldSpec(13, 1.0, 5.0)
    assert json.dumps(spec.to_json()) == '{"p": 13, "f": 1, "N": 5}'
    assert type(spec.pN) is int and spec.pN == 13 ** 5


#: psi_12 and psi_13, the least strong pseudoprimes to the first 12 and 13
#: prime bases (Sorenson and Webster, Math. Comp. 86, 2017)
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(
        pow(x, 2 ** k, n) == n - 1 for k in range(1, s))


def test_is_prime_is_deterministic_below_the_ceiling():
    assert PSI12 == 399165290221 * 798330580441
    assert PSI13 == 1287836182261 * 2575672364521 == P_CEILING
    # psi_12 passes the first twelve bases, and the thirteenth, 41, refuses
    # it; psi_13 passes all thirteen, so p stops below it
    assert all(_strong_probable_prime(PSI12, a) for a in _BASES[:12])
    assert not _strong_probable_prime(PSI12, 41) and not _is_prime(PSI12)
    assert all(_strong_probable_prime(PSI13, a) for a in _BASES)
    assert _is_prime(2 ** 61 - 1) and not _is_prime(2021)
    spec = FieldSpec(2 ** 61 - 1, 1, 4)
    assert spec.p == 2 ** 61 - 1
    small = [n for n in range(2, 3000)
             if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert list(filter(_is_prime, range(3000))) == small


CEILING = {"ceiling": PSI13}


@pytest.mark.parametrize("args, message, witness", [
    ((5, 0, 4), "need prime p >= 2, f >= 1, N >= 1", {"p": 5, "f": 0, "N": 4}),
    ((1763, 1, 4), "p must be prime", {"p": 1763}),
    ((2021, 1, 4), "p must be prime", {"p": 2021}),
    ((PSI12, 1, 4), "p must be prime", {"p": PSI12}),
    ((PSI13, 1, 4), "p must be below the ceiling", CEILING),
    ((2 ** 89 - 1, 1, 4), "p must be below the ceiling", CEILING),
    ((10 ** 4000 + 1, 1, 4), "p must be below the ceiling", CEILING),
    ((10 ** 4000 + 1, 0, 4), "p must be below the ceiling", CEILING),
], ids=["f-0", "41-43", "43-47", "psi12", "psi13", "mersenne-89",
        "4000-digits", "4000-digits-f-0"])
def test_fieldspec_refuses_each_bad_p_f_and_n(args, message, witness,
                                              monkeypatch):
    # 1763 = 41 * 43 meets a trial divisor and 2021 = 43 * 47 a
    # Miller-Rabin base; 2^89 - 1 is prime but above the ceiling, and a p
    # above it is refused before any primality test, with the ceiling and
    # never p as witness
    if witness == CEILING:  # a primality test here would fail the case
        def refuse(n):
            raise AssertionError("_is_prime ran on a p above the ceiling")
        monkeypatch.setattr(padic, "_is_prime", refuse)
    with pytest.raises(MalformedInput) as exc:
        FieldSpec(*args)
    assert str(exc.value) == message
    assert exc.value.witness == witness


#: each site that reads a rational parameter, and its whole refusal message
RATIONAL_SITES = {
    "from_fraction": (lambda v: PadicScalar.from_fraction(Z5, v),
                      "value must be rational"),
    "from_rationals": (lambda v: Isocrystal.from_rationals(Z5, [[v]]),
                       "value must be rational"),
    "slope_part": (lambda v: slope_part(iso([[Fraction(1, 5)]]), ("eq", v)),
                   "unknown slope predicate"),
    "RootDatumWithCochar": (lambda v: RootDatumWithCochar("GL", 2, [v, 0]),
                            "cocharacter entries must be rational"),
    "membership_ECd": (lambda v: membership_ECd(mono(2, Fraction(1, 2)), v,
                                                1, 0),
                       "E, C and d must be rational"),
    "slope_exponents": (lambda v: slope_exponents(v, Fraction(1, 2)),
                        "slopes must be rational"),
    "pdiv_dimension": (lambda v: pdiv_dimension([(v, 1)]),
                       "a slope pair is a rational slope and a non-negative "
                       "integer multiplicity"),
}


@pytest.mark.parametrize("value", ["x", None, "1/0", float("inf"),
                                   float("nan"), True],
                         ids=["string", "none", "zero-denominator", "inf",
                              "nan", "bool"])
@pytest.mark.parametrize("site", sorted(RATIONAL_SITES))
def test_rational_parameters_follow_one_rule(site, value):
    # each site reads through padic._rational and refuses with its own
    # MalformedInput, never a bare exception or a boolean read as 0 or 1
    call, message = RATIONAL_SITES[site]
    assert _rational(value) is None
    with pytest.raises(MalformedInput) as exc:
        call(value)
    assert str(exc.value) == message


#: each site that reads a sequence parameter: its call, a value it reads,
#: and its whole refusal message
SEQUENCE_SITES = {
    "from_coeffs": (lambda v: PadicScalar.from_coeffs(Z5, v), (1,),
                    "coefficients must be a sequence"),
    "series-terms": (lambda v: PerfectedSeries(3, 1, 1, 4, v),
                     {(Fraction(1),): (1,)},
                     "terms must map exponents to coefficients"),
    "series-exponent": (lambda v: PerfectedSeries(3, 1, 1, 4, {v: (1,)}),
                        (Fraction(1),), "an exponent must be a sequence"),
    "series-coefficient": (
        lambda v: PerfectedSeries(3, 1, 1, 4, {(Fraction(1),): v}), (1,),
        "a coefficient must be a sequence"),
    "ps_scale": (lambda v: ps_scale(mono(3, 1), v), (1,),
                 "a coefficient must be a sequence"),
    "ps_compose": (lambda v: ps_compose(X(3), v), [X(3)],
                   "g and h must be sequences of series"),
    "rigidity-g": (lambda v: rigidity_check(X(3), v, [], 1, [1]), [X(3)],
                   "g, h and d_seq must be sequences"),
    "rigidity-d_seq": (lambda v: rigidity_check(X(3), [X(3)], [], 1, v), [1],
                       "g, h and d_seq must be sequences"),
    "Isocrystal": (lambda v: Isocrystal(Z5, v),
                   [[PadicScalar.from_int(Z5, 1)]],
                   "frobenius matrix must be a sequence of rows"),
    "from_rationals": (lambda v: Isocrystal.from_rationals(Z5, v), [[1]],
                       "a matrix must be a sequence of rows"),
    "DieudonneLie": (lambda v: DieudonneLie(iso([[1]], Z5), v),
                     [[[PadicScalar.zero(Z5)]]],
                     "structure constants must be n x n x n"),
    "lattice_intersect_subspace": (
        lambda v: lattice_intersect_subspace(
            v, [[PadicScalar.from_int(Z5, 1)]]),
        [[PadicScalar.from_int(Z5, 1)]],
        "lattice and subspace must be sequences of vectors"),
    "RootDatumWithCochar": (lambda v: RootDatumWithCochar("GL", 2, v),
                            (1, 0), "cocharacter must be a sequence of "
                            "rationals"),
}


@pytest.mark.parametrize("site,value", [
    *((site, v) for site in sorted(SEQUENCE_SITES)
      for v in (5, None, "x", iter(()))),
    ("series-terms", [])],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_sequence_parameters_follow_one_rule(site, value):
    # each site reads through padic._sequence and refuses with its own
    # MalformedInput, never a bare TypeError or AttributeError, and never
    # a one-letter string read as a one-entry sequence; series terms are a
    # mapping, so a list is refused too
    call, valid, message = SEQUENCE_SITES[site]
    call(valid)
    with pytest.raises(MalformedInput) as exc:
        call(value)
    assert str(exc.value) == message


def test_sequence_reads_lists_tuples_and_ranges():
    for v in ([], [1], (), (1, "x"), range(3)):
        assert _sequence(v)
    for v in ("", "ab", b"ab", {}, {1}, 5, None, iter([1])):
        assert not _sequence(v)


def test_rational_reads_numbers_and_rational_strings():
    for v, want in ((2, 2), (-1.5, Fraction(-3, 2)), ("1/3", Fraction(1, 3)),
                    (" -2/4 ", Fraction(-1, 2)),
                    (Fraction(5, 7), Fraction(5, 7))):
        got = _rational(v)
        assert type(got) is Fraction and got == want
    for v in ([1], (1, 2), {}, "", "1/2/3", float("-inf")):
        assert _rational(v) is None


def test_fieldspec_json_round_trip():
    spec = FieldSpec(7, 3, 9)
    assert FieldSpec.from_json(spec.to_json()) is spec  # interned


def test_canonical_modulus_irreducible_and_deterministic():
    a = FieldSpec(2, 2, 4)
    b = FieldSpec(2, 2, 4)
    assert a is b
    # t^2 + t + 1 is the canonical degree-2 modulus mod 2
    assert a.g_low == (1, 1)


#: (p, f) -> (a_0, .., a_{f-1}) of t^f + sum a_i t^i; the modulus fixes every
#: digit of every Z_q answer, so it must never move
CANONICAL_MODULI = {
    (2, 1): (0,), (2, 2): (1, 1), (2, 3): (1, 1, 0), (2, 4): (1, 1, 0, 0),
    (3, 1): (0,), (3, 2): (1, 0), (3, 3): (1, 2, 0), (3, 4): (2, 1, 0, 0),
    (5, 1): (0,), (5, 2): (2, 0), (5, 3): (1, 1, 0), (5, 4): (2, 0, 0, 0),
    (7, 1): (0,), (7, 2): (1, 0), (7, 3): (2, 0, 0), (7, 4): (1, 1, 0, 0),
}


@pytest.mark.parametrize("p,f", sorted(CANONICAL_MODULI))
def test_canonical_modulus_table(p, f):
    assert canonical_modulus(p, f) == CANONICAL_MODULI[p, f]


def test_canonical_modulus_matches_the_full_scan():
    # 119 pairs; both kinds of answer occur: a binomial t^f + a_0, and a
    # modulus found after the binomials
    binomial, pairs = set(), 0
    for p in filter(_is_prime, range(60)):
        for f in range(2, 9):
            want = ref_canonical_modulus(p, f)
            assert canonical_modulus(p, f) == want
            binomial.add(want[1:] == (0,) * (f - 1))
            pairs += 1
    assert pairs == 119 and binomial == {True, False}


@pytest.mark.parametrize("f, want", [(3, (1, 1, 0)), (4, (6, 1, 0, 0))])
def test_canonical_modulus_skips_the_binomials_at_a_large_p(f, want):
    # 10007 - 1 = 2 * 5003 and 10007 = 3 mod 4: no binomial of degree 3
    # or 4 is irreducible, and the answer is the second candidate after
    # them
    canonical_modulus.cache_clear()
    start = time.perf_counter()
    assert canonical_modulus(10007, f) == want
    assert time.perf_counter() - start < 0.5


def test_raw_inv_unit_random_units():
    rng = random.Random(6)
    for p in (2, 3, 5, 7):
        for f in (2, 3, 4):
            spec = FieldSpec(p, f, 6)
            one = (1,) + (0,) * (f - 1)
            for pM in (p, p ** 6):
                for _ in range(8):
                    u = tuple(rng.randrange(pM) for _ in range(f))
                    if all(c % p == 0 for c in u):
                        u = (u[0] + 1,) + u[1:]
                    inv = spec.raw_inv_unit(u, pM)
                    assert all(0 <= c < pM for c in inv)
                    assert spec.raw_mul(inv, u, pM) == one


# ---- the norm inverse against the Newton inverse it replaced ----

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_norm_inverse_matches_newton_inverse(p):
    rng = random.Random(59 * p)
    N = 10
    for f in range(1, 17):
        spec = FieldSpec(p, f, N)
        for rel in range(1, N + 1):
            pM = p ** rel
            for _ in range(3):
                # coefficients up to p^(N + 3): not reduced mod pM
                u = [rng.randrange(p ** (N + 3)) for _ in range(f)]
                if all(c % p == 0 for c in u):
                    u[rng.randrange(f)] += 1
                u = tuple(u)
                assert spec.raw_inv_unit(u, pM) == ref_raw_inv_unit(
                    spec, tuple(c % pM for c in u), pM)
                x = PadicScalar(spec, rng.randint(-3, 3), u, rel)
                got, want = x.invert(), ref_invert(x)
                assert (got.v, got.unit, got.rel) == \
                    (want.v, want.unit, want.rel)


NON_UNITS = [(FieldSpec(3, 1, 6), (9,)), (FieldSpec(5, 2, 6), (5, 25)),
             (FieldSpec(2, 3, 8), (0, 2, 4)), (FieldSpec(7, 4, 5), (0,) * 4)]


@pytest.mark.parametrize("spec,u", NON_UNITS,
                         ids=[f"f{s.f}" for s, _ in NON_UNITS])
def test_raw_inv_unit_rejects_a_non_unit(spec, u):
    with pytest.raises(DivisionByZero) as exc:
        spec.raw_inv_unit(u, spec.pN)
    assert exc.value.witness == list(u)


def test_raw_inv_unit_rejects_a_non_unit_under_optimize():
    # the guard must not be an assert, which -O strips
    snippet = ("from isolab import FieldSpec\n"
               "from isolab.errors import DivisionByZero\n"
               "for p, f, u in [(3, 1, (9,)), (5, 2, (5, 25))]:\n"
               "    try:\n"
               "        FieldSpec(p, f, 6).raw_inv_unit(u, p ** 6)\n"
               "    except DivisionByZero as exc:\n"
               "        print(exc.witness)\n")
    assert run_optimized(snippet) == "[9]\n[5, 25]\n"


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sigma_tables_match_newton_lift(p):
    cases = [(f, N) for f in range(2, 7) for N in range(1, 41)]
    cases += [(f, N) for f in range(7, 13) for N in (1, 8, 40)]
    for f, N in cases:
        spec = FieldSpec(p, f, N)
        spec._build_sigma()
        assert spec._sigma_mats == ref_sigma_mats(spec), (f, N)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_red_rows_match_shift_and_fold(p):
    N = 6
    for f in range(1, 17):
        spec = FieldSpec(p, f, N)
        for pM in (p, p ** N, p ** (2 * N + 3)):
            assert spec.red_rows(pM) == ref_red_rows(spec, pM), (f, pM)


def test_from_fraction_matches_division():
    spec = FieldSpec(5, 1, 8)
    x = PadicScalar.from_fraction(spec, Fraction(7, 3))
    y = PadicScalar.from_int(spec, 7) / PadicScalar.from_int(spec, 3)
    assert (x - y).is_zero


def test_sigma_invert_pow_known_answer():
    """Digits of a product, inverse and power in Z_81/3^12 are pinned."""
    s = FieldSpec(3, 4, 12)
    t = PadicScalar.from_coeffs(s, [2, 1, 0, 2])
    y = t.sigma() * t.invert()
    x = y * y * y * y * y
    assert x.to_json() == {"valuation": 0,
                           "unit": [130222, 337662, 27132, 22656]}


def _mixed_scalar(spec, rng):
    """Any relative precision, units that are not reduced mod p^rel, and
    zeros to precision."""
    if rng.random() < 0.15:
        return PadicScalar.zero(spec, rng.randint(-3, spec.N + 3))
    rel = rng.randint(1, spec.N)
    unit = [rng.randrange(spec.pN) for _ in range(spec.f)]
    if all(c % spec.p == 0 for c in unit):
        unit[0] += 1
    return PadicScalar(spec, rng.randint(-3, 3), tuple(unit), rel)


def test_default_zero_is_shared_per_spec():
    spec, other = FieldSpec(5, 2, 6), FieldSpec(5, 2, 7)
    z = PadicScalar.zero(spec)
    assert PadicScalar.zero(spec) is z and PadicScalar.zero(other) is not z
    assert z.is_zero and z.rel == spec.N
    assert PadicScalar.zero(spec, 3) is not PadicScalar.zero(spec, 3)


def _operand_pair(spec, rng, seen):
    """(a, b) with negative valuations, rel < N, units that are not
    reduced mod p^rel, sums that cancel digits, and zeros whose bound is
    below or above the other operand's valuation."""
    a = _mixed_scalar(spec, rng)
    if a.is_zero:
        a = PadicScalar(spec, rng.randint(-4, 4), (1,) * spec.f,
                        rng.randint(1, spec.N))
    seen.update({"negative"} if a.v < 0 else (),
                {"rel < N"} if a.rel < spec.N else ())
    r = rng.random()
    if r < 0.3:
        b = PadicScalar.zero(spec, a.v + rng.randint(-3, a.rel + 2))
        seen.add("zero below" if b.rel <= a.v else "zero above")
    elif r < 0.5:
        # -a plus p^k r: the sum keeps only the digits above k
        k, pR = rng.randint(1, spec.N), spec.p ** a.rel
        unit = tuple((rng.randrange(spec.pN) * spec.p ** k - c) % pR
                     for c in a.unit)
        b = PadicScalar(spec, a.v, unit, rng.randint(1, spec.N))
        seen.add("cancel")
    elif r < 0.55:
        b = PadicScalar.zero(spec, rng.randint(-4, spec.N + 4))
        a = PadicScalar.zero(spec, rng.randint(-4, spec.N + 4))
        seen.add("both zero")
    else:
        b = _mixed_scalar(spec, rng)
    return (a, b) if rng.random() < 0.5 else (b, a)


@pytest.mark.parametrize("p,f", [(2, 1), (5, 1), (3, 2), (5, 3), (7, 4)])
def test_add_mul_match_reference(p, f):
    # 5000 pairs at N = 6 that reach every case of __add__, then 300 plain
    # pairs at N = 7 whose units are not reduced mod p^rel: the product
    # equals the reference's, which reduces once after raw_mul
    spec = FieldSpec(p, f, 6)
    rng = random.Random(53 * p + f)
    seen = set()
    pairs = [_operand_pair(spec, rng, seen) for _ in range(5000)]
    spec7 = FieldSpec(p, f, 7)
    rng = random.Random(31 * p + f)
    pairs += [(_mixed_scalar(spec7, rng), _mixed_scalar(spec7, rng))
              for _ in range(300)]
    for a, b in pairs:
        if not (a.is_zero or b.is_zero) and a.v != b.v:
            seen.add("valuations differ")  # __add__ skips from_raw
        for got, want in ((a + b, ref_scalar_add(a, b)),
                          (a * b, ref_scalar_mul(a, b))):
            assert (got.to_json(), got.abs_prec) == (want.to_json(),
                                                     want.abs_prec)
            assert (got.v, got.unit, got.rel) == (want.v, want.unit, want.rel)
    assert seen == {"negative", "rel < N", "zero below", "zero above",
                    "cancel", "both zero", "valuations differ"}
    other = FieldSpec(p, f, 7)
    for a in (PadicScalar.from_int(spec, 3), PadicScalar.zero(spec)):
        for b in (PadicScalar.from_int(other, 3), PadicScalar.zero(other)):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(FieldSpecMismatch):
                    x + y
                with pytest.raises(FieldSpecMismatch):
                    x * y
