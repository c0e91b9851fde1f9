import functools
import json
import random
from fractions import Fraction

import pytest

from isolab import (PadicScalar, PerfectedSeries, RestrictedParams,
                    membership_ECd, membership_restricted, ps_add, ps_compose,
                    ps_embed, ps_frobenius, ps_mul, ps_pow, ps_truncate_ideal,
                    rigidity_check, slope_exponents)
from isolab.errors import (DegreeBoundTooSmall, MalformedInput,
                           NonzeroConstantTerm, ParameterMismatch,
                           SequenceTooShort, SlopeOrderViolated)
from isolab.padic import FieldSpec
from isolab.perfseries import _pexp, _validate_exponent, ps_scale

from reference import (X, badseries, mono, ref_ps_add, ref_ps_map, ref_ps_mul,
                       ref_ps_pow)

F = Fraction


def test_mul_adds_fractional_exponents():
    a = mono(5, F(1, 5))
    prod = ps_mul(a, a)
    assert prod.terms == {(F(2, 5),): (1,)}


def test_char2_square_kills_cross_term():
    one_plus = ps_add(mono(2, 0), mono(2, F(1, 2)))
    sq = ps_mul(one_plus, one_plus)
    assert sq.terms == {(F(0),): (1,), (F(1),): (1,)}


def test_add_commutative_associative_random():
    rng = random.Random(5)

    def rand_series():
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            e = F(rng.randrange(0, 16), 2 ** rng.randrange(0, 3))
            terms[(e,)] = (1,)
        return PerfectedSeries(2, 1, 1, 8, terms)

    for _ in range(20):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert ps_add(a, b).terms == ps_add(b, a).terms
        assert ps_add(ps_add(a, b), c).terms == ps_add(a, ps_add(b, c)).terms


def test_degree_bound_drops_terms():
    a = mono(2, 5, D=8)
    b = mono(2, 6, D=8)
    assert ps_mul(a, b).is_zero()  # 11 > 8


def test_parameter_mismatch():
    with pytest.raises(ParameterMismatch):
        ps_add(mono(2, 1), mono(3, 1))


def test_exponent_validation():
    with pytest.raises(MalformedInput):
        mono(2, F(1, 3))  # denominator not a power of p
    with pytest.raises(MalformedInput):
        mono(2, -1)


def test_arity_validation():
    # a negative arity used to build a series that every test accepted
    for nvars in (-3, -1, True, False, 1.5, F(1, 2)):
        with pytest.raises(MalformedInput,
                           match="arity must be a nonnegative integer"):
            PerfectedSeries(2, nvars, 1, 4, {})
    a = PerfectedSeries(2, 2.0, 1, 4, {(F(1), F(0)): (1,)})
    assert a.nvars == 2 and type(a.nvars) is int
    assert PerfectedSeries(2, 0, 1, 4, {(): (1,)}).nvars == 0


def test_bound_and_field_validation():
    # a boolean or a non-integral bound or field degree used to be kept,
    # and to_json wrote it: "D": true, or a Fraction json cannot write
    for D in (F(5, 2), True, 2.5, "4"):
        with pytest.raises(MalformedInput,
                           match="degree bound must be an integer"):
            PerfectedSeries(2, 1, 1, D, {(F(2),): (1,)})
    with pytest.raises(MalformedInput) as exc:
        PerfectedSeries(2, 1, 1, 0, {})
    assert str(exc.value) == "degree bound must be at least 1"
    assert exc.value.witness == {"D": 0}
    for k in (True, 1.5):
        with pytest.raises(MalformedInput):
            PerfectedSeries(2, 1, k, 4, {})
    a = PerfectedSeries(2.0, 1, 1.0, F(4), {(F(2),): (1,)})
    assert json.dumps(a.to_json()) == json.dumps(mono(2, 2, D=4).to_json())


#: each refusal of an operation's argument: its call and its whole message
OPERATION_REFUSALS = {
    "exponent-arity": (lambda: PerfectedSeries(3, 2, 1, 4, {(F(1),): (1,)}),
                       "exponent arity mismatch"),
    "frobenius-direction": (lambda: ps_frobenius(X(3), "sideways"),
                            "direction must be forward or inverse"),
    "frobenius-flavor": (lambda: ps_frobenius(X(3), "forward", "mixed"),
                         "flavor must be relative or absolute"),
    "truncate-kind": (lambda: ps_truncate_ideal(X(3), "degree", 2),
                      "unknown ideal kind"),
    "embed-too-far": (lambda: ps_embed(X(3), 1, 1), "embedding out of range"),
    "embed-negative": (lambda: ps_embed(X(3), 2, -1),
                       "embedding out of range"),
    "compose-arity": (lambda: ps_compose(X(3, nvars=2), [X(3)]),
                      "arity mismatch"),
    "compose-nothing": (
        lambda: ps_compose(PerfectedSeries(3, 0, 1, 4, {(): (1,)}), []),
        "nothing to substitute into"),
    "compose-fractional-outer": (lambda: ps_compose(mono(3, F(1, 3)), [X(3)]),
                                 "outer series must have integer exponents"),
    "membership-method": (
        lambda: membership_restricted(X(3), RestrictedParams(1, 2, 0),
                                      method="fast"), "unknown method"),
}


@pytest.mark.parametrize("site", sorted(OPERATION_REFUSALS))
def test_operations_refuse_bad_arguments(site):
    call, message = OPERATION_REFUSALS[site]
    with pytest.raises(MalformedInput) as exc:
        call()
    assert str(exc.value) == message


def test_embed_and_truncate_take_integers():
    a = ps_add(X(D=4), mono(2, F(5, 2), D=4))
    for total, offset in ((True, False), (2.5, 0.5), (2, "0")):
        with pytest.raises(MalformedInput):
            ps_embed(a, total, offset)
    assert json.dumps(ps_embed(a, 2.0, F(1)).to_json()) == \
        json.dumps(ps_embed(a, 2, 1).to_json())
    for m in (1.5, True, "2"):
        with pytest.raises(MalformedInput):
            ps_truncate_ideal(a, "power", m)
    assert same(ps_truncate_ideal(a, "power", 2.0),
                ps_truncate_ideal(a, "power", 2))


def test_frobenius_relative_forward():
    assert ps_frobenius(X(), "forward").terms == {(F(2),): (1,)}
    a = mono(2, F(1, 2))
    assert ps_frobenius(a, "forward").terms == {(F(1),): (1,)}


def test_frobenius_inverse_then_forward():
    a = ps_add(mono(2, 1), mono(2, F(3, 2)))
    back = ps_frobenius(ps_frobenius(a, "inverse"), "forward")
    assert back.terms == a.terms


def test_frobenius_forward_then_inverse_truncates():
    # X^5 at D=8: forward gives X^10, dropped; the round trip loses it
    a = ps_add(mono(2, 3), mono(2, 5))
    rt = ps_frobenius(ps_frobenius(a, "forward"), "inverse")
    assert rt.terms == {(F(3),): (1,)}


def test_frobenius_absolute_on_f4():
    # F_4 = F_2[t]/(t^2+t+1); t squares to t+1, fixed by neither flavor's
    # relative version
    t_coeff = (0, 1)
    a = mono(2, 1, k=2, coeff=t_coeff)
    rel = ps_frobenius(a, "forward", "relative")
    assert rel.terms[(F(2),)] == (0, 1)
    ab = ps_frobenius(a, "forward", "absolute")
    assert ab.terms[(F(2),)] == (1, 1)  # t^2 = t + 1


def test_frobenius_absolute_round_trip():
    a = mono(2, 1, k=2, coeff=(0, 1))
    rt = ps_frobenius(ps_frobenius(a, "forward", "absolute"),
                      "inverse", "absolute")
    assert rt.terms == a.terms


def test_truncate_power_ideal():
    assert not ps_truncate_ideal(mono(2, F(3, 2)), "power", 2).is_zero()
    assert ps_truncate_ideal(mono(2, F(5, 2)), "power", 2).is_zero()


def test_truncate_frobenius_ideal():
    assert not ps_truncate_ideal(X(), "frobenius", 1).is_zero()
    assert ps_truncate_ideal(mono(2, 2), "frobenius", 1).is_zero()


def test_compose_square():
    f = mono(2, 2, D=8)  # u^2
    g = mono(2, F(1, 2), D=8)
    assert ps_compose(f, [g]).terms == {(F(1),): (1,)}


def test_compose_cancellation():
    # f(u, v) = u - v composed on (g, g) = 0; char 2 so u + v works
    f = ps_add(X(nvars=2, slot=0), X(nvars=2, slot=1))
    g = ps_add(mono(2, 1), mono(2, F(1, 2)))
    assert ps_compose(f, [g, g]).is_zero()


def test_compose_matches_direct_expansion():
    # f(u) = u + u^3, g = X^(1/2) + X, p = 2, D = 4
    f = ps_add(mono(2, 1, D=4), mono(2, 3, D=4))
    g = ps_add(mono(2, F(1, 2), D=4), mono(2, 1, D=4))
    via_compose = ps_compose(f, [g])
    direct = ps_add(g, ps_mul(ps_mul(g, g), g))
    assert via_compose.terms == direct.terms


def test_compose_rejects_constant_term():
    f = X()
    g = mono(2, 0)
    with pytest.raises(NonzeroConstantTerm):
        ps_compose(f, [g])


def test_embed_disjoint_blocks():
    a = X(p=2)
    left = ps_embed(a, 2, 0)
    right = ps_embed(a, 2, 1)
    assert left.terms == {(F(1), F(0)): (1,)}
    assert right.terms == {(F(0), F(1)): (1,)}
    # product model: term maps over disjoint blocks multiply to the joined
    prod = ps_mul(left, right)
    assert prod.terms == {(F(1), F(1)): (1,)}


# ---- membership ----

def test_restricted_params_validation():
    with pytest.raises(MalformedInput):
        RestrictedParams(2, 2, 0)
    with pytest.raises(MalformedInput):
        RestrictedParams(1, 2, -1)
    # a boolean or a non-integral value used to be truncated by int()
    for r, s, n0 in ((1, 2.9, 0.5), (F(3, 2), 3, 0), (1, 2, F(1, 2)),
                     (True, 2, 0), (1, 2, False), (1, float("inf"), 0)):
        with pytest.raises(MalformedInput,
                           match=r"need 0 < r < s and n0 >= 0"):
            RestrictedParams(r, s, n0)
    params = RestrictedParams(1.0, F(3), 0)
    assert (params.r, params.s, params.n0) == (1, 3, 0)


def test_ordinary_series_always_member():
    a = ps_add(mono(2, 1), mono(2, 7))
    for params in (RestrictedParams(1, 2, 0), RestrictedParams(1, 3, 2),
                   RestrictedParams(2, 3, 1)):
        ok, wit = membership_restricted(a, params)
        assert ok and wit is None


def test_badseries_rejected_both_methods():
    a = badseries()
    params = RestrictedParams(1, 2, 0)
    for method in ("definitional", "closed_form", "both"):
        ok, wit = membership_restricted(a, params, method=method)
        assert not ok
        assert wit["exp"] == [{"num": 25, "pexp": 3}]


def test_x_to_1_over_p_with_n0_1():
    a = mono(2, F(1, 2))
    ok, _ = membership_restricted(a, RestrictedParams(1, 2, 1))
    assert ok
    ok0, wit0 = membership_restricted(a, RestrictedParams(1, 2, 0))
    assert not ok0 and wit0["ord"] == 1


def test_definitional_closed_form_agree_random():
    rng = random.Random(60)
    for _ in range(300):
        p = rng.choice([2, 3])
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            e = F(rng.randrange(0, 8 * p ** 3 + 1), p ** rng.randrange(0, 4))
            if e <= 8:
                terms[(e,)] = (1,)
        if not terms:
            continue
        a = PerfectedSeries(p, 1, 1, 8, terms)
        r = rng.randrange(1, 3)
        s = r + rng.randrange(1, 3)
        params = RestrictedParams(r, s, rng.randrange(0, 3))
        okd, _ = membership_restricted(a, params, method="definitional")
        okc, _ = membership_restricted(a, params, method="closed_form")
        assert okd == okc


def test_membership_monotone_in_n0():
    a = ps_add(mono(2, F(1, 4)), mono(2, 3))
    decisions = []
    for n0 in range(4):
        ok, _ = membership_restricted(a, RestrictedParams(1, 2, n0))
        decisions.append(ok)
    for earlier, later in zip(decisions, decisions[1:]):
        assert later or not earlier


def test_ecd_ordinary_member():
    a = ps_add(mono(2, 1), mono(2, 2))
    ok, wit = membership_ECd(a, F(1), F(1), F(0))
    assert ok and wit is None


def test_ecd_x_to_half():
    a = mono(2, F(1, 2))
    ok, _ = membership_ECd(a, F(1), F(2), F(1))
    assert ok  # 2 <= 2 * (1/2 + 1)


def test_ecd_badseries_rejected():
    ok, wit = membership_ECd(badseries(), F(1), F(2), F(0))
    assert not ok
    assert wit is not None


@pytest.mark.parametrize("E, C, d", [(True, 2, 0), (1, True, 0),
                                     (1, 2, False)])
def test_ecd_refuses_booleans(E, C, d):
    # Fraction(True) is 1: a boolean used to be read as E = 1
    with pytest.raises(MalformedInput, match="must be rational"):
        membership_ECd(mono(2, F(1, 2)), E, C, d)


def test_ecd_monotone_in_C():
    a = mono(2, F(1, 4))
    member_small, _ = membership_ECd(a, F(1), F(1, 2), F(0))
    member_large, _ = membership_ECd(a, F(1), F(16), F(0))
    assert member_large or not member_small


# ---- rigidity ----

def test_rigidity_positive_instance():
    # both composition slots carry the same series: every congruence is
    # 0 mod anything and the doubled evaluation vanishes
    u = X(nvars=2, slot=0, D=16)
    v = X(nvars=2, slot=1, D=16)
    f = ps_add(u, v)  # u - v in char 2
    g = X(D=16)
    rep = rigidity_check(f, [g, g], [], 1, [1, 3, 9], powered_block="g")
    assert rep["congruences"] == [True, True, True]
    assert rep["ratio_ok"] and rep["evaluation_zero"]


def test_rigidity_negative_instance():
    # f = u, g = [X]: X^{q^n} is in (X)^{d_n} only while d_n <= q^n.
    # Strict ratio decrease forces d_1 > q, so the first failure is n = 1.
    f = X(D=24)
    g = X(D=24)
    rep = rigidity_check(f, [g], [], 2, [1, 5, 21], powered_block="g")
    assert rep["congruences"] == [True, False, False]
    assert rep["ratio_ok"]
    assert not rep["evaluation_zero"]


def test_rigidity_ratio_violation_flagged():
    f = ps_add(X(nvars=2, slot=0, D=16), X(nvars=2, slot=1, D=16))
    g = X(D=16)
    rep = rigidity_check(f, [g, g], [], 1, [2, 4, 8], powered_block="g")
    assert not rep["ratio_ok"]  # q^n/d_n constant, not strictly decreasing


def test_rigidity_empty_dseq():
    with pytest.raises(SequenceTooShort):
        rigidity_check(X(), [X()], [], 1, [])


def test_rigidity_degree_bound_guard():
    with pytest.raises(DegreeBoundTooSmall):
        rigidity_check(X(D=4), [X(D=4)], [], 1, [1, 2, 50])


def test_rigidity_h_block_powered():
    # same positive shape but exercising the other reading: h powered
    u = X(nvars=2, slot=0, D=16)
    v = X(nvars=2, slot=1, D=16)
    f = ps_add(u, v)
    g = X(D=16)
    rep = rigidity_check(f, [g], [g], 1, [1, 3, 9], powered_block="h")
    assert rep["ratio_ok"]
    assert rep["congruences"][0] in (True, False)  # well-formed report


# ---- slope exponents ----

def test_slope_exponents_basic():
    assert slope_exponents(F(1, 2), F(1, 3)) == (1, 2, 3)
    assert slope_exponents(F(1), F(1, 2)) == (1, 1, 2)


def test_slope_exponents_nontrivial_numerators():
    a, r, s = slope_exponents(F(2, 3), F(1, 2))
    assert F(a, r) == F(2, 3) and F(a, s) == F(1, 2) and s > r


def test_slope_exponents_refuse_booleans():
    # slope_exponents(True, 1/3) used to answer (1, 1, 3)
    for mu1, mu0 in ((True, F(1, 3)), (F(1, 2), False)):
        with pytest.raises(MalformedInput, match="must be rational"):
            slope_exponents(mu1, mu0)
    assert slope_exponents(1, "1/3") == slope_exponents(F(1), F(1, 3))


def test_slope_exponents_order_violation():
    with pytest.raises(SlopeOrderViolated):
        slope_exponents(F(1, 2), F(1, 2))
    with pytest.raises(SlopeOrderViolated):
        slope_exponents(F(1, 3), F(1, 2))


# ---- serialization ----

def test_json_round_trip():
    a = ps_add(mono(2, F(3, 4)), mono(2, 2))
    b = PerfectedSeries.from_json(a.to_json())
    assert b.terms == a.terms and b.D == a.D


def test_json_rejects_field_mismatch():
    obj = mono(2, 1).to_json()
    obj["field"]["p"] = 3
    with pytest.raises(MalformedInput):
        PerfectedSeries.from_json(obj)


def test_scale_and_neg_char2():
    a = mono(2, 1)
    assert ps_add(a, ps_scale(a, (a.p - 1,) + (0,) * (a.k - 1))).is_zero()
    assert ps_scale(a, (0,)).is_zero()


#: each site that reads a coefficient entry or an exponent: its call, a
#: value it reads, and its whole refusal message
COERCION_SITES = {
    "series-coefficient": (
        lambda v: PerfectedSeries(3, 1, 1, 4, {(F(1),): (v,)}), 2.0,
        "coefficients must be integers"),
    "scale-coefficient": (lambda v: ps_scale(mono(3, 1), (v,)), F(2),
                          "coefficients must be integers"),
    "from_coeffs": (lambda v: PadicScalar.from_coeffs(FieldSpec(5, 1, 4),
                                                      (v,)), 2.0,
                    "coefficients and valuation must be integers"),
    "from_coeffs-valuation": (
        lambda v: PadicScalar.from_coeffs(FieldSpec(5, 1, 4), (1,), v), 2.0,
        "coefficients and valuation must be integers"),
    "series-exponent": (
        lambda v: PerfectedSeries(3, 1, 1, 4, {(v,): (1,)}), "1/3",
        "exponent must be rational"),
}


@pytest.mark.parametrize("site,value", [
    *((s, v) for s in ("series-coefficient", "scale-coefficient",
                       "from_coeffs", "from_coeffs-valuation")
      for v in (2.5, "2", True, None, F(1, 2))),
    *(("series-exponent", v) for v in (True, None, "x", float("nan")))])
def test_coefficients_and_exponents_are_never_coerced(site, value):
    # int(c) read 2.5 as 2, "2" as 2 and True as 1, Fraction(v) read the
    # exponent True as 1, and from_coeffs kept the valuation 2.5 as p^2.5
    call, valid, message = COERCION_SITES[site]
    call(valid)
    with pytest.raises(MalformedInput) as exc:
        call(value)
    assert str(exc.value) == message


def test_scale_rejects_a_coefficient_of_the_wrong_length():
    # a short coefficient raised a bare IndexError, a long one was cut to k
    a = mono(3, 1, k=2)
    assert ps_scale(a, (2, 0)).terms == {(F(1),): (2, 0)}
    for coeff in ((1,), (1, 0, 0), ()):
        with pytest.raises(MalformedInput,
                           match="coefficient length mismatch"):
            ps_scale(a, coeff)


def test_pow_repeated_squaring():
    a = ps_add(mono(3, 1, D=12), mono(3, 2, D=12))
    p4 = ps_pow(a, 4)
    direct = ps_mul(ps_mul(a, a), ps_mul(a, a))
    assert p4.terms == direct.terms


# ---- ps_pow by Frobenius against repeated multiplication ----

def rand_series(rng, p, k, nvars, D, terms=(1, 4), zero_const=False):
    """A few terms with exponents in [0, D] over denominators 1 and p."""
    out = {}
    for _ in range(rng.randrange(*terms)):
        den = p ** rng.randrange(0, 2)
        exp = tuple(F(rng.randrange(0, D * den + 1), den)
                    for _ in range(nvars))
        if zero_const and not any(exp):
            continue
        out[exp] = tuple(rng.randrange(p) for _ in range(k))
    return PerfectedSeries(p, nvars, k, D, out)


def test_pow_matches_repeated_mul():
    rng = random.Random(2024)
    for p in (2, 3, 5):
        exps = sorted(set(range(34)) | {p ** m * c for m in (1, 2, 3)
                                        for c in (1, 2, 3)})
        for k in (1, 2, 3):
            for nvars in (1, 2):
                for D in (4, 8, 16):
                    a = rand_series(rng, p, k, nvars, D)
                    for e in exps:
                        got, want = ps_pow(a, e), ref_ps_pow(a, e)
                        assert (got.terms, got.D) == (want.terms, want.D), \
                            (p, k, nvars, D, e)


def test_pow_rejects_bad_exponent():
    # a negative exponent used to loop forever: -1 >> 1 == -1
    for e in (-1, -8, F(2), 1.5, "2", True):
        with pytest.raises(MalformedInput):
            ps_pow(mono(2, 1), e)


def rand_ladder(rng):
    """A random rigidity request (f, g, h, r, d_seq, powered_block)."""
    p, k, D = rng.choice([2, 3]), rng.choice([1, 2]), rng.choice([8, 16])
    ng, nh = rng.randrange(1, 3), rng.randrange(0, 2)
    g = [rand_series(rng, p, k, 1, D, zero_const=True) for _ in range(ng)]
    h = [rand_series(rng, p, k, 1, D, zero_const=True) for _ in range(nh)]
    f = PerfectedSeries(p, ng + nh, k, D, {
        tuple(F(rng.randrange(0, 3)) for _ in range(ng + nh)):
            tuple(rng.randrange(p) for _ in range(k))
        for _ in range(rng.randrange(1, 5))})
    d_seq = sorted(rng.sample(range(1, D + 1), rng.randrange(1, 4)))
    block = rng.choice(["g", "h"])
    return f, g, h, rng.randrange(0, 3), d_seq, block


def test_rigidity_matches_reference_pow(corpus_dir, monkeypatch):
    import json
    from isolab import perfseries

    obj = json.loads((corpus_dir / "rigidity_pos.json").read_text())
    corpus = (PerfectedSeries.from_json(obj["f"]),
              [PerfectedSeries.from_json(o) for o in obj["g"]], [],
              obj["r"], obj["d_seq"], obj["powered_block"])
    rng = random.Random(11)
    cases = [corpus] + [rand_ladder(rng) for _ in range(20)]
    got = [rigidity_check(*c[:5], powered_block=c[5]) for c in cases]
    monkeypatch.setattr(perfseries, "ps_pow", ref_ps_pow)
    want = [rigidity_check(*c[:5], powered_block=c[5]) for c in cases]
    assert got == want
    assert {c for rep in want for c in rep["congruences"]} == {True, False}


def test_rigidity_rejects_negative_r():
    for r, d_seq in ((-1, [1]), (True, [1]), (1, [1.5]), (1, [True, 2])):
        with pytest.raises(MalformedInput):
            rigidity_check(X(), [X()], [], r, d_seq)


# ---- library results are built unchecked, by the rule __init__ keeps ----

def same(got, want):
    return ((got.p, got.nvars, got.k, got.D, got.terms)
            == (want.p, want.nvars, want.k, want.D, want.terms))


def op_cases(rng):
    """(name, result, reference) for every operation on random inputs."""
    p, k, nvars = rng.choice([2, 3, 5]), rng.randrange(1, 4), \
        rng.randrange(1, 3)
    spec = FieldSpec(p, k, 1)
    a = rand_series(rng, p, k, nvars, rng.choice([2, 4, 8]), terms=(0, 6))
    b = rand_series(rng, p, k, nvars, rng.choice([2, 4, 8]), terms=(0, 6))
    minus_one = (p - 1,) + (0,) * (k - 1)
    c = tuple(rng.randrange(p) for _ in range(k))
    m = rng.randrange(0, 4)
    off = rng.randrange(0, 2)
    cases = [
        ("add", ps_add(a, b), ref_ps_add(a, b)),
        ("add-cancel", ps_add(a, ps_scale(a, minus_one)),
         ref_ps_add(a, ref_ps_map(a, lambda e: e,
                            lambda x: spec.raw_mul(x, minus_one, p)))),
        ("mul", ps_mul(a, b), ref_ps_mul(a, b)),
        ("scale", ps_scale(a, c),
         ref_ps_map(a, lambda e: e, lambda x: spec.raw_mul(x, c, p))),
        ("scale-zero", ps_scale(a, (0,) * k),
         PerfectedSeries.zero(p, nvars, k, a.D)),
        ("frobenius-forward-absolute", ps_frobenius(a, "forward",
                                                    "absolute"),
         functools.reduce(ref_ps_mul, [a] * p)),
    ]
    for direction, fe in (("forward", lambda v: v * p),
                          ("inverse", lambda v: v / p)):
        e = p if direction == "forward" else p ** (k - 1)
        for flavor, fc in (("relative", lambda x: x),
                           ("absolute", lambda x, e=e:
                            spec.raw_pow(x, e, p))):
            cases.append((f"frobenius-{direction}-{flavor}",
                          ps_frobenius(a, direction, flavor),
                          ref_ps_map(a, lambda v, fe=fe: tuple(map(fe, v)),
                                  fc)))
    cases += [
        ("truncate-frobenius", ps_truncate_ideal(a, "frobenius", m),
         PerfectedSeries(p, nvars, k, a.D, {
             e: x for e, x in a.terms.items()
             if all(v < p ** m for v in e)})),
        ("truncate-power", ps_truncate_ideal(a, "power", m),
         PerfectedSeries(p, nvars, k, a.D, {
             e: x for e, x in a.terms.items()
             if sum(v.numerator // v.denominator for v in e) < m})),
        ("embed", ps_embed(a, nvars + 1, off),
         ref_ps_map(a, lambda e: (F(0),) * off + e + (F(0),) * (1 - off),
                 lambda x: x, nvars=nvars + 1)),
    ]
    # compose f(g_1, .., g_n) against its expansion by ref_ps_mul, ref_ps_add
    g = [rand_series(rng, p, k, 1, rng.choice([2, 4, 8]), zero_const=True)
         for _ in range(nvars)]
    f = PerfectedSeries(p, nvars, k, 8, {
        tuple(F(rng.randrange(0, 3)) for _ in range(nvars)):
            tuple(rng.randrange(p) for _ in range(k))
        for _ in range(rng.randrange(1, 4))})
    D = min(x.D for x in g)
    want = PerfectedSeries.zero(p, 1, k, D)
    for exp, coeff in f.terms.items():
        term = PerfectedSeries.monomial(p, 1, k, D, (F(0),))
        for gi, ei in zip(g, exp):
            for _ in range(int(ei)):
                term = ref_ps_mul(term, gi)
        want = ref_ps_add(want, ref_ps_map(
            term, lambda e: e, lambda x: spec.raw_mul(x, coeff, p)))
    cases.append(("compose", ps_compose(f, g), want))
    return cases


def test_operations_match_the_validating_references():
    rng = random.Random(21)
    seen = set()
    for _ in range(150):
        for name, got, want in op_cases(rng):
            assert same(got, want), name
            again = PerfectedSeries(got.p, got.nvars, got.k, got.D,
                                    got.terms)
            assert same(again, got), name
            seen.add((name, got.is_zero()))
    # every operation gave a zero and a nonzero result at least once,
    # except the ones that can only give zero
    assert {name for name, zero in seen if not zero} == {
        name for name, _ in seen} - {"add-cancel", "scale-zero"}
    assert all((name, True) in seen for name, _ in seen)


def test_operations_build_no_checked_series(monkeypatch):
    rng = random.Random(7)
    a = rand_series(rng, 3, 2, 2, 8, terms=(3, 6))
    b = rand_series(rng, 3, 2, 2, 4, terms=(3, 6))
    calls = []
    init = PerfectedSeries.__init__

    def counting(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(PerfectedSeries, "__init__", counting)
    results = [ps_add(a, b), ps_mul(a, b), ps_scale(a, (2, 1)),
               ps_truncate_ideal(a, "power", 5),
               ps_truncate_ideal(a, "frobenius", 1), ps_embed(a, 3, 1)]
    results += [ps_frobenius(a, d, fl) for d in ("forward", "inverse")
                for fl in ("relative", "absolute")]
    assert calls == []
    assert all(isinstance(r, PerfectedSeries) for r in results)
    PerfectedSeries.zero(3, 2, 2, 8)
    assert len(calls) == 1  # the count sees the validating constructor


_PRIMES = [q for q in range(2, 50) if all(q % d for d in range(2, q))]


def test_pexp_rounds_exactly():
    for p in _PRIMES:
        for e in [*range(65), 10 ** 3, 10 ** 5]:
            assert _pexp(p, p ** e) == e, (p, e)


def test_validate_exponent_rejects_a_denominator_off_a_power():
    for p in (2, 3, 5, 7):
        for e in (1, 2, 3, 10, 64, 1000):
            assert _validate_exponent(p, F(1, p ** e)) == F(1, p ** e)
            others = [p ** e + 1, p ** e - 1] + [q ** e for q in (2, 3, 5)
                                                 if q != p]
            for den in others:
                if den == 1:  # 2^1 - 1 is p^0
                    continue
                with pytest.raises(MalformedInput) as exc:
                    _validate_exponent(p, F(1, den))
                assert str(exc.value) == (
                    "exponent denominator is not a power of p")
                assert exc.value.witness == f"1/{den}"
