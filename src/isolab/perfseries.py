"""Truncated perfected power series over F_{p^k}.

Exponents are nonnegative rationals with p-power denominators; a series is
always the class of an element modulo terms of sup-degree above its bound D,
and every operation states what survives.  On top of the ring structure this
module provides the Frobenius operators, ideal truncations, composition, two
membership tests for restricted-perfection subrings, the rigidity-criterion
checker, and the slope-to-exponent bookkeeping (a, r, s).

Validation happens once, at the edge: ``PerfectedSeries(...)`` checks
outside input.  Operations build their results with the unchecked
``_result``, since sums, p-multiples and p-quotients of checked exponents
need no check, and a series never changes once built.  Both keep the terms
that ``_kept`` keeps.
"""

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, log

from .errors import (DegreeBoundTooSmall, InvariantViolated, MalformedInput,
                     NonzeroConstantTerm, ParameterMismatch, SequenceTooShort,
                     SlopeOrderViolated)
from .padic import FieldSpec, _integral, _json_int, _rational, _sequence


# --------------------------------------------------------------------------
# coefficient field F_{p^k}, tuples of length k over F_p
# --------------------------------------------------------------------------

def ff_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def ff_one(k):
    return (1,) + (0,) * (k - 1)


# --------------------------------------------------------------------------
# the series type
# --------------------------------------------------------------------------

def _pexp(p, den):
    """e with den == p**e, for den a power of p (_validate_exponent checks):
    the float logarithm rounded, whose error of a few ulps is far below 1/2
    for any den that fits in memory."""
    return round(log(den, p))


def _validate_exponent(p, v):
    """v as a Fraction by padic._rational's rule: >= 0, with a p-power
    denominator.  A boolean or a non-rational value is MalformedInput."""
    e = _rational(v)
    if e is None:
        raise MalformedInput("exponent must be rational", witness=str(v))
    if e < 0:
        raise MalformedInput("negative exponent", witness=str(e))
    if p ** _pexp(p, e.denominator) != e.denominator:
        raise MalformedInput("exponent denominator is not a power of p",
                             witness=str(e))
    return e


def _coefficient(coeff, p, k):
    """coeff as a k-tuple over F_p.  coeff is a sequence by padic._sequence's
    rule and each entry an integer by padic._integral's; a boolean, a string
    or a non-integral entry is MalformedInput, never truncated."""
    if not _sequence(coeff):
        raise MalformedInput("a coefficient must be a sequence",
                             witness={"type": type(coeff).__name__})
    if not all(map(_integral, coeff)):
        raise MalformedInput("coefficients must be integers",
                             witness=[str(c) for c in coeff])
    coeff = tuple(int(c) % p for c in coeff)
    if len(coeff) != k:
        raise MalformedInput("coefficient length mismatch",
                             witness=list(coeff))
    return coeff


def _kept(terms, D):
    """The terms a series keeps: nonzero coefficient, sup-degree <= D."""
    return {e: c for e, c in terms.items()
            if any(c) and not (e and max(e) > D)}


class PerfectedSeries:
    """Finite term map exponent-vector -> F_{p^k} coefficient, sup-degree <= D."""

    __slots__ = ("p", "nvars", "k", "D", "terms")

    def __init__(self, p, nvars, k, D, terms):
        # a boolean or a non-integral bound or arity is refused, never
        # truncated; FieldSpec refuses p and k by the same rule
        if not _integral(D):
            raise MalformedInput("degree bound must be an integer",
                                 witness={"D": D})
        if D < 1:
            raise MalformedInput("degree bound must be at least 1",
                                 witness={"D": D})
        spec = FieldSpec(p, k, 1)  # checks p and k before p divides anything
        if not _integral(nvars) or nvars < 0:
            raise MalformedInput("arity must be a nonnegative integer",
                                 witness={"nvars": nvars})
        if not isinstance(terms, Mapping):
            raise MalformedInput("terms must map exponents to coefficients",
                                 witness={"type": type(terms).__name__})
        p, k = spec.p, spec.f
        self.p, self.nvars, self.k, self.D = p, int(nvars), k, int(D)
        clean = {}
        for exp, coeff in terms.items():
            if not _sequence(exp):
                raise MalformedInput("an exponent must be a sequence",
                                     witness={"type": type(exp).__name__})
            exp = tuple(_validate_exponent(p, v) for v in exp)
            if len(exp) != nvars:
                raise MalformedInput("exponent arity mismatch",
                                     witness=[str(v) for v in exp])
            clean[exp] = _coefficient(coeff, p, k)
        self.terms = _kept(clean, D)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(p, nvars, k, D):
        return PerfectedSeries(p, nvars, k, D, {})

    @staticmethod
    def monomial(p, nvars, k, D, exp):
        return PerfectedSeries(p, nvars, k, D, {tuple(exp): ff_one(k)})

    def same_shape(self, other):
        return (self.p == other.p and self.nvars == other.nvars
                and self.k == other.k)

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items())

    # -- serialization ----------------------------------------------------

    def to_json(self):
        out = []
        for exp, coeff in self.sorted_terms():
            out.append({"exp": _exp_json(self.p, exp), "coeff": list(coeff)})
        return {"p": self.p, "nvars": self.nvars,
                "field": {"p": self.p, "k": self.k},
                "D": self.D, "terms": out}

    @staticmethod
    def from_json(obj):
        try:
            p = _json_int(obj["p"])
            nvars = _json_int(obj["nvars"])
            k = _json_int(obj["field"]["k"])
            if _json_int(obj["field"]["p"]) != p:
                raise MalformedInput("field characteristic mismatch",
                                     witness=obj["field"])
            D = _json_int(obj["D"])
            terms = {}
            for t in obj["terms"]:
                exp = tuple(Fraction(_json_int(e["num"]),
                                     p ** _json_int(e["pexp"]))
                            for e in t["exp"])
                coeff = tuple(_json_int(c) for c in t["coeff"])
                if exp in terms:
                    raise MalformedInput("duplicate exponent", witness=t)
                terms[exp] = coeff
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise MalformedInput("bad series object", witness=obj) from exc
        return PerfectedSeries(p, nvars, k, D, terms)


def _result(a, terms, D=None, nvars=None):
    """A series like a, with bound D and nvars variables, built unchecked.

    __init__ would accept the terms as they are: each exponent is a sum,
    p-multiple, p-quotient or zero-padding of checked exponents, so it is
    >= 0 with a p-power denominator, and arity, coefficient length and
    reduction mod p carry over.  Term order never reaches an output: every
    output and witness path sorts, and F_p addition commutes.
    """
    out = object.__new__(PerfectedSeries)
    out.p, out.k = a.p, a.k
    out.nvars = a.nvars if nvars is None else nvars
    out.D = a.D if D is None else D
    out.terms = _kept(terms, out.D)
    return out


def _require_match(a, b):
    if not a.same_shape(b):
        raise ParameterMismatch("series parameters differ",
                                witness={"left": [a.p, a.nvars, a.k],
                                         "right": [b.p, b.nvars, b.k]})


def ps_add(a, b):
    _require_match(a, b)
    terms = dict(a.terms)
    for exp, c in b.terms.items():
        terms[exp] = ff_add(terms[exp], c, a.p) if exp in terms else c
    return _result(a, terms, min(a.D, b.D))


def ps_scale(a, coeff):
    spec = FieldSpec(a.p, a.k, 1)
    coeff = _coefficient(coeff, a.p, a.k)
    return _result(a, {e: spec.raw_mul(c, coeff, a.p)
                       for e, c in a.terms.items()})


def ps_mul(a, b):
    _require_match(a, b)
    D = min(a.D, b.D)
    spec = FieldSpec(a.p, a.k, 1)
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if e and max(e) > D:
                continue
            c = spec.raw_mul(c1, c2, a.p)
            out[e] = ff_add(out[e], c, a.p) if e in out else c
    return _result(a, out, D)


def ps_pow(a, e):
    """a^e for an integer e >= 0, truncated at a.D like repeated ps_mul.

    In characteristic p, (sum c_I X^I)^p = sum c_I^p X^{pI}: the p-th power
    is exactly the absolute Frobenius.  Truncation commutes with it, since
    exponents are >= 0 and every dropped term already has max > D.  So each
    factor p of e costs one Frobenius pass, and only the cofactor prime to
    p goes through square-and-multiply.
    """
    # an int and not a boolean: an integral Fraction or float is refused
    if not (isinstance(e, int) and _integral(e)) or e < 0:
        raise MalformedInput("power must be a nonnegative integer",
                             witness=str(e))
    if e == 0:
        return _result(a, {(Fraction(0),) * a.nvars: ff_one(a.k)})
    base = a
    while e % a.p == 0:
        base = ps_frobenius(base, "forward", "absolute")
        e //= a.p
    out = None
    while True:
        if e & 1:
            out = base if out is None else ps_mul(out, base)
        e >>= 1
        if not e:
            return out
        base = ps_mul(base, base)


def ps_frobenius(a, direction="forward", flavor="relative"):
    """X^I -> X^{pI} (forward) or X^{I/p} (inverse); absolute also moves
    coefficients by x -> x^p (resp. the p-th root, which exists here)."""
    p = a.p
    spec = FieldSpec(p, a.k, 1)
    if direction == "forward":
        fe = lambda v: v * p
    elif direction == "inverse":
        fe = lambda v: v / p
    else:
        raise MalformedInput("direction must be forward or inverse",
                             witness=direction)
    if flavor == "relative":
        fc = lambda c: c
    elif flavor == "absolute":
        # x -> x^p, whose inverse on F_{p^k} is x -> x^{p^{k-1}}
        e = p if direction == "forward" else p ** (a.k - 1)
        fc = lambda c: spec.raw_pow(c, e, p)
    else:
        raise MalformedInput("flavor must be relative or absolute",
                             witness=flavor)
    return _result(a, {tuple(fe(v) for v in exp): fc(c)
                       for exp, c in a.terms.items()})


def ps_truncate_ideal(a, kind, m):
    """Class modulo an ideal: kind="frobenius" is (X_1^{p^m},..,X_n^{p^m}),
    kind="power" is (X_1,..,X_n)^m, perfected-monomial membership by floors."""
    if not _integral(m) or m < 0:
        raise MalformedInput("truncation order must be a nonnegative integer",
                             witness={"m": m})
    m = int(m)
    if kind == "frobenius":
        bound = Fraction(a.p) ** m
        keep = lambda exp: all(v < bound for v in exp)
    elif kind == "power":
        keep = lambda exp: sum(int(v) for v in exp) < m
    else:
        raise MalformedInput("unknown ideal kind", witness=kind)
    return _result(a, {e: c for e, c in a.terms.items() if keep(e)})


def ps_embed(a, total_nvars, offset):
    """The same series over a larger variable set, variables shifted."""
    if not (_integral(total_nvars) and _integral(offset)):
        raise MalformedInput("embedding offset and total must be integers",
                             witness={"offset": offset, "total": total_nvars})
    total_nvars, offset = int(total_nvars), int(offset)
    if offset < 0 or offset + a.nvars > total_nvars:
        raise MalformedInput("embedding out of range",
                             witness={"offset": offset, "total": total_nvars})
    pad_l = (Fraction(0),) * offset
    pad_r = (Fraction(0),) * (total_nvars - a.nvars - offset)
    return _result(a, {pad_l + e + pad_r: c for e, c in a.terms.items()},
                   nvars=total_nvars)


def ps_compose(f, g, h=()):
    """Substitute the series g_1..g_a, h_1..h_b into an ordinary series f.

    f must have integer exponents in a+b variables; all substituted series
    share parameters and have zero constant term.  g and h are sequences by
    padic._sequence's rule.
    """
    if not (_sequence(g) and _sequence(h)):
        raise MalformedInput("g and h must be sequences of series",
                             witness={"g": type(g).__name__,
                                      "h": type(h).__name__})
    args = list(g) + list(h)
    if f.nvars != len(args):
        raise MalformedInput("arity mismatch",
                             witness={"f_vars": f.nvars, "args": len(args)})
    if not args:
        raise MalformedInput("nothing to substitute into", witness=None)
    base = args[0]
    for s in args:
        _require_match(base, s)
        zero_exp = (Fraction(0),) * s.nvars
        if zero_exp in s.terms:
            raise NonzeroConstantTerm("substituted series has a constant term",
                                      witness=s.to_json()["terms"][0])
    for exp in f.terms:
        if any(v.denominator != 1 for v in exp):
            raise MalformedInput("outer series must have integer exponents",
                                 witness=[str(v) for v in exp])
    D = min(s.D for s in args)
    out = PerfectedSeries.zero(base.p, base.nvars, base.k, D)
    pow_cache = [{} for _ in args]

    def arg_power(i, e):
        if e == 0:
            return None
        if e not in pow_cache[i]:
            pow_cache[i][e] = ps_pow(args[i], e)
        return pow_cache[i][e]

    for exp, coeff in sorted(f.terms.items()):
        prod = None
        for i, e in enumerate(int(v) for v in exp):
            q = arg_power(i, e)
            if q is None:
                continue
            prod = q if prod is None else ps_mul(prod, q)
        if prod is None:  # constant term of f
            prod = PerfectedSeries.monomial(base.p, base.nvars, base.k, D,
                                            (Fraction(0),) * base.nvars)
        out = ps_add(out, ps_scale(prod, coeff))
    return out


# --------------------------------------------------------------------------
# restricted-perfection membership
# --------------------------------------------------------------------------

class RestrictedParams:
    __slots__ = ("r", "s", "n0")

    def __init__(self, r, s, n0):
        if not all(map(_integral, (r, s, n0))) or not 0 < r < s or n0 < 0:
            raise MalformedInput("need 0 < r < s and n0 >= 0",
                                 witness={"r": r, "s": s, "n0": n0})
        self.r = int(r)
        self.s = int(s)
        self.n0 = int(n0)


def _ord_exponent(p, exp):
    """Largest power of p among the component denominators."""
    return max((_pexp(p, x.denominator) for x in exp), default=0)


def _min_surviving_n(p, m, smr, n0, strict=True):
    """Smallest n >= n0 whose window p^{n(s-r)} exceeds (or reaches) m."""
    n = n0
    while True:
        w = Fraction(p) ** (n * smr)
        if (w > m) if strict else (w >= m):
            return n
        n += 1


def _exp_json(p, exp):
    return [{"num": v.numerator, "pexp": _pexp(p, v.denominator)}
            for v in exp]


def membership_restricted(a, params, method="both"):
    """Is the class in the restricted perfection for (r, s, n0)?

    definitional: for each n from n0 up to the last window meeting degree D,
    every term surviving the n-th Frobenius ideal must have p^{nr} I integral.
    closed_form: per-term inequality ord <= r * n_first(term).  The two are
    equivalent by construction of n_first; "both" runs and compares them.
    Returns (bool, first failing witness in canonical term order or None).
    """
    if method not in ("definitional", "closed_form", "both"):
        raise MalformedInput("unknown method", witness=method)
    p, r, s, n0 = a.p, params.r, params.s, params.n0
    smr = s - r
    n_max = _min_surviving_n(p, Fraction(a.D), smr, n0, strict=True)

    def definitional():
        for exp in sorted(a.terms):
            v = _ord_exponent(p, exp)
            if v == 0:
                continue
            m = max(exp)
            for n in range(n0, n_max + 1):
                if m * p ** (n * r) < Fraction(p) ** (n * s) and n * r < v:
                    return False, _witness(exp, v, n)
        return True, None

    def closed_form():
        for exp in sorted(a.terms):
            v = _ord_exponent(p, exp)
            if v == 0:
                continue
            n_first = _min_surviving_n(p, max(exp), smr, n0, strict=True)
            if v > r * n_first:
                return False, _witness(exp, v, n_first)
        return True, None

    def _witness(exp, v, n):
        n_le = _min_surviving_n(p, max(exp), smr, n0, strict=False)
        w = {"exp": _exp_json(p, exp), "ord": v, "n": n, "allowed": r * n}
        if n_le != _min_surviving_n(p, max(exp), smr, n0, strict=True):
            w["boundary"] = True
        return w

    if method == "definitional":
        return definitional()
    if method == "closed_form":
        return closed_form()
    vd, wd = definitional()
    vc, wc = closed_form()
    if vd != vc:
        raise InvariantViolated("membership methods disagree",
                                witness={"definitional": wd,
                                         "closed_form": wc})
    return vc, wc


def membership_ECd(a, E, C, d):
    """Per-term growth bound p^ord <= max(C * (|I|_inf + d)^E, 1)."""
    read = [_rational(v) for v in (E, C, d)]
    if None in read:
        raise MalformedInput("E, C and d must be rational",
                             witness={"E": str(E), "C": str(C), "d": str(d)})
    E, C, d = read
    if E <= 0 or C <= 0 or d < 0:
        raise MalformedInput("need E, C > 0 and d >= 0",
                             witness={"E": str(E), "C": str(C), "d": str(d)})
    p = a.p
    for exp in sorted(a.terms):
        v = _ord_exponent(p, exp)
        if v == 0:
            continue
        m = max(exp)
        # p^v <= C (m+d)^E  <=>  p^{v q} <= C^q (m+d)^{a0} with E = a0/q
        a0, q = E.numerator, E.denominator
        lhs = Fraction(p) ** (v * q)
        rhs = (C ** q) * ((m + d) ** a0)
        if lhs > rhs:
            return False, {"exp": _exp_json(p, exp), "ord": v,
                           "bound": f"{rhs.numerator}/{rhs.denominator}"}
    return True, None


# --------------------------------------------------------------------------
# rigidity checker
# --------------------------------------------------------------------------

def rigidity_check(f, g, h, r, d_seq, powered_block="h"):
    """Congruence ladder + doubled-variable evaluation for the rigidity test.

    For each n (from 0), the powered block is raised to q^n = p^{rn} and the
    composite must vanish modulo the n-th power ideal (X)^{d_n}; ratio_ok
    reports strict decrease of q^n / d_n over the given finite sequence;
    evaluation_zero substitutes the blocks over disjoint variable copies and
    tests identical vanishing mod degree D.  g, h and d_seq are sequences by
    padic._sequence's rule.
    """
    if not (_sequence(g) and _sequence(h) and _sequence(d_seq)):
        raise MalformedInput("g, h and d_seq must be sequences",
                             witness={"g": type(g).__name__,
                                      "h": type(h).__name__,
                                      "d_seq": type(d_seq).__name__})
    if not d_seq:
        raise SequenceTooShort("empty exponent sequence")
    if powered_block not in ("g", "h"):
        raise MalformedInput("powered_block must be g or h",
                             witness=powered_block)
    # an int and not a boolean, as for ps_pow
    if not (isinstance(r, int) and _integral(r)) or r < 0:
        raise MalformedInput("r must be a nonnegative integer",
                             witness={"r": str(r)})
    args = list(g) + list(h)
    if not args:
        raise MalformedInput("no substituted series", witness=None)
    base = args[0]
    p = base.p
    q = p ** r
    D = min(s.D for s in args)
    for n, d_n in enumerate(d_seq):
        if not _integral(d_n) or d_n < 1:
            raise MalformedInput("d_seq entries must be positive",
                                 witness={"n": n, "d_n": d_n})
        if d_n > D:
            raise DegreeBoundTooSmall(
                "cannot certify this power ideal at the working bound",
                witness={"n": n, "d_n": d_n, "D": D})
    d_seq = [int(d_n) for d_n in d_seq]
    ratio_ok = all(Fraction(q ** n, d_seq[n]) > Fraction(q ** (n + 1),
                                                         d_seq[n + 1])
                   for n in range(len(d_seq) - 1))
    congruences = []
    for n, d_n in enumerate(d_seq):
        qa = q ** n
        gs = [ps_pow(x, qa) for x in g] if powered_block == "g" else list(g)
        hs = [ps_pow(x, qa) for x in h] if powered_block == "h" else list(h)
        comp = ps_compose(f, gs, hs)
        congruences.append(ps_truncate_ideal(comp, "power", d_n).is_zero())
    nv = base.nvars
    g2 = [ps_embed(x, 2 * nv, 0) for x in g]
    h2 = [ps_embed(x, 2 * nv, nv) for x in h]
    evaluation_zero = ps_compose(f, g2, h2).is_zero()
    return {"congruences": congruences, "ratio_ok": ratio_ok,
            "evaluation_zero": evaluation_zero}


# --------------------------------------------------------------------------
# slope bookkeeping
# --------------------------------------------------------------------------

def slope_exponents(mu1, mu0):
    """Smallest (a, r, s) with a/r = mu1 and a/s = mu0; 0 < mu0 < mu1 <= 1."""
    read = [_rational(mu1), _rational(mu0)]
    if None in read:
        raise MalformedInput("slopes must be rational",
                             witness={"mu1": str(mu1), "mu0": str(mu0)})
    mu1, mu0 = read
    if not (0 < mu1 <= 1) or mu0 <= 0:
        raise MalformedInput("slope magnitudes must lie in (0, 1]",
                             witness={"mu1": str(mu1), "mu0": str(mu0)})
    if mu0 >= mu1:
        raise SlopeOrderViolated("need mu0 strictly below mu1",
                                 witness={"mu1": str(mu1), "mu0": str(mu0)})
    a = mu1.numerator * mu0.numerator // gcd(mu1.numerator, mu0.numerator)
    r = a // mu1.numerator * mu1.denominator
    s = a // mu0.numerator * mu0.denominator
    if not (Fraction(a, r) == mu1 and Fraction(a, s) == mu0 and s > r):
        raise InvariantViolated("exponents do not reproduce the slopes",
                                witness={"a": a, "r": r, "s": s})
    return a, r, s
