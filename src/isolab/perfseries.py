"""Truncated perfected power series over F_{p^k}.

Exponents are nonnegative rationals with p-power denominators; a series is
always the class of an element modulo terms of sup-degree above its bound D,
and every operation states what survives.  On top of the ring structure this
module provides the Frobenius operators, ideal truncations, composition, two
membership tests for restricted-perfection subrings, the rigidity-criterion
checker, and the slope-to-exponent bookkeeping (a, r, s).

A series stores its exponents at one p-power depth: at depth s, the integer
tuple E stands for the exponent vector E / p^s.  A product or a sum lifts
the shallower side to the larger depth and adds integers, the bound D is
the integer D p^s, and sorted integer tuples at one depth are already in
value order.  The Frobenius moves only the depth, or scales E by p at
depth 0.  Fractions appear only at the edges: ``PerfectedSeries(...)``
reads Fraction exponents into this form, ``from_json`` reads each
{num, pexp} pair straight into it, ``to_json`` and every exponent witness
write the reduced pairs back, and ``terms`` is a read-only view from
tuples of Fraction to coefficient tuples.

``ps_mul`` is the one product.  ``ps_compose`` starts each term of the
outer series as the constant series of its coefficient, multiplies the
argument powers in with ``ps_mul`` and adds the term with ``ps_add``; the
outer series shares its arguments' p and k.

Validation happens once, at the edge: ``PerfectedSeries(...)`` and
``from_json`` read outside input into (num, pexp) pairs, and one helper,
``_depth_terms``, checks their sign, arity and coefficients and lifts them
to one depth.  Operations build their results with the unchecked
``_result``, since sums, p-multiples and p-quotients of checked exponents
need no check, and a series never changes once built.  Both keep the terms
that ``_kept`` keeps.
"""

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, log
from operator import add

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


def _unit(p, depth):
    """p^depth, the denominator of every exponent at that depth.  A shift
    for p = 2, where ``2 ** depth`` squares its way up: 0.37 s against
    5 ms at depth 10^8."""
    return 1 << depth if p == 2 else p ** depth


def _stripped(p, n, cap):
    """(n / p^v, v) for v = min(v_p(n), cap) and n != 0, in a few
    big-integer steps: the lowest set bit for p = 2, otherwise the squares
    p, p^2, p^4, .. that divide n, taken back out from the largest.  p = 1
    or -1, which from_json may read before p is checked, stops at cap."""
    if p == 2:
        v = min(cap, (n & -n).bit_length() - 1)
        return n >> v, v
    squares = []
    q = p
    while 1 << len(squares) <= cap and n % q == 0:
        squares.append(q)
        q *= q
    v = 0
    for i in reversed(range(len(squares))):
        if v + (1 << i) <= cap and n % squares[i] == 0:
            n //= squares[i]
            v += 1 << i
    return n, v


def _reduced(p, num, pexp):
    """(num, pexp) for num / p^pexp with no factor p left in num while
    pexp > 0, and (0, 0) for zero: the pair to_json writes.  from_json
    compares its input pairs by it before p is checked; a positive pexp at
    p = 0 is a ZeroDivisionError."""
    if not pexp or num % p:
        return num, pexp
    if not num:
        return 0, 0
    num, v = _stripped(p, num, pexp)
    return num, pexp - v


def _validate_exponent(p, v):
    """v as its pair (num, pexp) for num / p^pexp, by padic._rational's
    rule with a p-power denominator.  A boolean or a non-rational value is
    MalformedInput; _depth_terms checks the sign."""
    e = _rational(v)
    if e is None:
        raise MalformedInput("exponent must be rational", witness=str(v))
    pexp = _pexp(p, e.denominator)
    if p ** pexp != e.denominator:
        raise MalformedInput("exponent denominator is not a power of p",
                             witness=str(e))
    return e.numerator, pexp


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


def _kept(terms, bound):
    """The terms a series keeps: nonzero coefficient, sup-degree <= D, for
    integer exponents at a depth where D reads as bound."""
    return {e: c for e, c in terms.items()
            if any(c) and not (e and max(e) > bound)}


class PerfectedSeries:
    """Finite term map exponent-vector -> F_{p^k} coefficient, sup-degree <= D.

    ``_terms`` maps integer tuples E at p-power depth ``depth`` to
    coefficient tuples; ``terms`` reads it as exponent tuples of Fraction.
    """

    __slots__ = ("p", "nvars", "k", "D", "depth", "_terms")

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

        def pairs(exp):
            if not _sequence(exp):
                raise MalformedInput("an exponent must be a sequence",
                                     witness={"type": type(exp).__name__})
            return tuple(_validate_exponent(p, v) for v in exp)

        self.depth, lifted = _depth_terms(
            self, ((pairs(exp), c) for exp, c in terms.items()))
        self._terms = _kept(lifted, self.D * _unit(p, self.depth))

    @property
    def terms(self):
        """The term map with exponent tuples of Fraction, built on each
        read: writing to it changes no series."""
        unit = _unit(self.p, self.depth)
        return {tuple(Fraction(v, unit) for v in e): c
                for e, c in self._terms.items()}

    def same_shape(self, other):
        return (self.p == other.p and self.nvars == other.nvars
                and self.k == other.k)

    def is_zero(self):
        return not self._terms

    # -- serialization ----------------------------------------------------

    def to_json(self):
        out = [{"exp": _exp_json(self.p, exp, self.depth),
                "coeff": list(coeff)}
               for exp, coeff in sorted(self._terms.items())]
        return {"p": self.p, "nvars": self.nvars,
                "field": {"p": self.p, "k": self.k},
                "D": self.D, "terms": out}

    @staticmethod
    def from_json(obj):
        """The series obj writes, each {num, pexp} read as an integer pair.

        Checks run in PerfectedSeries(...)'s order, after the reading and
        the duplicate check, with its messages and witnesses.
        """
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
                exp = tuple(_read_pair(p, e) for e in t["exp"])
                coeff = tuple(_json_int(c) for c in t["coeff"])
                if exp in terms:
                    raise MalformedInput("duplicate exponent", witness=t)
                terms[exp] = coeff
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise MalformedInput("bad series object", witness=obj) from exc
        shape = PerfectedSeries(p, nvars, k, D, {})  # checks D, p, k, nvars
        depth, lifted = _depth_terms(shape, terms.items())
        return _result(shape, lifted, depth=depth)


def _depth_terms(a, terms):
    """(depth, term map) for the (exponent pairs, coefficient) items of
    terms, checked for a's shape: each reduced pair (num, pexp) reads
    num / p^pexp, and depth is the largest pexp.  A negative exponent, an
    arity other than a.nvars or a bad coefficient is MalformedInput, term
    by term; an exponent witness is its pairs."""
    p, read = a.p, []
    for exp, coeff in terms:
        for num, pexp in exp:
            if num < 0:
                raise MalformedInput("negative exponent",
                                     witness={"num": num, "pexp": pexp})
        if len(exp) != a.nvars:
            raise MalformedInput("exponent arity mismatch",
                                 witness=[{"num": num, "pexp": pexp}
                                          for num, pexp in exp])
        read.append((exp, _coefficient(coeff, p, a.k)))
    pexps = {pexp for exp, _ in read for _, pexp in exp}
    depth = max(pexps, default=0)
    units = {pexp: _unit(p, depth - pexp) for pexp in pexps}
    return depth, {tuple(num * units[pexp] for num, pexp in exp): c
                   for exp, c in read}


def _read_pair(p, e):
    """The reduced (num, pexp) of one JSON exponent.  A negative pexp, and
    a positive one at p = 0, is a ValueError or ZeroDivisionError, which
    from_json reports as a bad series object."""
    num, pexp = _json_int(e["num"]), _json_int(e["pexp"])
    if pexp < 0:
        raise ValueError(f"negative pexp: {pexp}")
    return _reduced(p, num, pexp)


def _exp_json(p, exp, depth):
    return [{"num": num, "pexp": pexp}
            for num, pexp in (_reduced(p, v, depth) for v in exp)]


def _result(a, terms, D=None, nvars=None, depth=None):
    """A series like a, with bound D, nvars variables and exponents at
    depth, built unchecked.

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
    out.depth = a.depth if depth is None else depth
    out._terms = _kept(terms, out.D * _unit(out.p, out.depth))
    return out


def _require_match(a, b):
    if not a.same_shape(b):
        raise ParameterMismatch("series parameters differ",
                                witness={"left": [a.p, a.nvars, a.k],
                                         "right": [b.p, b.nvars, b.k]})


def _lifted(a, depth):
    """a's term map at a depth at least a.depth."""
    if depth == a.depth:
        return a._terms
    f = _unit(a.p, depth - a.depth)
    return {tuple(v * f for v in e): c for e, c in a._terms.items()}


def ps_add(a, b):
    _require_match(a, b)
    depth = max(a.depth, b.depth)
    terms = dict(_lifted(a, depth))
    for exp, c in _lifted(b, depth).items():
        terms[exp] = ff_add(terms[exp], c, a.p) if exp in terms else c
    return _result(a, terms, min(a.D, b.D), depth=depth)


def ps_mul(a, b):
    _require_match(a, b)
    D = min(a.D, b.D)
    depth = max(a.depth, b.depth)
    bound = D * _unit(a.p, depth)
    p, mul = a.p, FieldSpec(a.p, a.k, 1).raw_mul
    out = {}
    right = _lifted(b, depth).items()
    for e1, c1 in _lifted(a, depth).items():
        for e2, c2 in right:
            e = tuple(map(add, e1, e2))
            if e and max(e) > bound:
                continue
            c = mul(c1, c2, p)
            out[e] = ff_add(out[e], c, p) if e in out else c
    return _result(a, out, D, depth=depth)


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
        return _result(a, {(0,) * a.nvars: ff_one(a.k)}, depth=0)
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
    coefficients by x -> x^p (resp. the p-th root, which exists here).

    Exponents move by the depth alone: one less forward (or E times p at
    depth 0), one more inverse.  On F_{p^k}, x -> x^p is the Frobenius
    sigma of FieldSpec(p, k, 1), and its inverse is sigma^-1."""
    if direction not in ("forward", "inverse"):
        raise MalformedInput("direction must be forward or inverse",
                             witness=direction)
    if flavor not in ("relative", "absolute"):
        raise MalformedInput("flavor must be relative or absolute",
                             witness=flavor)
    p, terms = a.p, a._terms
    if flavor == "absolute":
        sigma = FieldSpec(p, a.k, 1).apply_sigma_raw
        step = 1 if direction == "forward" else -1
        terms = {e: sigma(c, step, p) for e, c in terms.items()}
    if direction == "inverse":
        return _result(a, terms, depth=a.depth + 1)
    if a.depth:
        return _result(a, terms, depth=a.depth - 1)
    return _result(a, {tuple(v * p for v in e): c for e, c in terms.items()})


def ps_truncate_ideal(a, kind, m):
    """Class modulo an ideal: kind="frobenius" is (X_1^{p^m},..,X_n^{p^m}),
    kind="power" is (X_1,..,X_n)^m, perfected-monomial membership by floors."""
    if not _integral(m) or m < 0:
        raise MalformedInput("truncation order must be a nonnegative integer",
                             witness={"m": m})
    m = int(m)
    unit = _unit(a.p, a.depth)
    if kind == "frobenius":
        bound = a.p ** m * unit
        keep = lambda exp: all(v < bound for v in exp)
    elif kind == "power":
        keep = lambda exp: sum(v // unit for v in exp) < m
    else:
        raise MalformedInput("unknown ideal kind", witness=kind)
    return _result(a, {e: c for e, c in a._terms.items() if keep(e)})


def ps_embed(a, total_nvars, offset):
    """The same series over a larger variable set, variables shifted."""
    if not (_integral(total_nvars) and _integral(offset)):
        raise MalformedInput("embedding offset and total must be integers",
                             witness={"offset": offset, "total": total_nvars})
    total_nvars, offset = int(total_nvars), int(offset)
    if offset < 0 or offset + a.nvars > total_nvars:
        raise MalformedInput("embedding out of range",
                             witness={"offset": offset, "total": total_nvars})
    pad_l = (0,) * offset
    pad_r = (0,) * (total_nvars - a.nvars - offset)
    return _result(a, {pad_l + e + pad_r: c for e, c in a._terms.items()},
                   nvars=total_nvars)


def ps_compose(f, g, h=()):
    """Substitute the series g_1..g_a, h_1..h_b into an ordinary series f.

    f must have integer exponents in a+b variables and the p and k of the
    substituted series, which share parameters and have zero constant term.
    Each term of f starts as the constant series of its coefficient, takes
    the argument powers in by ps_mul and joins the sum by ps_add.  g and h
    are sequences by padic._sequence's rule.
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
        if (0,) * s.nvars in s._terms:
            raise NonzeroConstantTerm("substituted series has a constant term",
                                      witness=s.to_json()["terms"][0])
    if (f.p, f.k) != (base.p, base.k):  # f's nvars is the argument count
        raise ParameterMismatch("series parameters differ", witness={
            "left": [f.p, f.nvars, f.k], "right": [base.p, base.nvars, base.k]})
    unit = _unit(f.p, f.depth)
    for exp in f._terms:
        if any(v % unit for v in exp):
            raise MalformedInput("outer series must have integer exponents",
                                 witness=_exp_json(f.p, exp, f.depth))
    D = min(s.D for s in args)
    out, powers = _result(base, {}, D), {}
    for exp, coeff in sorted(f._terms.items()):
        term = _result(base, {(0,) * base.nvars: coeff}, D, depth=0)
        for i, e in enumerate(v // unit for v in exp):
            if e:  # x^0 is the series 1, a product by it only a pass
                if (i, e) not in powers:
                    powers[i, e] = ps_pow(args[i], e)
                term = ps_mul(term, powers[i, e])
        out = ps_add(out, term)
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


def _ord_exponent(p, exp, depth):
    """Largest power of p among the component denominators: depth less the
    least p-valuation, capped at depth, of a nonzero component.  Smaller
    components go first, so the running least caps the larger ones."""
    cap = depth
    for v in sorted(filter(None, exp)):
        if not cap:
            break
        cap = _stripped(p, v, cap)[1]
    return depth - cap


def _min_surviving_n(p, top, unit, smr, n0, strict=True):
    """Smallest n >= n0 whose window p^{n(s-r)} exceeds (or reaches) the
    exponent top / unit."""
    n = n0
    while True:
        w = p ** (n * smr) * unit
        if (w > top) if strict else (w >= top):
            return n
        n += 1


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
    depth, unit = a.depth, _unit(a.p, a.depth)
    n_max = _min_surviving_n(p, a.D, 1, smr, n0, strict=True)

    def definitional():
        for exp in sorted(a._terms):
            v = _ord_exponent(p, exp, depth)
            if v == 0:
                continue
            top = max(exp)
            for n in range(n0, n_max + 1):
                if n * r < v and top * p ** (n * r) < p ** (n * s) * unit:
                    return False, _witness(exp, v, n)
        return True, None

    def closed_form():
        for exp in sorted(a._terms):
            v = _ord_exponent(p, exp, depth)
            if v == 0:
                continue
            n_first = _min_surviving_n(p, max(exp), unit, smr, n0)
            if v > r * n_first:
                return False, _witness(exp, v, n_first)
        return True, None

    def _witness(exp, v, n):
        top = max(exp)
        n_le = _min_surviving_n(p, top, unit, smr, n0, strict=False)
        w = {"exp": _exp_json(p, exp, depth), "ord": v, "n": n,
             "allowed": r * n}
        if n_le != _min_surviving_n(p, top, unit, smr, n0, strict=True):
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
    p, unit = a.p, _unit(a.p, a.depth)
    a0, q = E.numerator, E.denominator
    for exp in sorted(a._terms):
        v = _ord_exponent(p, exp, a.depth)
        if v == 0:
            continue
        # p^v <= C (m+d)^E  <=>  p^{v q} <= C^q (m+d)^{a0} with E = a0/q,
        # m = max(exp) / unit; the right side is num / den
        num = (C.numerator ** q
               * (max(exp) * d.denominator + d.numerator * unit) ** a0)
        den = C.denominator ** q * (unit * d.denominator) ** a0
        if p ** (v * q) * den > num:
            rhs = Fraction(num, den)
            return False, {"exp": _exp_json(p, exp, a.depth), "ord": v,
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
    # q^n / d_n > q^(n+1) / d_(n+1), times d_n d_(n+1) / q^n > 0
    ratio_ok = all(d_seq[n + 1] > q * d_seq[n]
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
