"""Exact arithmetic in unramified extensions Z_q / p^N and their fraction fields.

The coefficient ring is (Z/p^N)[t]/(g) where g is the canonical degree-f
modulus: the monic irreducible polynomial over F_p whose coefficient
vector (a_0, .., a_{f-1}), read as the integer sum(a_i p^i), is smallest.
Scalars are stored in valuation-unit form with explicit relative
precision, so every operation propagates exactly how many p-adic digits
remain certified.  Division by certified units is exact; division that
would leave no digits raises instead of silently degrading.
"""

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from . import _speedups as _k
from .errors import (DivisionByZero, FieldSpecMismatch, FrobeniusLiftFailure,
                     InvariantViolated, MalformedInput, PrecisionExhausted)


# --------------------------------------------------------------------------
# polynomials mod m: little-endian integer lists, a[i] the coefficient of
# t^i.  Results are reduced into [0, m) with no top zero, so [] is zero;
# m = p gives F_p[t].  Division needs a divisor whose leading coefficient
# is 1 mod m, so poly_xgcd makes each remainder monic before dividing.
# --------------------------------------------------------------------------

def poly_trim(a, m):
    a = [c % m for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_add(a, b, m, c=1):
    """a + c*b for an integer c."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] += c * x
    return poly_trim(out, m)


def poly_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out, m)


def poly_divmod(a, b, m):
    """(q, r) with a = q b + r mod m and deg r < deg b, for b monic mod m."""
    if not b or b[-1] % m != 1 % m:
        raise InvariantViolated("divisor is not monic", witness=list(b))
    db = len(b) - 1
    if len(a) <= db:
        return [], poly_trim(a, m)
    a = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] % m
        if c:
            q[k - db] = c
            for j in range(db):
                a[k - db + j] -= c * b[j]
    return poly_trim(q, m), poly_trim(a[:db], m)


def poly_powmod(a, e, g, m):
    """a^e mod (g, m), for g monic mod m."""
    out = [1]
    a = poly_divmod(a, g, m)[1]
    while e:
        if e & 1:
            out = poly_divmod(poly_mul(out, a, m), g, m)[1]
        a = poly_divmod(poly_mul(a, a, m), g, m)[1]
        e >>= 1
    return out


def poly_xgcd(a, b, p):
    """(d, t) with d the monic gcd of a and b over F_p and t b = d mod a.

    a must be monic.  Extended Euclid that scales each remainder to be
    monic, so t is the inverse of b mod a when d == [1].
    """
    r0, t0 = poly_trim(a, p), []
    r1, t1 = poly_trim(b, p), [1]
    while True:
        if r1 and r1[-1] != 1:
            inv = pow(r1[-1], -1, p)
            r1 = [c * inv % p for c in r1]
            t1 = [c * inv % p for c in t1]
        if len(r1) <= 1:
            return (r1, t1) if r1 else (r0, t0)
        q, r = poly_divmod(r0, r1, p)
        r0, t0, r1, t1 = r1, t1, r, poly_add(t0, poly_mul(q, t1, p), p, -1)


def _prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _json_int(v):
    """int(v) for a JSON int, integral float or integer string; a boolean
    or a non-integral number is a ValueError, never truncated."""
    if isinstance(v, bool) or isinstance(v, float) and not v.is_integer():
        raise ValueError(f"not an integer: {v!r}")
    return int(v)


def _integral(v):
    """True for an int or an integral float or Fraction: the one rule for
    integer parameters.  A boolean or a non-integral value is refused, never
    truncated, and a caller keeps int(v)."""
    return type(v) is int or isinstance(v, (float, Fraction)) and v % 1 == 0


def _rational(v):
    """Fraction(v), or None for what is not a rational: the one rule for
    rational parameters.  A boolean, which Fraction(v) would read as 0 or
    1, is refused, and so is every value Fraction(v) refuses with a
    TypeError, ValueError, ZeroDivisionError or OverflowError: None, a
    list, "x", "1/0", an infinity or a NaN.  A caller raises its own
    MalformedInput on None."""
    if isinstance(v, bool):
        return None
    try:
        return Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        return None


def _sequence(v):
    """True for a sequence: the one rule for sequence parameters.  A list,
    a tuple or a range is one; a string or bytes, which would read as its
    characters, is not, and neither is a mapping, a set, an iterator or a
    non-iterable such as 5 or None.  A caller raises its own MalformedInput
    on False."""
    return isinstance(v, Sequence) and not isinstance(v, (str, bytes))


def _is_irreducible(g, p):
    """Rabin test for a monic g over F_p."""
    f = len(g) - 1
    x = [0, 1]
    if poly_add(poly_powmod(x, p ** f, g, p), x, p, -1):
        return False
    for q in _prime_factors(f):
        xe = poly_powmod(x, p ** (f // q), g, p)
        if len(poly_xgcd(g, poly_add(xe, x, p, -1), p)[0]) != 1:
            return False
    return True


#: the first 13 primes: _is_prime's trial divisors and its bases
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: psi_13 = 1287836182261 * 2575672364521, the least strong pseudoprime to
#: every base of _BASES (Sorenson and Webster, "Strong pseudoprimes to
#: twelve prime bases", Math. Comp. 86, 2017); FieldSpec refuses p at or
#: above it
P_CEILING = 3317044064679887385961981


def _is_prime(n):
    """Miller-Rabin to the bases _BASES, deterministic for n < P_CEILING."""
    if n < 2:
        return False
    for small in _BASES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def canonical_modulus(p, f):
    """Coefficients (a_0, .., a_{f-1}) of the canonical monic irreducible.

    Candidates t^f + sum a_i t^i are scanned in increasing order of the
    integer sum(a_i p^i); the first irreducible one wins.  Degree 1 gives
    plain t, so f = 1 collapses to Z/p^N.

    The first p candidates are the binomials t^f + a_0.  None of them is
    irreducible when a prime dividing f does not divide p - 1, or when
    4 | f and p is not 1 mod 4 (Lidl and Niederreiter, Finite Fields,
    Thm 3.75), and then the scan starts after them.
    """
    if f == 1:
        return (0,)
    start = 0
    if any((p - 1) % q for q in _prime_factors(f)) or (
            f % 4 == 0 and p % 4 != 1):
        start = p
    for enc in range(start, p ** f):
        a, e = [], enc
        for _ in range(f):
            a.append(e % p)
            e //= p
        g = a + [1]
        if _is_irreducible(g, p):
            return tuple(a)
    raise FrobeniusLiftFailure("no irreducible modulus found",  # pragma: no cover
                               witness={"p": p, "f": f})


# --------------------------------------------------------------------------
# the coefficient ring
# --------------------------------------------------------------------------

_SPEC_CACHE = {}


class FieldSpec:
    """Unramified ring Z_q/p^N, q = p^f, with its Frobenius lift.

    Instances are interned by (p, f, N): equality is identity.
    """

    __slots__ = ("p", "f", "N", "pN", "g_low", "_red", "_sigma_mats",
                 "_zero")

    def __new__(cls, p, f, N):
        if type(p) is not int or type(f) is not int or type(N) is not int:
            # keyed as ints, so no call is answered by a spec that another
            # call built from True or 4.0
            if not (_integral(p) and _integral(f) and _integral(N)):
                raise MalformedInput("need prime p >= 2, f >= 1, N >= 1",
                                     witness={"p": p, "f": f, "N": N})
            p, f, N = int(p), int(f), int(N)
        key = (p, f, N)
        hit = _SPEC_CACHE.get(key)
        if hit is not None:
            return hit
        if p >= P_CEILING:  # the witness names the ceiling, never p
            raise MalformedInput("p must be below the ceiling",
                                 witness={"ceiling": P_CEILING})
        if f < 1 or N < 1:
            raise MalformedInput("need prime p >= 2, f >= 1, N >= 1",
                                 witness={"p": p, "f": f, "N": N})
        if not _is_prime(p):
            raise MalformedInput("p must be prime", witness={"p": p})
        self = object.__new__(cls)
        self.p, self.f, self.N = p, f, N
        self.pN = p ** N
        self.g_low = canonical_modulus(p, f)
        self._red = {}
        self._sigma_mats = None
        self._zero = PadicScalar(self, None, None, N)
        _SPEC_CACHE[key] = self
        return self

    # -- reduction data ----------------------------------------------------

    def red_rows(self, pM):
        """Rows for t^(f+k), k = 0..f-2, mod (g, pM): t times the last."""
        rows = self._red.get(pM)
        if rows is None:
            f, g = self.f, list(self.g_low) + [1]
            r, rows = [0] * (f - 1) + [1], []
            for _ in range(f - 1):
                r = poly_divmod([0] + r, g, pM)[1]
                rows.append(tuple(r) + (0,) * (f - len(r)))
            rows = self._red[pM] = tuple(rows)
        return rows

    # -- raw ring helpers (coefficient tuples) -------------------------------

    def raw_mul(self, a, b, pM):
        return _k.zq_mul(a, b, self.red_rows(pM), self.f, pM)

    def raw_pow(self, a, e, pM):
        res = (1,) + (0,) * (self.f - 1)
        while e:
            if e & 1:
                res = self.raw_mul(res, a, pM)
            a = self.raw_mul(a, a, pM)
            e >>= 1
        return res

    def raw_inv_unit(self, u, pM):
        """Inverse of a unit coefficient tuple mod (g, pM), by its norm.

        With P = u sigma(u) .. sigma^(f-2)(u), the norm N(u) = u sigma(P)
        is the product of all f conjugates of u.  sigma fixes it, so it
        lies in Z_p / pM and its tuple is (n, 0, .., 0); hence
        u^-1 = sigma(P) / n, with one integer inverse of n mod pM.  u is a
        unit exactly when n is prime to p.  A unit has one inverse mod
        (g, pM), so this is the inverse any other route gives, digit for
        digit.  P is built by doubling, P_2k = P_k sigma^k(P_k) and
        P_(k+1) = u sigma(P_k), in O(log f) products.  For f > 1, pM must
        divide p^N, as for apply_sigma_raw.
        """
        if self.f == 1:
            n, conj = u[0], (1,)
        else:
            P, k = u, 1
            for bit in bin(self.f - 1)[3:]:
                P = self.raw_mul(P, self.apply_sigma_raw(P, k, pM), pM)
                k *= 2
                if bit == "1":
                    P = self.raw_mul(u, self.apply_sigma_raw(P, 1, pM), pM)
                    k += 1
            conj = self.apply_sigma_raw(P, 1, pM)
            n = self.raw_mul(u, conj, pM)[0]
        if n % self.p == 0:
            raise DivisionByZero("not a unit", witness=list(u))
        n_inv = pow(n, -1, pM)
        return tuple(c * n_inv % pM for c in conj)

    # -- Frobenius ----------------------------------------------------------

    def _build_sigma(self):
        """Lift x = sigma(t); table k - 1 holds the powers sigma^k(t)^j,
        j < f, and sigma^(k+1)(t) = sum_j x_j sigma^k(t)^j is read from it."""
        p, f, N, pN = self.p, self.f, self.N, self.pN
        # Hensel-lift the residue root t^p of g to Z_q/p^N
        g = list(self.g_low) + [1]
        dg = [k * g[k] for k in range(1, f + 1)]
        x = self.raw_pow((0, 1) + (0,) * (f - 2), p, p)

        def horner(poly, x, pM):
            acc = (0,) * f
            for c in reversed(poly):
                acc = self.raw_mul(acc, x, pM)
                acc = ((acc[0] + c) % pM,) + acc[1:]
            return acc

        # y ~ 1/g'(x) is lifted with x (raw_inv_unit needs the sigma tables
        # this builds): its inverse mod p over F_p[t], then one step
        # y <- y (2 - g'(x) y) at each precision.  When x is a root mod p^m
        # and the step goes to p^M, M <= 2m, y then inverts g'(x) mod
        # p^(M - m) at least; g(x) is divisible by p^m, so the correction
        # g(x) y is the one an exact inverse of g'(x) mod p^M gives.
        dgx = horner(dg, x, p)
        d, y = poly_xgcd(g, dgx, p)
        if d != [1]:
            raise FrobeniusLiftFailure("derivative not a unit",
                                       witness=list(dgx))
        y = tuple(y) + (0,) * (f - len(y))
        prec = 1
        while prec < N:
            prec = min(2 * prec, N)
            pM = p ** prec
            gy = self.raw_mul(horner(dg, x, pM), y, pM)
            y = self.raw_mul(y, ((2 - gy[0]) % pM,)
                             + tuple((-c) % pM for c in gy[1:]), pM)
            corr = self.raw_mul(horner(g, x, pM), y, pM)
            x = tuple((a - b) % pM for a, b in zip(x, corr))
        gx = horner(g, x, pN)  # reduced into [0, p^N)
        if any(gx):
            raise FrobeniusLiftFailure("lift does not kill the modulus",
                                       witness=list(gx))
        mats, xk = [], x
        for _ in range(1, f):
            cols = [(1,) + (0,) * (f - 1)]
            for _ in range(f - 1):
                cols.append(self.raw_mul(cols[-1], xk, pN))
            mats.append(tuple(cols))
            xk = tuple(sum(xj * col[i] for xj, col in zip(x, cols)) % pN
                       for i in range(f))
        if xk != (0, 1) + (0,) * (f - 2):
            raise FrobeniusLiftFailure("sigma^f is not the identity",
                                       witness=list(xk))
        self._sigma_mats = tuple(mats)

    def apply_sigma_raw(self, a, k, pM):
        """sigma^k on a coefficient tuple; needs pM <= p^N when f > 1."""
        k %= self.f
        if k == 0 or self.f == 1:
            return tuple(c % pM for c in a)
        if self._sigma_mats is None:
            self._build_sigma()
        cols = self._sigma_mats[k - 1]
        f = self.f
        out = [0] * f
        for j in range(f):
            cj = a[j]
            if cj:
                col = cols[j]
                for i in range(f):
                    out[i] += cj * col[i]
        return tuple(v % pM for v in out)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {"p": self.p, "f": self.f, "N": self.N}

    @staticmethod
    def from_json(obj):
        try:
            return FieldSpec(_json_int(obj["p"]), _json_int(obj["f"]),
                             _json_int(obj["N"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput("bad field spec", witness=obj) from exc

    def __repr__(self):
        return f"FieldSpec(p={self.p}, f={self.f}, N={self.N})"


class ValuationAtLeast:
    """Marker returned for zero-to-precision values: 'valuation >= bound'."""

    __slots__ = ("bound",)

    def __init__(self, bound):
        self.bound = bound

    def __eq__(self, other):
        return isinstance(other, ValuationAtLeast) and self.bound == other.bound

    def __repr__(self):
        return f">= {self.bound}"


class PadicScalar:
    """An element of Q_q known to finite precision.

    Nonzero: value p^v * unit with the unit coefficient tuple certified
    mod p^rel (1 <= rel <= N), so the absolute precision is v + rel.
    Zero-to-precision: only the absolute bound survives (valuation >= rel,
    with v = unit = None).

    Scalars are immutable: only __init__ sets their attributes, so one
    instance may be shared, as PadicScalar.zero shares O(p^N).
    """

    __slots__ = ("spec", "v", "unit", "rel")

    def __init__(self, spec, v, unit, rel):
        self.spec = spec
        self.v = v
        self.unit = unit
        self.rel = rel

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(spec, bound=None):
        """O(p^bound); the default bound N returns the spec's shared zero."""
        if bound is None:
            return spec._zero
        return PadicScalar(spec, None, None, bound)

    @staticmethod
    def from_raw(spec, coeffs, shift, abs_prec):
        """p^shift * (coefficients known mod p^(abs_prec - shift)), normalized."""
        rel_mod = abs_prec - shift
        if rel_mod <= 0:
            raise PrecisionExhausted("no certified digits",
                                     witness={"abs": abs_prec, "shift": shift})
        # one pass: d is the least valuation mod pM, rel_mod if all vanish
        p, d = spec.p, rel_mod
        pM = p ** rel_mod
        for c in coeffs:
            c %= pM
            if c:
                k = 0
                while not c % p:
                    c //= p
                    k += 1
                if k < d:
                    d = k
                    if not k:
                        break
        if d == rel_mod:
            return PadicScalar(spec, None, None, abs_prec)
        # rel = min(abs_prec - v, N) with v = shift + d; rel <= rel_mod - d,
        # so each unit coefficient is exact mod p^rel
        rel, pw = rel_mod - d, p ** d
        if rel > spec.N:
            rel, pr = spec.N, spec.pN
        else:
            pr = pM // pw
        return PadicScalar(spec, shift + d,
                           tuple([c // pw % pr for c in coeffs]), rel)

    @staticmethod
    def from_int(spec, n):
        return PadicScalar.from_fraction(spec, n)

    @staticmethod
    def from_fraction(spec, fr):
        """fr, rational by _rational's rule, at full precision."""
        read = _rational(fr)
        if read is None:
            raise MalformedInput("value must be rational",
                                 witness={"type": type(fr).__name__})
        if read == 0:
            return PadicScalar.zero(spec)
        num, den = read.numerator, read.denominator
        v = 0
        while num % spec.p == 0:
            num //= spec.p
            v += 1
        while den % spec.p == 0:
            den //= spec.p
            v -= 1
        u = (num * pow(den, -1, spec.pN)) % spec.pN
        return PadicScalar(spec, v, (u,) + (0,) * (spec.f - 1), spec.N)

    @staticmethod
    def from_coeffs(spec, coeffs, valuation=0):
        """p^valuation * (integer coefficient tuple), exact input.  Each
        coefficient and the valuation are integers by _integral's rule,
        never truncated, and coeffs is a sequence by _sequence's."""
        if not _sequence(coeffs):
            raise MalformedInput("coefficients must be a sequence",
                                 witness={"type": type(coeffs).__name__})
        if len(coeffs) != spec.f:
            raise MalformedInput("coefficient tuple has wrong length",
                                 witness=list(coeffs))
        if not (_integral(valuation) and all(map(_integral, coeffs))):
            raise MalformedInput("coefficients and valuation must be integers",
                                 witness={"coeffs": [str(c) for c in coeffs],
                                          "valuation": str(valuation)})
        v = int(valuation)
        return PadicScalar.from_raw(spec, tuple(int(c) for c in coeffs),
                                    v, v + spec.N)

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self):
        return self.unit is None

    def valuation(self):
        return ValuationAtLeast(self.rel) if self.is_zero else self.v

    @property
    def abs_prec(self):
        return self.rel if self.is_zero else self.v + self.rel

    # -- arithmetic ----------------------------------------------------------

    def _same(self, other):
        if self.spec is not other.spec:
            raise FieldSpecMismatch("operands over different rings",
                                    witness={"left": self.spec.to_json(),
                                             "right": other.spec.to_json()})

    def __neg__(self):
        if self.is_zero:
            return self
        pM = self.spec.p ** self.rel
        return PadicScalar(self.spec, self.v,
                           tuple([(-c) % pM for c in self.unit]), self.rel)

    def __add__(self, other):
        # the scalar hot path: it reads the slots (unit is None for a zero)
        # instead of calling is_zero, abs_prec or zero(), and compares
        # instead of calling min
        spec = self.spec
        if other.spec is not spec:
            self._same(other)
        if self.unit is None:
            if other.unit is None:
                b = other.rel
                return PadicScalar(spec, None, None,
                                   self.rel if self.rel < b else b)
            b, x = self.rel, other
        elif other.unit is None:
            b, x = other.rel, self
        else:
            sv, ov = self.v, other.v
            w = sv if sv < ov else ov
            abs_out, other_abs = sv + self.rel, ov + other.rel
            if other_abs < abs_out:
                abs_out = other_abs
            p = spec.p
            rel = abs_out - w
            mod = p ** rel
            pa, pb = p ** (sv - w), p ** (ov - w)
            coeffs = tuple([(pa * a + pb * c) % mod
                            for a, c in zip(self.unit, other.unit)])
            if sv == ov:
                return PadicScalar.from_raw(spec, coeffs, w, abs_out)
            # unequal valuations cannot cancel: mod p the sum is the lower
            # operand's unit, which is nonzero mod p, so the sum is a unit
            # times p^w; rel <= N, since abs_out <= w + (that unit's rel)
            return PadicScalar(spec, w, coeffs, rel)
        # x plus the zero O(p^b)
        xv = x.v
        if xv >= b:
            return PadicScalar(spec, None, None, b)
        rel = b - xv
        if x.rel < rel:
            rel = x.rel
        pM = spec.p ** rel
        return PadicScalar(spec, xv, tuple([c % pM for c in x.unit]), rel)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        spec = self.spec
        if other.spec is not spec:
            self._same(other)
        if self.unit is None or other.unit is None:
            return PadicScalar(spec, None, None,
                               (self.rel if self.unit is None else self.v)
                               + (other.rel if other.unit is None else other.v))
        # zq_mul reduces the product mod p^rel, so the units need no
        # reduction first
        rel = self.rel if self.rel < other.rel else other.rel
        pM = spec.p ** rel
        return PadicScalar(spec, self.v + other.v,
                           _k.zq_mul(self.unit, other.unit,
                                     spec.red_rows(pM), spec.f, pM), rel)

    def invert(self):
        if self.is_zero:
            raise DivisionByZero("inversion of zero-to-precision value",
                                 witness={"bound": self.rel})
        if self.rel <= 0:
            raise PrecisionExhausted("no digits left to invert")
        pM = self.spec.p ** self.rel
        inv = self.spec.raw_inv_unit(tuple(c % pM for c in self.unit), pM)
        return PadicScalar(self.spec, -self.v, inv, self.rel)

    def __truediv__(self, other):
        return self * other.invert()

    def sigma(self, k=1):
        """Frobenius lift, k-fold."""
        if self.is_zero or self.spec.f == 1:
            return self
        pM = self.spec.p ** self.rel
        img = self.spec.apply_sigma_raw(self.unit, k, pM)
        # an automorphism fixes valuations; the image of a unit is a unit
        return PadicScalar(self.spec, self.v, img, self.rel)

    def scale_p(self, k):
        """Multiply by p^k (exact)."""
        if self.is_zero:
            return PadicScalar.zero(self.spec, self.rel + k)
        return PadicScalar(self.spec, self.v + k, self.unit, self.rel)

    # -- conversion ----------------------------------------------------------

    def qp_components(self):
        """Coordinates on the power basis as scalars over FieldSpec(p, 1, N)."""
        spec = self.spec
        base = FieldSpec(spec.p, 1, spec.N)
        if self.is_zero:
            return [PadicScalar.zero(base, self.rel)] * spec.f
        return [PadicScalar.from_raw(base, (c,), self.v, self.abs_prec)
                for c in self.unit]

    def to_json(self):
        if self.is_zero:
            return {"valuation": None, "unit": None, "zero_precision": self.rel}
        pN = self.spec.pN
        u = list(self.unit)
        if self.rel < self.spec.N:
            pR = self.spec.p ** self.rel
            u = [c % pR for c in u]
        return {"valuation": self.v, "unit": [c % pN for c in u]}

    @staticmethod
    def from_json(spec, obj):
        try:
            if obj.get("unit") is None:
                b = obj.get("zero_precision", spec.N)
                return PadicScalar.zero(spec, _json_int(b))
            v = _json_int(obj["valuation"])
            unit = [_json_int(c) for c in obj["unit"]]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise MalformedInput("bad scalar", witness=obj) from exc
        return PadicScalar.from_coeffs(spec, unit, v)

    def __repr__(self):
        if self.is_zero:
            return f"O(p^{self.rel})"
        terms = []
        for i, c in enumerate(self.unit):
            if c:
                terms.append(f"{c}" if i == 0 else
                             (f"{c}*t" if i == 1 else f"{c}*t^{i}"))
        body = " + ".join(terms) or "0"
        return f"p^{self.v}*({body}) + O(p^{self.abs_prec})"
