"""Group laws on nilpotent Lie algebras via the log(exp X exp Y) series.

The series is computed in the free associative algebra with exact
rationals, then projected onto the Lyndon basis of the free Lie algebra
by triangular elimination; the projection fails loudly if the input were
not a Lie element, so Lie-ness is certified rather than assumed.  The
tests check the coefficient table against two independent references:
matrix logarithms of unipotent products, and the classical double-sum
formula for low degree.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .errors import (DegreeTooLarge, InsufficientPrecision,
                     InvariantViolated, MalformedInput, SplitUnavailable)
from .dieudonne import (algebra_slope_split, integral_columns,
                        lattice_bracket_closure, lattice_coords,
                        lower_central_series, minimal_slope_lattice,
                        require_vectors)
from .linalg import coords_in_column_span
from .padic import PadicScalar, _integral, _prime_factors

MAX_CLASS = 8


# --------------------------------------------------------------------------
# truncated free associative algebra: dict word -> Fraction
# --------------------------------------------------------------------------

def _am_add(a, b):
    out = dict(a)
    for w, c in b.items():
        v = out.get(w, Fraction(0)) + c
        if v:
            out[w] = v
        elif w in out:
            del out[w]
    return out


def _am_scale(c, a):
    if not c:
        return {}
    return {w: c * v for w, v in a.items()}


def _am_mul(a, b, cap):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if len(w1) + len(w2) <= cap:
                w = w1 + w2
                v = out.get(w, Fraction(0)) + c1 * c2
                if v:
                    out[w] = v
                elif w in out:
                    del out[w]
    return out


def _am_bracket(a, b, cap):
    """The commutator ab - ba, truncated beyond degree cap."""
    return _am_add(_am_mul(a, b, cap),
                   _am_scale(Fraction(-1), _am_mul(b, a, cap)))


def _am_exp(a, cap):
    out = {"": Fraction(1)}
    term = {"": Fraction(1)}
    for k in range(1, cap + 1):
        term = _am_scale(Fraction(1, k), _am_mul(term, a, cap))
        if not term:
            break
        out = _am_add(out, term)
    return out


def _am_log(a, cap):
    z = dict(a)
    z.pop("", None)
    out = {}
    zk = {"": Fraction(1)}
    for k in range(1, cap + 1):
        zk = _am_mul(zk, z, cap)
        if not zk:
            break
        out = _am_add(out, _am_scale(Fraction((-1) ** (k + 1), k), zk))
    return out


# --------------------------------------------------------------------------
# Lyndon words and their standard bracketings
# --------------------------------------------------------------------------

def is_lyndon(w):
    return all(w < w[i:] for i in range(1, len(w)))


@lru_cache(maxsize=None)
def standard_factorization(w):
    """(u, v) with v the lexicographically least proper suffix."""
    if len(w) < 2:
        raise InvariantViolated("a letter has no standard factorization",
                                witness=w)
    v = min(w[i:] for i in range(1, len(w)))
    u = w[:len(w) - len(v)]
    return u, v


@lru_cache(maxsize=None)
def _expand_bracket(w):
    """Associative expansion of the standard bracketing of a Lyndon word:
    every word of it has length len(w), so no truncation applies."""
    if len(w) == 1:
        return {w: Fraction(1)}
    u, v = standard_factorization(w)
    return _am_bracket(_expand_bracket(u), _expand_bracket(v), len(w))


def _bracketing(w, memo, bracket):
    """The standard bracketing of the Lyndon word w, with bracket(s, t)
    for [s, t] and memo holding the value of each word met so far, the
    letters X and Y seeded by the caller."""
    if w not in memo:
        u, v = standard_factorization(w)
        memo[w] = bracket(_bracketing(u, memo, bracket),
                          _bracketing(v, memo, bracket))
    return memo[w]


class FreeLieElement:
    """Rational combination of standard Lyndon brackets: word -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {w: Fraction(c) for w, c in terms.items() if c}

    def to_json(self):
        return [{"word": w, "coeff": str(c)}
                for w, c in sorted(self.terms.items(),
                                   key=lambda t: (len(t[0]), t[0]))]


def lie_project(assoc, cap):
    """Lyndon coefficients of a Lie element given associatively.

    Works degree by degree: the smallest surviving word must be Lyndon and
    is the leading word of its standard bracket, so greedy elimination is
    triangular; any residue certifies the input was not a Lie element.
    """
    terms = {}
    for d in range(1, cap + 1):
        rest = {w: c for w, c in assoc.items() if len(w) == d and c}
        while rest:
            w = min(rest)
            if not is_lyndon(w):
                raise MalformedInput("non-Lie input: leading word is not "
                                     "Lyndon", witness=w)
            lam = rest[w]
            terms[w] = lam
            rest = _am_add(rest, _am_scale(-lam, _expand_bracket(w)))
    return terms


def _class_bound(c):
    """c as an int of at least 1, by padic._integral's rule: a boolean, a
    non-integral or a non-positive class bound is MalformedInput, never
    truncated."""
    if not _integral(c):
        raise MalformedInput("class bound must be an integer",
                             witness={"requested": c})
    if c < 1:
        raise MalformedInput("class bound is 1..%d" % MAX_CLASS,
                             witness={"requested": c})
    return int(c)


def bch_series(c):
    """log(exp X exp Y) truncated beyond degree c, on the Lyndon basis.

    c is read by _class_bound before the cache, so the cache is keyed by
    an int.  A class below 1 is malformed; one above MAX_CLASS is
    DegreeTooLarge.
    """
    return _bch_table(_class_bound(c))


@lru_cache(maxsize=None)
def _bch_table(c):
    if c > MAX_CLASS:
        raise DegreeTooLarge("class bound is 1..%d" % MAX_CLASS,
                             witness={"requested": c})
    X = {"X": Fraction(1)}
    Y = {"Y": Fraction(1)}
    prod = _am_mul(_am_exp(X, c), _am_exp(Y, c), c)
    series = _am_log(prod, c)
    return FreeLieElement(lie_project(series, c))


# perfbench's tracer reads the cache's hit ratio through the public name
bch_series.cache_info = _bch_table.cache_info


def denominator_profile(c):
    """Primes dividing any coefficient denominator up to degree c."""
    primes = set()
    for coeff in bch_series(c).terms.values():
        primes |= _prime_factors(coeff.denominator)
    if any(q > c for q in primes):
        raise InvariantViolated("denominator prime exceeds the class",
                                witness={"class": c, "primes": sorted(primes)})
    return primes


# --------------------------------------------------------------------------
# group law on nilpotent algebras
# --------------------------------------------------------------------------

def group_mul(a, x, y):
    """x * y via the series truncated beyond the algebra's class, which
    lower_central_series reads from the algebra; exact because the
    bracket is nilpotent.  x and y are coordinate vectors of a, checked by
    dieudonne.require_vectors before any work."""
    require_vectors(a, [x, y])
    _, n_class = lower_central_series(a)
    fle = bch_series(max(1, n_class))
    memo = {"X": x, "Y": y}
    spec = a.spec
    acc = [PadicScalar.zero(spec)] * a.rank
    for w, coeff in fle.terms.items():
        vec = _bracketing(w, memo, a.bracket_vec)
        c = PadicScalar.from_fraction(spec, coeff)
        for i in range(a.rank):
            if not vec[i].is_zero:
                acc[i] = acc[i] + vec[i] * c
    return acc


def lattice_closure_check(a, samples=100, seed=0):
    """Whether the group law maps lattice x lattice into the lattice.

    Above the class the answer is a theorem (Lazard; Khukhro,
    p-Automorphisms of Finite p-Groups, ch. 9-10): a Z_p-lattice closed
    under the bracket is closed under any BCH series whose coefficients
    through degree c are p-integral, and p > c makes them so.  So when
    p > class and lattice_bracket_closure finds every basis bracket in the
    lattice, the answer is (True, None), a certificate: denominator_profile
    checks the coefficient hypothesis, and no product is taken.

    Otherwise, for p <= class or a lattice not closed under the bracket,
    a sampler searches for a failing pair: the m^2 basis pairs, then
    samples random pairs with coefficients in -3..3 drawn from seed, so
    samples = 0 checks the basis pairs only.  The first failing pair is
    the witness; with none, the answer is (True, None), which below the
    class means only that no counterexample was found.  samples is a
    non-negative integer and seed an integer, by padic._integral's rule,
    else MalformedInput.

    The sampler checks its pairs in batches of one solve each, holding 1,
    2, 4, ... pairs, so the search stops within twice as many products as
    a solve per pair would make, and random pairs are drawn only as their
    batch comes up.  The answer is the one a solve per pair would give,
    with the first failing pair in the same order: the solve gives each
    target the digits of its own solve, a lattice that lost rank raises
    the same way for every target, and group_mul cannot raise on these
    inputs.
    """
    if not _integral(samples) or samples < 0:
        raise MalformedInput("samples must be a non-negative integer",
                             witness=samples)
    if not _integral(seed):
        raise MalformedInput("seed must be an integer", witness=seed)
    samples, seed = int(samples), int(seed)
    if a.lattice is None:
        raise MalformedInput("no lattice on this algebra")
    lattice_coords(a, [])  # a lattice that lost rank raises here
    _, n_class = lower_central_series(a)
    spec = a.spec
    if spec.p > n_class and all(lattice_bracket_closure(a)[1]):
        denominator_profile(max(1, n_class))
        return True, None
    m = len(a.lattice)
    rng = random.Random(seed)
    # every multiplier below lies in -3..3
    mult = {k: PadicScalar.from_fraction(spec, k) for k in range(-3, 4)}

    def point(coeffs):
        x = [PadicScalar.zero(spec)] * a.rank
        for s, k in enumerate(coeffs):
            if k:
                x = [xi + li * mult[k] for xi, li in zip(x, a.lattice[s])]
        return x

    def pairs():
        """(cx, cy, x, y): coefficients and points of the basis pairs, then
        of the random pairs."""
        unit = [[1 if s == i else 0 for s in range(m)] for i in range(m)]
        basis = [point(u) for u in unit]
        for cx, x in zip(unit, basis):
            for cy, y in zip(unit, basis):
                yield cx, cy, x, y
        for _ in range(samples):
            cx = [rng.randrange(-3, 4) for _ in range(m)]
            cy = [rng.randrange(-3, 4) for _ in range(m)]
            yield cx, cy, point(cx), point(cy)

    todo = pairs()
    size = 1
    while batch := list(islice(todo, size)):
        prods = [group_mul(a, x, y) for _, _, x, y in batch]
        closed = integral_columns(coords_in_column_span(a.lattice, prods))
        if False in closed:
            cx, cy, _, _ = batch[closed.index(False)]
            return False, {"x": cx, "y": cy}
        size *= 2
    return True, None


# --------------------------------------------------------------------------
# projection defect onto the minimal-slope center
# --------------------------------------------------------------------------

def rho_defect(a, xprime, x, n):
    """d = rho(x' * x) - rho(x') - rho(x), with lattice membership report.

    rho projects onto the minimal-slope part along the direct sum of the
    remaining slope blocks (an F-equivariant complement).  For x' in the
    lattice and x with complement-part denominators bounded by p^n, the
    defect lands in p^-n times the minimal-slope part of the lattice.  n
    is an integer by padic._integral's rule, else MalformedInput.

    The slope split and the minimal-slope part of the lattice depend only
    on the algebra: each is computed on the first call, by
    algebra_slope_split and minimal_slope_lattice, and read on every
    later one, so a later call makes the lattice's rank check, one
    group_mul and two solves.
    """
    if not _integral(n):
        raise MalformedInput("n must be an integer", witness={"n": n})
    n = int(n)
    spec = a.spec
    try:
        blocks = algebra_slope_split(a)
    except InsufficientPrecision as exc:
        raise SplitUnavailable("no certified slope complement",
                               witness=exc.witness)
    # slopes strictly increase, so the first block is the minimal-slope
    # one; a rank-0 algebra has no block and a zero defect
    b_cols = blocks[0][1] if blocks else []
    P_cols = [c for _, basis, _ in blocks for c in basis]
    nb = len(b_cols)

    def rho(coords):
        out = [PadicScalar.zero(spec) for _ in range(a.rank)]
        for s in range(nb):
            cs = coords[s]
            if cs.is_zero:
                continue
            for i in range(a.rank):
                if not b_cols[s][i].is_zero:
                    out[i] = out[i] + cs * b_cols[s][i]
        return out

    if a.lattice is not None:
        lattice_coords(a, [])  # a lattice that lost rank raises here
    prod = group_mul(a, xprime, x)
    # P_cols is square, so every target has coordinates
    rp, rx, rxp = map(rho, coords_in_column_span(P_cols, [prod, x, xprime]))
    d = [pm - px - pxp for pm, px, pxp in zip(rp, rx, rxp)]
    report = {"n": n, "member": None, "witness": None}
    if a.lattice is not None:
        bplus = minimal_slope_lattice(a)
        if all(c.is_zero for c in d):
            report["member"] = True
        elif (coords := coords_in_column_span(bplus, [d])[0]) is None:
            report["member"] = False
            report["witness"] = {"reason": "outside the minimal-slope part"}
        else:
            ok = all(c.is_zero or c.v >= -n for c in coords)
            report["member"] = ok
            if not ok:
                report["witness"] = {
                    "valuations": [str(c.valuation()) for c in coords]}
    return d, report
