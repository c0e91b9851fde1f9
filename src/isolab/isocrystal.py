"""F-isocrystals over Q_q at finite precision.

An isocrystal is a free module with an invertible sigma-semilinear
operator, stored as the matrix F of that operator on a fixed basis.
Slopes are valuations of Frobenius eigenvalues normalized by the inertia
degree; for p-divisible groups they land in [-1, 0] with 0 etale and -1
multiplicative.

Slope decomposition runs entirely in exact arithmetic over the module's
own ring: linearize by the twisted f-fold product, take a division-free
characteristic polynomial, pass to its d-th power, with d the lcm of the
denominators of the root valuations that are peeled (a step skipped when
those are integral; the unpeeled ones above them may stay fractional),
peel one integral valuation at a time by quadratic Hensel lifting of
that valuation's factor h and of the cofactor's inverse mod h, and cut
the module along kernels of the resulting factors.
"""

from fractions import Fraction
from math import lcm

from .errors import (FieldSpecMismatch, InsufficientPrecision,
                     InvariantViolated, MalformedInput, NonInvertible,
                     ResidueFieldTooSmall, SplitUnavailable)
from .linalg import (charpoly, coords_in_column_span, kernel_basis,
                     mat_from_rationals, mat_identity, mat_inverse, mat_mul,
                     newton_root_valuations, twisted_power)
from .padic import (FieldSpec, PadicScalar, _integral, _json_int, _rational,
                    _require_scalars, _sequence, poly_add, poly_divmod,
                    poly_mul, poly_trim, poly_xgcd)


class Isocrystal:
    """Frobenius matrix on a fixed basis of a free Q_q-module: F is a
    square sequence of rows, each a sequence by padic._sequence's rule,
    whose entries are PadicScalar over spec (padic._require_scalars),
    checked once here."""

    __slots__ = ("spec", "rank", "F")

    def __init__(self, spec, F):
        if not (_sequence(F) and all(map(_sequence, F))):
            raise MalformedInput("frobenius matrix must be a sequence of rows",
                                 witness={"type": type(F).__name__})
        self.spec = spec
        self.rank = len(F)
        for row in F:
            if len(row) != self.rank:
                raise MalformedInput("frobenius matrix must be square",
                                     witness={"rank": self.rank})
        _require_scalars(spec, F, "frobenius entries must be PadicScalar",
                         {"rank": self.rank})
        self.F = F

    @staticmethod
    def from_rationals(spec, rows):
        return Isocrystal(spec, mat_from_rationals(spec, rows))

    def to_json(self):
        return {"spec": self.spec.to_json(), "rank": self.rank,
                "frobenius": [[a.to_json() for a in row] for row in self.F]}

    @staticmethod
    def from_json(obj):
        try:
            spec = FieldSpec.from_json(obj["spec"])
            rank = _json_int(obj["rank"])
            rows = obj["frobenius"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput("bad isocrystal", witness=obj) from exc
        if not (isinstance(rows, list) and len(rows) == rank and all(
                isinstance(r, list) and len(r) == rank for r in rows)):
            raise MalformedInput("frobenius shape disagrees with rank",
                                 witness={"rank": rank})
        F = [[PadicScalar.from_json(spec, c) for c in row] for row in rows]
        return Isocrystal(spec, F)

    def apply(self, xs):
        """The semilinear operator F . sigma(x) on each vector of the list xs.

        One mat_mul answers the whole list: the rows sigma(x) times the
        transpose of F.  mat_mul gives each entry the digits of its own
        fold, so every image is the one its vector alone would get.
        """
        return mat_mul([[c.sigma() for c in x] for x in xs],
                       list(zip(*self.F)))

    def apply_inverse(self, xs):
        """The inverse sigma^-1 . F^-1 of apply on each vector of the list
        xs: one mat_inverse and one mat_mul for the whole list, none for an
        empty list, so an empty list never needs F to be invertible."""
        if not xs:
            return []
        Finv = mat_inverse(self.F, self.spec)
        back = self.spec.f - 1
        return [[c.sigma(back) for c in y]
                for y in mat_mul(xs, list(zip(*Finv)))]


def _require_qp(coeffs):
    """Check that charpoly coefficients lie in Q_p, each with a digit.

    The twisted product is conjugated into itself by Frobenius, so its
    characteristic polynomial has coefficients fixed by sigma; any
    certified t-component here means a real bug upstream.  Units are
    stored reduced mod p^rel, so a t-component is zero to precision
    exactly when its digit is 0.
    """
    for j, c in enumerate(coeffs):
        if c.is_zero:
            if c.rel <= 0:  # O(p^b) with b <= 0 certifies no digit
                raise InsufficientPrecision(
                    "charpoly coefficient certifies no digit",
                    witness={"coefficient": j, "bound": c.rel})
        elif any(c.unit[1:]):
            raise InvariantViolated("charpoly coefficient escaped Q_p",
                                    witness=c.to_json())


def _polygon(A, spec):
    """charpoly of A and its root valuations, ascending and distinct."""
    coeffs = charpoly(A, spec)
    return coeffs, newton_root_valuations(coeffs)


def _slope_polygon(M):
    """(L, coeffs, vals, slopes): the twisted f-fold product L of M's
    Frobenius, then its charpoly and root valuations by _polygon, and the
    slope m / f of multiplicity w for each (m, w) of vals."""
    L = twisted_power(M.F, M.spec)
    coeffs, vals = _polygon(L, M.spec)
    return L, coeffs, vals, [(m / M.spec.f, w) for m, w in vals]


def newton_slopes(M):
    """Sorted list of (slope, multiplicity); slopes are exact Fractions."""
    return _slope_polygon(M)[3]


# --------------------------------------------------------------------------
# slope factorization of an integral-polygon polynomial over Z_p
# --------------------------------------------------------------------------

def _hensel_split(fpoly, g0, h0, p, M):
    """Lift f = g0 h0 (mod p) to f = g h (mod p^M); all monic, f integral.

    Quadratic lifting (von zur Gathen and Gerhard, Modern Computer
    Algebra, section 15.4) of h and of s = 1/g mod h alone.  Each step
    divides f by h at the next step's precision, which gives g and the
    remainder r = f - g h in one division; then h becomes h + (s r mod h)
    and s becomes s - (s (s g - 1) mod h).  The textbook also lifts the
    cofactor t of s g + t h = 1, but t enters both updates only through
    s (t h) mod h, which is 0, so it is never formed.  The last step skips
    the s update it would not use.  A factorization mod p into coprime
    monic factors has exactly one monic lift mod p^M, so g and h do not
    depend on the route taken to them.
    """
    g0, h = poly_trim(g0, p), poly_trim(h0, p)
    d, s = poly_xgcd(h, g0, p)
    if d != [1]:
        raise InvariantViolated("inputs were not coprime", witness={"gcd": d})
    prec, nxt = 1, min(2, M)
    g, r = poly_divmod(fpoly, h, p ** nxt)
    if poly_trim(g, p) != g0 or any(c % p for c in r):
        raise InvariantViolated("factors do not multiply to f mod p",
                                witness={"prime": p})
    while prec < M:
        prec, pM = nxt, p ** nxt
        h = poly_add(h, poly_divmod(poly_mul(s, r, pM), h, pM)[1], pM)
        nxt = min(2 * prec, M)
        g, r = poly_divmod(fpoly, h, p ** nxt)
        if any(c % pM for c in r):
            raise InvariantViolated("hensel step lost divisibility",
                                    witness={"precision": prec})
        if prec == M:
            break
        # s g mod h through g mod h: deg g may be far above deg h
        gh = poly_divmod(g, h, pM)[1]
        e = poly_divmod(poly_add(poly_mul(s, gh, pM), [1], pM, -1), h, pM)[1]
        s = poly_add(s, poly_divmod(poly_mul(s, e, pM), h, pM)[1], pM, -1)
        if poly_divmod(poly_add(poly_mul(s, gh, pM), [1], pM, -1), h, pM)[1]:
            raise InvariantViolated("bezout update lost divisibility",
                                    witness={"precision": prec})
    return g, h


def _peel_slope_factors(coeffs, vals, spec):
    """Peel a monic Q_p polynomial along its lowest root valuations.

    coeffs: c_0..c_n PadicScalar over spec, all in Q_p, monic.  vals:
    ascending list of (root valuation m, width w), all m integral, the
    lowest valuations of the polynomial.  Returns one monic factor (list of
    PadicScalar over spec, in Q_p) for each of vals, then the cofactor left
    after them.  Each peel splits off the lowest valuation left.
    """
    p = spec.p
    factors = []
    cur = coeffs
    for m, w in vals:
        n = len(cur) - 1
        scaled = [c.scale_p(-m * (n - i)) for i, c in enumerate(cur)]
        M = min(c.abs_prec for c in scaled)
        if M < 1:
            raise InsufficientPrecision(
                "slope transform exhausts precision",
                witness={"valuation": m})
        pM = p ** M
        ints = []
        for c in scaled:
            if c.is_zero:
                ints.append(0)
            elif c.v < 0:
                raise InvariantViolated("transformed polynomial not integral",
                                        witness={"valuation": m})
            else:
                ints.append((c.unit[0] * p ** c.v) % pM)
        a = n - w
        hbar = [ints[a + j] % p for j in range(w)] + [1]
        if any(ints[i] % p for i in range(a)) or hbar[0] == 0:
            raise InvariantViolated(
                "polygon does not match the claimed minimal valuation",
                witness={"valuation": m, "width": w})
        g0 = [0] * a + [1]
        A_fac, B_fac = _hensel_split(ints, g0, hbar, p, M)
        # untransform: factor with roots of valuation m
        factors.append(_untransform(B_fac, m, w, M, spec))
        cur = _untransform(A_fac, m, a, M, spec)
    return factors + [cur]


def _untransform(ip, m, deg, M, spec):
    """p^(m*deg) * B(T / p^m) for an integer-list monic B known mod p^M."""
    out = []
    ip = ip + [0] * (deg + 1 - len(ip))
    pad = (0,) * (spec.f - 1)
    for i in range(deg + 1):
        shift = m * (deg - i)
        out.append(PadicScalar.from_raw(spec, (ip[i],) + pad, shift,
                                        M + shift))
    return out


def _poly_at_matrix(coeffs, A, spec):
    """Evaluate a polynomial over spec at a matrix over spec (Horner).

    Each step is out = out * A + c I by mat_mul, except the first: the
    product (lead I) * A is built entry by entry, as lead * A[i][j] +
    O(p^z_j) with z_j = low(lead) + N + min over s of low(A[s][j]) (low is
    the valuation, or a zero's bound), where the identity's zeros O(p^N)
    meet column j.  The product gives the rest of mat_mul's digits; its
    relative cap N never binds.
    """
    n = len(A)
    lead = coeffs[-1]
    if len(coeffs) == 1:
        return [[lead * e for e in row] for row in mat_identity(spec, n)]
    lo = lead.rel if lead.unit is None else lead.v
    zeros = [PadicScalar.zero(spec, lo + spec.N + min(
        a.rel if a.unit is None else a.v for a in col)) for col in zip(*A)]
    out = [[lead * a + z for a, z in zip(row, zeros)] for row in A]
    for k, c in enumerate(reversed(coeffs[:-1])):
        if k:
            out = mat_mul(out, A)
        for i in range(n):
            out[i][i] = out[i][i] + c
    return out


def _slope_blocks(M, polygon, keep):
    """The blocks (slope, basis, block) of M whose slope keep accepts;
    polygon is _slope_polygon(M).

    The factorization peels slopes in ascending order up to the last
    kept one, and never the top slope, whose factor is the cofactor.
    Only the peeled root valuations must be integral: after the transform
    T -> p^m T the roots above m have positive valuation, integral or
    not.  So the power trick raises L to d, the lcm of the peeled
    valuations' denominators, and checks the polygon of L^d; at d = 1 it
    is skipped and L is cut as it is.

    Horner, the kernel and the Frobenius solve run only for kept blocks,
    and the span check covers exactly the kept columns.  A rejected block
    is never computed and a slope above the last kept one never peeled,
    so neither can raise.  Each block takes its slope from the polygon,
    and kernel_basis certifies its rank as the slope's multiplicity.
    """
    spec = M.spec
    L, coeffs, vals, slopes = polygon
    if not slopes:  # rank 0: nothing to split
        return []
    if len(slopes) == 1:
        lam, _ = slopes[0]
        if not keep(lam):
            return []
        # columns = rows; the block has its own rows, so an edit to it
        # leaves M unchanged
        return [(lam, mat_identity(spec, M.rank),
                 Isocrystal(spec, [list(row) for row in M.F]))]
    # peel up to the last kept slope; the cofactor is the top slope's
    # factor, or zip pairs it with a slope that keep rejects
    count = max((i + 1 for i, (lam, _) in enumerate(slopes) if keep(lam)),
                default=0)
    peeled = vals[:min(count, len(vals) - 1)]
    d = lcm(*(m.denominator for m, _ in peeled))
    A = L
    if d > 1:
        for _ in range(d - 1):
            A = mat_mul(A, L)
        coeffs, power_vals = _polygon(A, spec)
        if power_vals != [(d * m, w) for m, w in vals]:
            raise InvariantViolated("power trick changed the polygon",
                                    witness={"power": d})
    _require_qp(coeffs)
    factors = _peel_slope_factors(
        coeffs, [(int(d * m), w) for m, w in peeled], spec)
    # vals ascend, so the blocks come out with slopes increasing
    blocks = []
    for (lam, w), G in zip(slopes, factors):
        if not keep(lam):
            continue
        GA = _poly_at_matrix(G, A, spec)
        basis = kernel_basis(GA, expected_dim=w)
        X = coords_in_column_span(basis, M.apply(basis))
        if None in X:
            raise InsufficientPrecision(
                "target is outside the span to certified precision",
                witness={"col": X.index(None)})
        blocks.append((lam, basis,
                       Isocrystal(spec, [list(row) for row in zip(*X)])))
    # the kept blocks must be independent
    all_cols = [b for _, basis, _ in blocks for b in basis]
    try:
        coords_in_column_span(all_cols, [])  # no targets: rank only
    except NonInvertible as exc:
        raise InsufficientPrecision(
            "slope blocks do not certifiably span", witness=exc.witness)
    return blocks


def slope_split(M, fine=False):
    """Decompose into isoclinic blocks: list of (slope, basis, block).

    basis is a list of column vectors in the ambient coordinates; block is
    the restricted isocrystal on that basis.  Blocks come back with slopes
    strictly increasing and their direct sum is certified to fill the
    ambient module.

    fine=True refines nothing: it returns the same blocks as fine=False.
    Where a block of slope a/r (reduced) has rank above r, so that a
    standard basis would need rank-r pieces, it raises instead, after the
    polygon and before any block: ResidueFieldTooSmall with the degree it
    needs when r does not divide f, SplitUnavailable when r divides f, at
    every precision.
    """
    polygon = _slope_polygon(M)
    f = M.spec.f
    for lam, w in polygon[3] if fine else ():
        r = lam.denominator
        if w > r and f % r != 0:
            raise ResidueFieldTooSmall(
                "fine splitting this block needs a residue extension",
                witness={"slope": str(lam), "rank": w,
                         "required_degree": lcm(f, r)})
        if w > r:
            raise SplitUnavailable(
                "fine splitting inside one slope is not implemented",
                witness={"slope": str(lam), "rank": w})
    return _slope_blocks(M, polygon, lambda lam: True)


def internal_hom(Y, Z):
    """Hom-isocrystal on matrix coordinates: g -> F_Z sigma(g) F_Y^{-1}."""
    if Y.spec is not Z.spec:
        raise FieldSpecMismatch("operands over different rings",
                                witness={"left": Y.spec.to_json(),
                                         "right": Z.spec.to_json()})
    spec = Y.spec
    FYinv = mat_inverse(Y.F, spec)
    nY, nZ = Y.rank, Z.rank
    n = nY * nZ
    F = [[None] * n for _ in range(n)]
    for i in range(nZ):
        for k in range(nY):
            for j in range(nZ):
                for l in range(nY):
                    F[i * nY + k][j * nY + l] = Z.F[i][j] * FYinv[l][k]
    return Isocrystal(spec, F)


def slope_part(M, which):
    """Sub-isocrystal cut by a slope predicate, with its embedding.

    which: "leq0" (slopes <= 0), "lt0" (slopes < 0) or ("eq", value),
    value rational by padic._rational's rule; any other which is
    MalformedInput.
    Returns (part, columns); the part can have rank 0.  The part is the
    direct sum of the kept blocks of slope_split, and it certifies what
    those blocks do: each kept block's kernel dimension, its stability
    under F, and the independence of the kept columns.  Rejected blocks
    are never computed, so a block that cannot be certified raises only
    when its slope is kept.
    """
    if which == "leq0":
        keep = lambda lam: lam <= 0
    elif which == "lt0":
        keep = lambda lam: lam < 0
    elif isinstance(which, tuple) and len(which) == 2 and which[0] == "eq":
        target = _rational(which[1])
        if target is None:
            raise MalformedInput("unknown slope predicate", witness=which)
        keep = lambda lam: lam == target
    else:
        raise MalformedInput("unknown slope predicate", witness=which)
    chosen = _slope_blocks(M, _slope_polygon(M), keep)
    cols = [b for _, basis, _ in chosen for b in basis]
    total = sum(sub.rank for _, _, sub in chosen)
    spec = M.spec
    zero = PadicScalar.zero(spec)
    F = [[zero] * total for _ in range(total)]
    off = 0
    for _, _, sub in chosen:
        for i in range(sub.rank):
            for j in range(sub.rank):
                F[off + i][off + j] = sub.F[i][j]
        off += sub.rank
    return Isocrystal(spec, F), cols


def standard_simple(spec, a, r):
    """The rank-r cyclic model with slope a/r: e_i -> e_i+1, e_r -> p^a e_1.

    a and r are integers by padic._integral's rule, and r is at least 1;
    anything else is MalformedInput, never truncated."""
    if not (_integral(a) and _integral(r)):
        raise MalformedInput("a and r must be integers",
                             witness={"a": a, "r": r})
    if r < 1:
        raise MalformedInput("rank r must be at least 1", witness={"r": r})
    a, r = int(a), int(r)
    zero = PadicScalar.zero(spec)
    F = [[zero] * r for _ in range(r)]
    for i in range(r - 1):
        F[i + 1][i] = PadicScalar.from_int(spec, 1)
    F[0][r - 1] = PadicScalar.from_fraction(spec, Fraction(spec.p) ** a)
    return Isocrystal(spec, F)
