"""Linear algebra over Q_q at finite precision, plus exact rational helpers.

Matrices are plain lists of lists of PadicScalar (row major).  The hot
paths run on entries packed into integers; _packing alone packs, folds
and reduces them, at every f.  mat_mul (and so twisted products, powers
and Horner evaluation) makes one read, one packing and one write per
entry: each operand entry's precisions are read once, it is
integralized and packed once, and each output entry that keeps a digit
is one integer dot product handed to PadicScalar.from_raw, with the
precision the scalar fold would certify.  charpoly integralizes the
whole matrix at one precision, packs each entry the same way, and runs
every Berkowitz step as integer dot products on the packed values.
Everything else does row reduction with valuation pivoting so precision
loss stays explicit.

There is one elimination loop, row_echelon.  span_basis (in dieudonne)
returns its whole echelon rows; kernel_basis reads them only at the free
columns, and the solve only at the target columns.  A pivot column is
never read after its own step, so the kernel and the solve leave each
pivot column as it stands once it is chosen: that halves the scalar
products of a square elimination and keeps every digit they read.

There is one p-adic solve, coords_in_column_span: a basis given as
columns against any number of target columns, in one elimination.
Pivots are taken only in the basis block, so its row operations depend
on the basis alone and every target gets the digits of its own solve.
A target whose residual is certified nonzero comes back as None, a value
and not an error; only rank loss of the basis raises (NonInvertible).
mat_inverse is that solve against the identity.  Over Q the one solve
is rat_solve, with a matrix right side.

The solve, kernel_basis and saturate_columns read their ring from their
operands and take no FieldSpec.  charpoly, twisted_power, mat_identity
and mat_inverse take one, because a rank-0 operand has no entry to read
it from.
"""

from fractions import Fraction
from operator import add, mul

from .errors import FieldSpecMismatch, InsufficientPrecision, NonInvertible
from .padic import PadicScalar


# --------------------------------------------------------------------------
# basic PadicScalar matrix ops
# --------------------------------------------------------------------------

def mat_identity(spec, n):
    one = PadicScalar.from_int(spec, 1)
    zero = PadicScalar.zero(spec)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _read(vecs, spec):
    """Precision data of each entry of a list of rows (or columns).

    Returns (absp, low, vmin): absp[i][s] is the absolute precision of
    vecs[i][s]; low[i][s] is its valuation, or its bound when it is zero
    to precision; vmin is the least valuation of a nonzero entry, or None.
    """
    absp, low = [], []
    vmin = None
    for vec in vecs:
        arow, lrow = [], []
        for a in vec:
            if a.spec is not spec:
                raise FieldSpecMismatch("operands over different rings",
                                        witness={"left": spec.to_json(),
                                                 "right": a.spec.to_json()})
            if a.unit is None:
                arow.append(a.rel)
                lrow.append(a.rel)
            else:
                arow.append(a.v + a.rel)
                lrow.append(a.v)
                if vmin is None or a.v < vmin:
                    vmin = a.v
        absp.append(arow)
        low.append(lrow)
    return absp, low, vmin


def _packing(spec, pW, k):
    """(pack, fold, reduce) for sums of k products in Z_q / pW.

    pack(vecs, vmin) packs each entry p^(v - vmin) * unit mod pW of a list
    of rows into one integer, 0 for a zero: at f = 1 the coefficient
    itself, at f > 1 the Kronecker substitution sum c_i 2^(K i), with slot
    width K = 2 bits(pW - 1) + bits(k f) wide enough that no slot of a sum
    of k packed products carries into the next.  fold reads such a sum
    back as the coefficient list of the sum reduced mod g(t), each
    coefficient congruent mod pW to, but not reduced into, [0, pW); reduce
    gives the packing of the sum reduced mod (g(t), pW), in one step.
    """
    p, f = spec.p, spec.f
    if f == 1:
        def pack(vecs, vmin):
            return [[0 if a.unit is None else p ** (a.v - vmin) * a.unit[0]
                     % pW for a in vec] for vec in vecs]
        return pack, lambda acc: (acc,), pW.__rmod__
    K = 2 * (pW - 1).bit_length() + (k * f).bit_length()
    shifts = [K * i for i in range(f)]
    mask = (1 << K) - 1
    high = [(K * i, rrow) for i, rrow in zip(range(f, 2 * f - 1),
                                             spec.red_rows(pW))]

    # explicit loops: measurably faster than comprehensions at f <= 3
    def pack(vecs, vmin):
        out = []
        for vec in vecs:
            row = []
            for a in vec:
                acc = 0
                if a.unit is not None:
                    pv = p ** (a.v - vmin)
                    for c, s in zip(a.unit, shifts):
                        acc += pv * c % pW << s
                row.append(acc)
            out.append(row)
        return out

    def fold(acc):
        res = []
        for s in shifts:
            res.append((acc >> s) & mask)
        for s, rrow in high:
            c = (acc >> s) & mask
            if c:
                for j in range(f):
                    res[j] += c * rrow[j]
        return res

    def reduce(acc):
        return sum([c % pW << s for c, s in zip(fold(acc), shifts)])

    return pack, fold, reduce


def mat_mul(A, B):
    """A * B, each entry exactly as the fold sum_s A[i][s] * B[s][j] gives it.

    An entry's absolute precision is the least over s of that of
    A[i][s] * B[s][j], min(abs(a) + low(b), low(a) + abs(b)) with low the
    valuation, or the bound of a zero-to-precision entry: one min of the
    row's abs | low plus the column's low | abs.  PadicScalar addition
    certifies the same minimum in any order: no partial sum reaches the
    relative precision cap N, since its absolute precision is at most its
    lowest term valuation plus N.
    """
    k = len(B)
    # indexed by the inner dimension, so a row of A shorter than B raises
    rows = [[row[s] for s in range(k)] for row in A]
    if not rows:
        return []
    cols = [[B[s][j] for s in range(k)] for j in range(len(B[0]))]
    if not cols:
        return [[] for _ in rows]
    spec = rows[0][0].spec
    absA, lowA, vminA = _read(rows, spec)
    absB, lowB, vminB = _read(cols, spec)
    colp = list(map(add, lowB, absB))
    prec = [[min(map(add, rowp, cp)) for cp in colp]
            for rowp in map(add, absA, lowA)]
    top = max(map(max, prec))
    zero, from_raw = PadicScalar.zero, PadicScalar.from_raw
    if vminA is None or vminB is None or top <= vminA + vminB:
        return [[zero(spec, a) for a in r] for r in prec]
    shift = vminA + vminB
    pack, fold, _ = _packing(spec, spec.p ** (top - shift), k)
    cols = pack(cols, vminB)
    return [[from_raw(spec, fold(sum(map(mul, r, c))), shift, a) if a > shift
             else zero(spec, a) for c, a in zip(cols, pr)]
            for r, pr in zip(pack(rows, vminA), prec)]


def mat_vec(A, x):
    return [row[0] for row in mat_mul(A, [[c] for c in x])]


def mat_sigma(A, k=1):
    return [[a.sigma(k) for a in row] for row in A]


def mat_from_rationals(spec, rows):
    return [[PadicScalar.from_fraction(spec, c) for c in row] for row in rows]


# --------------------------------------------------------------------------
# twisted product and characteristic polynomial
# --------------------------------------------------------------------------

def twisted_power(F, spec):
    """F * sigma(F) * .. * sigma^(f-1)(F): a genuinely linear operator.

    The result commutes with the semilinear structure because sigma^f is
    the identity on the coefficient ring.
    """
    L = F
    for k in range(1, spec.f):
        L = mat_mul(L, mat_sigma(F, k))
    return L


def charpoly(A, spec):
    """Coefficients c_0..c_n of det(T - A) = sum c_j T^j, c_n = 1.

    Division-free (Berkowitz) on the integralized matrix mod p^W, then
    descaled; per-coefficient precision reflects the descaling honestly.
    Each entry is packed into one integer once per call, as mat_mul packs
    it.  So each Krylov vector Mp^k C, each dot R Mp^k C and each
    coefficient of the Toeplitz product of the column
    (1, -a_rr, -R C, -R Mp C, ..) with the previous coefficients is one
    integer dot product, and each new value is reduced mod (g(t), p^W)
    and packed again in one step.
    """
    n = len(A)
    absp, _, vmin = _read(A, spec)
    e = max(0, -vmin) if vmin is not None else 0
    W = min(map(min, absp), default=spec.N) + e
    if W < 1:
        raise InsufficientPrecision("matrix entries carry no certified digits",
                                    witness={"working_precision": W})
    pW = spec.p ** W
    pack, fold, reduce = _packing(spec, pW, n)
    P = pack(A, -e)
    m1 = pW - 1  # reduce(m1 * x) is -x: m1 is -1 mod p^W, x packs linearly
    p_vec = [1]  # 1 packs to 1 at every f
    for r in range(n):
        # step r + 1: Mp and C are the leading r x r block and column r
        Mp = [row[:r] for row in P[:r]]
        v = [row[r] for row in P[:r]]
        R = [reduce(m1 * x) for x in P[r][:r]]  # -R: col gets -R Mp^k C
        col = [1, reduce(m1 * P[r][r])]
        for k in range(r):
            col.append(reduce(sum(map(mul, R, v))))
            if k < r - 1:
                v = [reduce(sum(map(mul, row, v))) for row in Mp]
        # new[i] = sum_k col[i - k] * old[k]; map stops at the shorter list
        p_vec = [reduce(sum(map(mul, col[i::-1], p_vec)))
                 for i in range(r + 2)]
    # p_vec[n - j] multiplies T^j; descale
    return [PadicScalar.from_raw(spec, fold(c), -e * (n - j), W - e * (n - j))
            for j, c in enumerate(reversed(p_vec))]


# --------------------------------------------------------------------------
# Newton polygons
# --------------------------------------------------------------------------

def lower_hull(points):
    """Lower convex hull of (x, y) pairs sorted by x; returns vertex list."""
    pts = sorted(points)
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop if pt makes hull[-1] non-convex (not strictly below chord)
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_root_valuations(coeffs):
    """Root valuations (as Fractions) with multiplicities, from c_0..c_n.

    Certified points are hull candidates; zero-to-precision coefficients
    are only tolerated when their bound keeps them on or above the hull,
    otherwise the polygon itself is uncertain and we refuse.
    """
    n = len(coeffs) - 1
    certified, bounded = [], []
    for i, c in enumerate(coeffs):
        if c.is_zero:
            bounded.append((i, c.rel))
        else:
            certified.append((i, c.v))
    if not certified or certified[0][0] != 0:
        raise NonInvertible("constant coefficient is zero to precision",
                            witness={"bound": coeffs[0].rel})
    if certified[-1][0] != n:
        raise InsufficientPrecision("leading coefficient uncertified")
    hull = lower_hull(certified)

    def hull_height(x):
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= x <= x2:
                return Fraction(y1) + Fraction(y2 - y1, x2 - x1) * (x - x1)
        return None

    for i, b in bounded:
        h = hull_height(i)
        if h is not None and Fraction(b) < h:
            raise InsufficientPrecision(
                "interior coefficient bound dips below the certified hull",
                witness={"index": i, "bound": b, "needed": str(h)})
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        out.append((-slope, x2 - x1))
    out.sort(key=lambda t: t[0])
    return out


# --------------------------------------------------------------------------
# row reduction with valuation pivoting
# --------------------------------------------------------------------------

def _eliminate(row, c, piv):
    """row - c * piv, as row + (-c) * piv: the same digits, with c negated
    once per row instead of once per entry.

    A c that is zero to precision, O(p^b), returns row itself, and its
    bound is dropped: ROADMAP item 2's zero rule, for row_echelon and
    saturate_columns alike, so fixing it edits this function only.
    """
    if c.is_zero:
        return row
    c = -c
    return [a + c * b for a, b in zip(row, piv)]


def _pivot_row(rows, col, start):
    best, best_v = None, None
    for i in range(start, len(rows)):
        a = rows[i][col]
        if a.is_zero:
            continue
        if best_v is None or a.v < best_v:
            best, best_v = i, a.v
    return best


def row_echelon(M, pivot_cols=None, _keep_pivot_cols=True):
    """In-place echelon on a copy; returns (rows, pivot (row,col) list).

    Pivots are taken in the first pivot_cols columns only (default all).
    The row operations act on every column, unless _keep_pivot_cols is
    False: then each column leaves the working set when it becomes a pivot
    column, and each row comes back holding only the non-pivot columns, in
    order, with the entries the full elimination gives them.  That is exact
    because a pivot column is never read after its step: _pivot_row reads
    only the current column, and an update only its multiplier there.
    """
    rows = [list(r) for r in M]
    m = len(rows)
    n = len(rows[0]) if m else 0
    if pivot_cols is not None:
        n = min(n, pivot_cols)
    # take(row, k) reads a row's entry in the new pivot column; when pivot
    # columns are dropped it also removes the entry
    take = list.__getitem__ if _keep_pivot_cols else list.pop
    pivots = []
    pr = 0
    for pc in range(n):
        if pr >= m:
            break
        k = pc if _keep_pivot_cols else pc - pr  # where column pc sits
        i = _pivot_row(rows, k, pr)
        if i is None:
            continue
        rows[pr], rows[i] = rows[i], rows[pr]
        inv = take(rows[pr], k).invert()
        rows[pr] = piv = [a * inv for a in rows[pr]]
        for r in range(m):
            if r != pr:
                c = take(rows[r], k)
                rows[r] = _eliminate(rows[r], c, piv)
        pivots.append((pr, pc))
        pr += 1
    return rows, pivots


def kernel_basis(M, expected_dim=None):
    """Columns spanning ker(M); certification via expected_dim when known."""
    if not M:
        return []
    n = len(M[0])
    rows, pivots = row_echelon(M, _keep_pivot_cols=False)
    pivot_cols = {pc for _, pc in pivots}
    free_cols = [j for j in range(n) if j not in pivot_cols]
    if expected_dim is not None and len(free_cols) != expected_dim:
        raise InsufficientPrecision(
            "kernel dimension could not be certified",
            witness={"expected": expected_dim, "found": len(free_cols)})
    if not free_cols:
        return []
    basis = []
    spec = M[0][0].spec
    zero = PadicScalar.zero(spec)
    one = PadicScalar.from_int(spec, 1)
    # the rows hold the free columns only, in order
    for q, j in enumerate(free_cols):
        vec = [zero] * n
        vec[j] = one
        for (pr, pc) in pivots:
            vec[pc] = -rows[pr][q]
        basis.append(vec)
    return basis


def coords_in_column_span(basis_cols, targets):
    """Coordinates of each target in the basis: the one p-adic solve.

    basis_cols are the r columns of an n x r basis of full column rank and
    targets the right-hand columns, each a list of n entries as stored.
    Returns one entry per target: its r coordinates, or None when its
    residual is certified nonzero (the target is outside the span).  Rank
    loss raises NonInvertible, worded by shape (square or taller).
    """
    r = len(basis_cols)
    rows, pivots = row_echelon(list(zip(*basis_cols, *targets, strict=True)),
                               pivot_cols=r, _keep_pivot_cols=False)
    if len(pivots) != r:
        if r == len(rows):
            raise NonInvertible("matrix is singular to working precision",
                                witness={"rank": len(pivots), "size": r})
        raise NonInvertible("columns are dependent to working precision",
                            witness={"rank": len(pivots), "cols": r})
    # full rank: pivot s sits at row s, column s, and the r basis columns
    # are gone, so each row holds the target columns only
    resid = rows[r:]
    return [[rows[pr][j] for pr in range(r)]
            if all(row[j].is_zero for row in resid) else None
            for j in range(len(targets))]


def mat_inverse(A, spec):
    X = coords_in_column_span(list(zip(*A)), mat_identity(spec, len(A)))
    return [list(row) for row in zip(*X)]


def saturate_columns(cols):
    """Basis of (Q-span of cols) intersected with the standard lattice.

    Column reduction over the local ring: repeatedly pick the globally
    minimal-valuation entry, normalize its column to a unit pivot, clear
    its row from the other columns.  The result is triangular with unit
    pivots, hence generates the saturation.
    """
    work = [list(c) for c in cols]
    n = len(work[0]) if work else 0
    out = []
    used_rows = set()
    while work:
        best = None
        for j, col in enumerate(work):
            for i in range(n):
                if i in used_rows:
                    continue
                a = col[i]
                if a.is_zero:
                    continue
                if best is None or a.v < best[2]:
                    best = (j, i, a.v)
        if best is None:
            raise InsufficientPrecision(
                "dependent columns while saturating a lattice",
                witness={"remaining": len(work)})
        j, i, _ = best
        inv = work[j][i].invert()
        piv = [a * inv for a in work[j]]
        del work[j]
        work = [_eliminate(col, col[i], piv) for col in work]
        out.append(piv)
        used_rows.add(i)
    return out


# --------------------------------------------------------------------------
# exact rational linear algebra (for root data)
# --------------------------------------------------------------------------

def rat_rref(M):
    """Reduced row echelon form over Q; returns (rows, pivot cols)."""
    rows = [[Fraction(x) for x in r] for r in M]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    pr = 0
    for pc in range(n):
        if pr >= m:
            break
        sel = None
        for i in range(pr, m):
            if rows[i][pc] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        if rows[pr][pc] != 1:
            inv = 1 / rows[pr][pc]
            rows[pr] = [a * inv for a in rows[pr]]
        for r in range(m):
            if r != pr and rows[r][pc] != 0:
                c = rows[r][pc]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
    return rows, pivots


def rat_solve(A, B):
    """One X with A X = B over Q, or None if a column of B is outside A's span.

    B is a matrix (row major); unknowns without a pivot are set to 0.
    """
    n = len(A[0]) if A else 0
    rows, pivots = rat_rref([list(a) + list(b)
                             for a, b in zip(A, B, strict=True)])
    if pivots and pivots[-1] >= n:
        return None
    X = [[Fraction(0)] * (len(B[0]) if B else 0) for _ in range(n)]
    for r, pc in enumerate(pivots):
        X[pc] = rows[r][n:]
    return X


def rat_rank(M):
    return len(rat_rref(M)[1]) if M else 0
