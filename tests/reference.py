"""The references the tests compare the library against, one per
operation, and the builders that more than one test module uses.

A reference's docstring opens with ``Exact:`` when its arithmetic is exact
and test_reference.py checks it: a p-adic reference's digits against
rational arithmetic (``claims_agree``), a BCH reference against
``bch_series``.  It opens with ``Guard:`` when it is former code kept to
pin a refactor: it names that refactor, and ROADMAP item 2 where it keeps
today's zero rule (a zero O(p^b) operand is skipped with its bound).  A
guard shows that nothing changed, not that the digits are right.
"""

import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import isolab
from isolab import (DieudonneLie, FieldSpec, Isocrystal, PadicScalar,
                    RootDatumWithCochar)
from isolab import roots
from isolab.bch import (FreeLieElement, _am_add, _am_bracket, _am_scale,
                        _bracketing, bch_series, group_mul, lie_project)
from isolab.dieudonne import (dla_validate, integral_columns,
                              lower_central_series)
from isolab.errors import (DivisionByZero, InsufficientPrecision,
                           InvariantViolated, MalformedInput, NonInvertible)
from isolab.linalg import (coords_in_column_span, mat_identity, mat_mul,
                           rat_rank, rat_solve)
from isolab.padic import _is_irreducible, poly_powmod, poly_xgcd
from isolab.perfseries import PerfectedSeries, ff_add, ff_one

F = Fraction


# ---- builders ----

def zero_bracket(n):
    return [[[F(0)] * n for _ in range(n)] for _ in range(n)]


EYE3 = [[F(1), 0, 0], [F(0), 1, 0], [F(0), 0, 1]]


def build(frob, bracket, lattice=None, spec=FieldSpec(5, 1, 16)):
    return DieudonneLie.from_rationals(spec, frob, bracket,
                                       lattice_cols=lattice)


def heis_bracket(sign=1):
    """[e0, e1] = sign e2 on rank 3."""
    c = zero_bracket(3)
    c[0][1][2], c[1][0][2] = F(sign), F(-sign)
    return c


def heisenberg(p=5, lattice=None):
    """heis_bracket over Z_p/p^16, with phi e0 = e0/p, phi e1 = e1 and
    phi e2 = e2/p, which makes the bracket F-equivariant."""
    frob = [[F(1, p), 0, 0], [0, F(1), 0], [0, 0, F(1, p)]]
    return build(frob, heis_bracket(), lattice, FieldSpec(p, 1, 16))


def split_heisenberg(N=16):
    """heis_bracket over Z_5/5^N on the lattice EYE3, with e0, e1 a slope
    -1/2 block and e2 the slope -1 center."""
    frob = [[F(0), F(-1, 5), 0], [F(1), 0, 0], [0, 0, F(1, 5)]]
    return build(frob, heis_bracket(), EYE3, FieldSpec(5, 1, N))


def iso(rows, spec=FieldSpec(5, 1, 16)):
    return Isocrystal.from_rationals(
        spec, [[F(str(c)) for c in row] for row in rows])


def mono(p, exp, D=8, k=1, nvars=1, coeff=None):
    """One-term series c * X^exp (exp a tuple for nvars > 1)."""
    if not isinstance(exp, tuple):
        exp = (exp,)
    exps = tuple(F(e) for e in exp)
    c = coeff if coeff is not None else tuple([1] + [0] * (k - 1))
    return PerfectedSeries(p, nvars, k, D, {exps: c})


def X(p=2, D=8, nvars=1, slot=0):
    exp = tuple(F(1) if i == slot else F(0) for i in range(nvars))
    return mono(p, exp, D=D, nvars=nvars)


def one_term_json(p, exp, coeff=1):
    """The JSON series with the one term coeff * X^exp over F_p, bound 8;
    exp is a list of (num, pexp) pairs."""
    return {"p": p, "nvars": len(exp), "field": {"p": p, "k": 1}, "D": 8,
            "terms": [{"exp": [{"num": num, "pexp": pexp}
                               for num, pexp in exp], "coeff": [coeff]}]}


def badseries(D=16):
    """sum_{i=1..D} X^(i + 1/2^i) over F_2."""
    terms = {(F(i) + F(1, 2 ** i),): (1,) for i in range(1, D + 1)}
    return PerfectedSeries(2, 1, 1, D, terms)


def gl(n, *nu):
    return RootDatumWithCochar("GL", n, [F(str(v)) for v in nu])


def gsp(n, *nu):
    return RootDatumWithCochar("GSp", n, [F(str(v)) for v in nu])


def so(n, *nu):
    return RootDatumWithCochar("SO", n, [F(str(v)) for v in nu])


def vec(spec, *fracs):
    return [PadicScalar.from_fraction(spec, F(str(v))) for v in fracs]


def key(a):
    """A scalar's stored (v, unit, rel): its digits and its precision."""
    return (a.v, a.unit, a.rel)


def answer_key(x):
    """x with each scalar as its key, each isocrystal as its F rows and
    each dict as its items in order, for comparing answers."""
    if isinstance(x, PadicScalar):
        return key(x)
    if isinstance(x, Isocrystal):
        return answer_key(x.F)
    if isinstance(x, dict):
        return [(k, answer_key(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [answer_key(v) for v in x]
    return x


def rand_scalar(rng, spec, zero_share=0.25):
    """O(p^b), b in -3..N+3, at the given share, else p^v times a unit
    known mod p^rel, v in -3..3."""
    if rng.random() < zero_share:
        return PadicScalar.zero(spec, rng.randint(-3, spec.N + 3))
    rel = rng.randint(1, spec.N)
    pR = spec.p ** rel
    unit = [rng.randrange(pR) for _ in range(spec.f)]
    if all(c % spec.p == 0 for c in unit):
        unit[rng.randrange(spec.f)] += 1
    return PadicScalar(spec, rng.randint(-3, 3), tuple(unit), rel)


def run_optimized(snippet):
    """Standard output of snippet run by python -O on the isolab under
    test, where a guard written as an assert would be gone."""
    src = str(pathlib.Path(isolab.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", snippet],
                         capture_output=True, text=True, timeout=10,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    return out.stdout


#: one call of every subcommand on the corpus, run from the repository root
CLI_COMMANDS = [
    ["slopes", "--in", "corpus/ordinary2x2.json"],
    ["split", "--in", "corpus/supersingular2x2.json"],
    ["split", "--fine", "--in", "corpus/ordinary2x2.json"],
    ["hom", "--in", "corpus/hom_pair.json"],
    ["dla-check", "--in", "corpus/heisenberg.json"],
    ["lcs", "--in", "corpus/heisenberg.json"],
    ["bch-table", "--class", "4"],
    ["bch-mul", "--in", "corpus/bch_mul.json"],
    ["lattice-closure", "--in", "corpus/heisenberg.json"],
    ["leafdim", "--in", "corpus/gsp4_ordinary.json"],
    ["--classical", "leafdim", "--type", "GSp", "--n", "4",
     "--nu", "1,1,0,0"],
    ["slope-roots", "--in", "corpus/gsp4_ordinary.json"],
    ["--classical", "slope-roots", "--in", "corpus/gsp4_ordinary.json"],
    ["nilclass", "--in", "corpus/gsp4_ordinary.json"],
    ["coxeter-gate", "--p", "5", "--in", "corpus/gsp4_ordinary.json"],
    ["perf-member", "--params", "2,1,0", "--in", "corpus/badseries.json"],
    ["perf-member", "--params", "2,1,0", "--in", "corpus/ordseries.json"],
    ["perf-ecd", "--E", "1", "--C", "2", "--d", "0",
     "--in", "corpus/badseries.json"],
    ["rigidity", "--in", "corpus/rigidity_pos.json"],
    ["slope-exponents", "--mu1", "1/2", "--mu0", "1/3"],
]

#: the algebra slots set after __init__, each with the one top-level
#: function that fills it through dieudonne._stored: slot -> (module,
#: function)
ALGEBRA_MEMO = {
    "_series": ("dieudonne", "lower_central_series"),
    "_split": ("dieudonne", "algebra_slope_split"),
    "_min_lattice": ("dieudonne", "minimal_slope_lattice"),
    "_lattice_report": ("dieudonne", "lattice_report"),
}
#: for each slot, the name in dieudonne its computation looks up when it
#: runs, which a test wraps to count or fail the computation
MEMO_COMPUTE = {
    "_series": "_lower_central_series",
    "_split": "slope_split",
    "_min_lattice": "_minimal_slope_lattice",
    "_lattice_report": "_lattice_report",
}


# ---- rational arithmetic and the digit rule ----

def rat_charpoly(M):
    """det(T - M) over Q, coefficients c_0..c_n lowest first.  The
    Faddeev-LeVerrier recursion M_k = A M_(k-1) + c_(n-k+1) I,
    c_(n-k) = -tr(A M_k) / k runs on the integer matrix A = d M, where
    the division is exact; then c_i(M) = c_i(A) / d^(n-i)."""
    n = len(M)
    d = math.lcm(*(F(x).denominator for row in M for x in row))
    A = [[int(x * d) for x in row] for row in M]
    c = [0] * n + [1]
    prod = [[0] * n for _ in range(n)]  # A M_(k-1), with M_0 = 0
    for k in range(1, n + 1):
        Mk = [[x + c[n - k + 1] if i == j else x for j, x in enumerate(row)]
              for i, row in enumerate(prod)]
        prod = [[sum(A[i][s] * Mk[s][j] for s in range(n)) for j in range(n)]
                for i in range(n)]
        c[n - k] = -sum(prod[i][i] for i in range(n)) // k
    return [F(ci, d ** (n - i)) for i, ci in enumerate(c)]


def rat_mat_mul(A, B):
    m, k = len(A), len(B)
    n = len(B[0])
    return [[sum((A[i][s] * B[s][j] for s in range(k)), Fraction(0))
             for j in range(n)] for i in range(m)]


def rat_mat_exp(A, cap):
    """exp(A) over Q for a nilpotent A with A^(cap+1) = 0: the sum of
    A^k / k! for k <= cap."""
    n = len(A)
    out = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    term = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(1, cap + 1):
        term = [[x / k for x in row] for row in rat_mat_mul(term, A)]
        out = [[a + b for a, b in zip(r, s)] for r, s in zip(out, term)]
    return out


def rat_mat_log(U, cap):
    """log(U) over Q for a unipotent U with (U - 1)^(cap+1) = 0."""
    n = len(U)
    Z = [[U[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    out = [[Fraction(0)] * n for _ in range(n)]
    Zk = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(1, cap + 1):
        Zk = rat_mat_mul(Zk, Z)
        c = Fraction((-1) ** (k + 1), k)
        out = [[a + c * z for a, z in zip(r, s)] for r, s in zip(out, Zk)]
    return out


def rat_val(x, p):
    """v_p of a Fraction, infinite at 0."""
    if not x:
        return math.inf
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def claims_agree(scalar, fraction):
    """True when scalar claims only digits of the rational fraction
    (Caruso, Roe and Vaccon, "Tracking p-adic precision", 2014):

    - a nonzero p^v (u_0 + u_1 t + ..) agrees with it mod p^abs_prec, so
      p^v u_0 - fraction has valuation >= abs_prec and, as fraction lies
      in Q, u_i = 0 mod p^rel for i >= 1;
    - a zero O(p^b) is claimed only where fraction has valuation >= b.
    """
    p = scalar.spec.p
    if scalar.is_zero:
        return rat_val(fraction, p) >= scalar.rel
    return (rat_val(F(p) ** scalar.v * scalar.unit[0] - fraction, p)
            >= scalar.abs_prec
            and all(c % p ** scalar.rel == 0 for c in scalar.unit[1:]))


# ---- padic ----

def ref_canonical_modulus(p, f):
    """Guard: canonical_modulus's skip of the binomials t^f + a_0 where no
    binomial is irreducible.  The former scan over every candidate, the
    binomials first, by the same Rabin test."""
    if f == 1:
        return (0,)
    for enc in range(p ** f):
        a = [enc // p ** i % p for i in range(f)]
        if _is_irreducible(a + [1], p):
            return tuple(a)
    raise InvariantViolated("no irreducible modulus", witness=(p, f))


def ref_scalar_add(a, b):
    """Exact: a + b through is_zero, abs_prec and PadicScalar.zero."""
    spec = a.spec
    if a.is_zero and b.is_zero:
        return PadicScalar.zero(spec, min(a.rel, b.rel))
    if a.is_zero or b.is_zero:
        z, x = (a, b) if a.is_zero else (b, a)
        bound = z.rel
        if x.v >= bound:
            return PadicScalar.zero(spec, bound)
        abs_out = min(bound, x.abs_prec)
        rel = abs_out - x.v
        pM = spec.p ** rel
        return PadicScalar(spec, x.v, tuple(c % pM for c in x.unit), rel)
    w = min(a.v, b.v)
    abs_out = min(a.abs_prec, b.abs_prec)
    mod = spec.p ** (abs_out - w)
    pa, pb = spec.p ** (a.v - w), spec.p ** (b.v - w)
    coeffs = tuple((pa * s + pb * t) % mod for s, t in zip(a.unit, b.unit))
    return PadicScalar.from_raw(spec, coeffs, w, abs_out)


def ref_scalar_mul(a, b):
    """Exact: a * b through is_zero, PadicScalar.zero and FieldSpec.raw_mul,
    with the units reduced once, after raw_mul."""
    spec = a.spec
    if a.is_zero or b.is_zero:
        return PadicScalar.zero(spec, (a.rel if a.is_zero else a.v)
                                + (b.rel if b.is_zero else b.v))
    rel = min(a.rel, b.rel)
    return PadicScalar(spec, a.v + b.v,
                       spec.raw_mul(a.unit, b.unit, spec.p ** rel), rel)


def ref_raw_inv_unit(spec, u, pM):
    """Guard: raw_inv_unit's norm inverse.  Extended Euclid over F_p[t]
    mod p, then the quadratic lift y <- y (2 - u y), as it ran before."""
    p, f = spec.p, spec.f
    if f == 1:
        return (pow(u[0], -1, pM),)
    d, y = poly_xgcd(list(spec.g_low) + [1], u, p)
    if d != [1]:
        raise DivisionByZero("not a unit", witness=list(u))
    y = tuple(y) + (0,) * (f - len(y))
    pw = p
    while pw < pM:
        pw = min(pw * pw, pM)
        uy = spec.raw_mul(u, y, pw)
        two_minus = tuple((-c) % pw if i else (2 - c) % pw
                          for i, c in enumerate(uy))
        y = spec.raw_mul(y, two_minus, pw)
    return tuple(c % pM for c in y)


def ref_invert(x):
    """Guard: PadicScalar.invert's norm inverse, via ref_raw_inv_unit."""
    pM = x.spec.p ** x.rel
    return PadicScalar(x.spec, -x.v, ref_raw_inv_unit(
        x.spec, tuple(c % pM for c in x.unit), pM), x.rel)


def ref_coeff_pow(spec, c, e):
    """Guard: the one polynomial power.  The former FieldSpec.raw_pow mod
    p: c^e for a coefficient tuple of spec by poly_powmod modulo spec's
    modulus, padded to f entries."""
    x = poly_powmod(list(c), e, list(spec.g_low) + [1], spec.p)
    return tuple(x) + (0,) * (spec.f - len(x))


def ref_sigma_mats(spec):
    """Guard: _build_sigma reading each table from the one before it.  The
    sigma tables as _build_sigma made them when each Hensel correction
    inverted g'(x) afresh with the Newton inverse."""
    p, f, N, pN = spec.p, spec.f, spec.N, spec.pN
    g = list(spec.g_low) + [1]
    dg = [k * g[k] for k in range(1, f + 1)]
    x = ref_coeff_pow(spec, (0, 1), p)

    def horner(poly, x, pM):
        acc = (0,) * f
        for c in reversed(poly):
            acc = spec.raw_mul(acc, x, pM)
            acc = ((acc[0] + c) % pM,) + acc[1:]
        return acc

    prec = 1
    while prec < N:
        prec = min(2 * prec, N)
        pM = p ** prec
        corr = spec.raw_mul(horner(g, x, pM),
                            ref_raw_inv_unit(spec, horner(dg, x, pM), pM), pM)
        x = tuple((a - b) % pM for a, b in zip(x, corr))
    mats, xk = [], x
    for _ in range(1, f):
        cols, pw = [], (1,) + (0,) * (f - 1)
        for _ in range(f):
            cols.append(pw)
            pw = spec.raw_mul(pw, xk, pN)
        mats.append(tuple(cols))
        nxt, pwk = (0,) * f, (1,) + (0,) * (f - 1)
        for j in range(f):
            if x[j]:
                nxt = tuple((a + x[j] * b) % pN for a, b in zip(nxt, pwk))
            pwk = spec.raw_mul(pwk, xk, pN)
        xk = nxt
    return tuple(mats)


def ref_red_rows(spec, pM):
    """Guard: red_rows on poly_divmod.  The rows as a shift-and-fold loop
    on t^f = -g_low."""
    f = spec.f
    row = tuple((-c) % pM for c in spec.g_low)  # t^f
    out, prev = [], row
    for _ in range(f - 1):
        out.append(prev)
        # multiply by t: shift, then fold the overflow back in
        top = prev[f - 1]
        nxt = [0] + list(prev[:f - 1])
        if top:
            for j in range(f):
                nxt[j] = (nxt[j] + top * row[j]) % pM
        prev = tuple(v % pM for v in nxt)
    return tuple(out)


# ---- linalg ----

def ref_mat_mul(A, B):
    """Exact: the product as a left fold of PadicScalar products and sums."""
    out = []
    for row in A:
        orow = []
        for j in range(len(B[0])):
            acc = row[0] * B[0][j]
            for s in range(1, len(B)):
                acc = acc + row[s] * B[s][j]
            orow.append(acc)
        out.append(orow)
    return out


def ref_charpoly(A, spec):
    """Exact: Berkowitz on the whole matrix at one precision W.

    Every product is one spec.raw_mul and every sum is reduced mod p^W, in
    the loops charpoly ran before it moved onto the one matrix product.
    """
    n = len(A)
    e, W = 0, None
    for row in A:
        for a in row:
            if not a.is_zero and a.v < -e:
                e = -a.v
            if W is None or a.abs_prec < W:
                W = a.abs_prec
    W = (W if W is not None else spec.N) + e
    if W < 1:
        raise InsufficientPrecision("matrix entries carry no certified digits",
                                    witness={"working_precision": W})
    f, pW = spec.f, spec.p ** W
    zero, one = (0,) * f, (1,) + (0,) * (f - 1)
    raw = [[zero if a.is_zero else
            tuple(spec.p ** (a.v + e) * c % pW for c in a.unit) for a in row]
           for row in A]

    def dot(u, v):
        acc = [0] * f
        for x, y in zip(u, v):
            for c, t in enumerate(spec.raw_mul(x, y, pW)):
                acc[c] += t
        return tuple(t % pW for t in acc)

    def neg(x):
        return tuple(-c % pW for c in x)

    p_vec = [one]
    for r in range(1, n + 1):
        Mp = [raw[i][:r - 1] for i in range(r - 1)]
        C = [raw[i][r - 1] for i in range(r - 1)]
        R = raw[r - 1][:r - 1]
        col = [one, neg(raw[r - 1][r - 1])]
        u = C
        for _ in range(r - 1):
            col.append(neg(dot(R, u)))
            if len(col) == r + 1:
                break
            u = [dot(row, u) for row in Mp]
        # Toeplitz product: new[i] = sum_k col[i - k] * old[k]
        new = []
        for i in range(r + 1):
            ks = [k for k in range(len(p_vec)) if 0 <= i - k < len(col)]
            new.append(dot([col[i - k] for k in ks], [p_vec[k] for k in ks]))
        p_vec = new
    return [PadicScalar.from_raw(spec, p_vec[n - j], -e * (n - j),
                                 W - e * (n - j)) for j in range(n + 1)]


def ref_row_echelon(M, pivot_cols=None):
    """Guard: the kernel and the solve leaving pivot columns out.  The full
    elimination, which scales and updates every column at every step.  It
    skips a zero multiplier O(p^b) with its bound: today's zero rule
    (ROADMAP item 2)."""
    rows = [list(r) for r in M]
    m = len(rows)
    n = len(rows[0]) if m else 0
    if pivot_cols is not None:
        n = min(n, pivot_cols)
    pivots = []
    pr = 0
    for pc in range(n):
        if pr >= m:
            break
        i = None
        for k in range(pr, m):
            a = rows[k][pc]
            if not a.is_zero and (i is None or a.v < rows[i][pc].v):
                i = k
        if i is None:
            continue
        rows[pr], rows[i] = rows[i], rows[pr]
        inv = rows[pr][pc].invert()
        rows[pr] = [a * inv for a in rows[pr]]
        for r in range(m):
            if r != pr:
                c = rows[r][pc]
                if not c.is_zero:
                    c = -c
                    rows[r] = [a + c * b for a, b in zip(rows[r], rows[pr])]
        pivots.append((pr, pc))
        pr += 1
    return rows, pivots


def ref_kernel_basis(M, expected_dim=None):
    """Guard: kernel_basis leaving pivot columns out, on ref_row_echelon and
    so with today's zero rule (ROADMAP item 2)."""
    if not M:
        return []
    n = len(M[0])
    rows, pivots = ref_row_echelon(M)
    pivot_cols = {pc for _, pc in pivots}
    free_cols = [j for j in range(n) if j not in pivot_cols]
    if expected_dim is not None and len(free_cols) != expected_dim:
        raise InsufficientPrecision(
            "kernel dimension could not be certified",
            witness={"expected": expected_dim, "found": len(free_cols)})
    spec = M[0][0].spec
    basis = []
    for j in free_cols:
        vec = [PadicScalar.zero(spec)] * n
        vec[j] = PadicScalar.from_int(spec, 1)
        for (pr, pc) in pivots:
            vec[pc] = -rows[pr][j]
        basis.append(vec)
    return basis


def ref_coords(basis_cols, targets):
    """Guard: coords_in_column_span leaving pivot columns out and solving
    all targets in one batch, on ref_row_echelon and so with today's zero
    rule (ROADMAP item 2).  None for a target outside the span."""
    r = len(basis_cols)
    rows, pivots = ref_row_echelon(
        list(zip(*basis_cols, *targets, strict=True)), pivot_cols=r)
    if len(pivots) != r:
        if r == len(rows):
            raise NonInvertible("matrix is singular to working precision",
                                witness={"rank": len(pivots), "size": r})
        raise NonInvertible("columns are dependent to working precision",
                            witness={"rank": len(pivots), "cols": r})
    return [[rows[pr][r + j] for pr in range(r)]
            if all(row[r + j].is_zero for row in rows[r:]) else None
            for j in range(len(targets))]


def ref_mat_inverse(A, spec):
    """Guard: mat_inverse as ref_coords on the identity (ROADMAP item 2)."""
    X = ref_coords(list(zip(*A)), mat_identity(spec, len(A)))
    return [list(row) for row in zip(*X)]


def ref_saturate_columns(cols):
    """Guard: saturate_columns with its update written col[s] - c piv[s].
    It skips a zero multiplier O(p^b) with its bound: today's zero rule
    (ROADMAP item 2)."""
    work = [list(c) for c in cols]
    n = len(work[0]) if work else 0
    out, used_rows = [], set()
    while work:
        best = None
        for j, col in enumerate(work):
            for i in range(n):
                a = col[i]
                if i not in used_rows and not a.is_zero and (
                        best is None or a.v < best[2]):
                    best = (j, i, a.v)
        if best is None:
            raise InsufficientPrecision(
                "dependent columns while saturating a lattice",
                witness={"remaining": len(work)})
        j, i, _ = best
        inv = work[j][i].invert()
        piv = [a * inv for a in work[j]]
        del work[j]
        for col in work:
            c = col[i]
            if not c.is_zero:
                for s in range(n):
                    col[s] = col[s] - c * piv[s]
        out.append(piv)
        used_rows.add(i)
    return out


# ---- isocrystal ----

def ref_poly_at_matrix(coeffs, A, spec):
    """Guard: _poly_at_matrix building Horner's first step entry by entry.
    Horner from lead * I, every step one mat_mul."""
    n = len(A)
    ident = mat_identity(spec, n)
    out = [[coeffs[-1] * e for e in row] for row in ident]
    for c in reversed(coeffs[:-1]):
        out = mat_mul(out, A)
        for i in range(n):
            out[i][i] = out[i][i] + c
    return out


# ---- dieudonne and bch ----

def ref_bracket_vec(a, x, y):
    """Guard: bracket_vec walking only the nonzero constants.  The bracket
    as a fold over all n^3 constants.  It skips a zero x_i, y_j or c_ijk
    with its bound, today's zero rule (ROADMAP item 2): x = [O(5), 0] and
    y = [0, 1] under [e0, e1] = e0 give [O(5^8), O(5^8)]."""
    n = a.rank
    spec = a.spec
    out = [PadicScalar.zero(spec) for _ in range(n)]
    for i in range(n):
        xi = x[i]
        if xi.is_zero:
            continue
        for j in range(n):
            yj = y[j]
            if yj.is_zero:
                continue
            cij = a.bracket[i][j]
            w = xi * yj
            for k in range(n):
                if not cij[k].is_zero:
                    out[k] = out[k] + w * cij[k]
    return out


def ref_bracket_laws(a):
    """Guard: the bracket-law verdict DieudonneLie.__init__ stores, as
    dla_validate's loops once made it on every call, without a lattice.
    Its brackets keep bracket_vec's zero rule (ROADMAP item 2)."""
    n = a.rank
    report = {"antisymmetry": True, "jacobi": True, "f_equivariance": True,
              "lattice_dieudonne": None, "lattice_bracket_closure": None,
              "witnesses": {}}
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                s = a.bracket[i][j][k] + a.bracket[j][i][k]
                if not s.is_zero:
                    report["antisymmetry"] = False
                    report["witnesses"].setdefault("antisymmetry", (i, j, k))
    basis = mat_identity(a.spec, n)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                t1 = a.bracket_vec(basis[i], a.bracket_vec(basis[j], basis[k]))
                t2 = a.bracket_vec(basis[j], a.bracket_vec(basis[k], basis[i]))
                t3 = a.bracket_vec(basis[k], a.bracket_vec(basis[i], basis[j]))
                s = [x + y + z for x, y, z in zip(t1, t2, t3)]
                if not all(c.is_zero for c in s):
                    report["jacobi"] = False
                    report["witnesses"].setdefault("jacobi", (i, j, k))
    F_ = a.iso.F
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    images = a.iso.apply([a.bracket[i][j] for i, j in pairs])
    for (i, j), lhs in zip(pairs, images):
        rhs = a.bracket_vec([F_[r][i] for r in range(n)],
                            [F_[r][j] for r in range(n)])
        if not all((x - y).is_zero for x, y in zip(lhs, rhs)):
            report["f_equivariance"] = False
            report["witnesses"].setdefault("f_equivariance", (i, j))
    return report


def ref_in_span(basis, targets):
    """Guard: in_span's one batched solve.  One solve per nonzero target:
    True when all are inside, the class InsufficientPrecision where the
    basis lost rank.  Its solves keep the zero rule (ROADMAP item 2)."""
    try:
        return all(all(c.is_zero for c in t)
                   or coords_in_column_span(basis, [t])[0] is not None
                   for t in targets)
    except NonInvertible:
        return InsufficientPrecision


def ref_lattice_closure(a, samples, seed):
    """Guard: lattice_closure_check's batched solves.  One solve per pair up
    to the first product outside the lattice, a library fault above the
    class only on a lattice closed under the bracket.  Its products and
    solves keep the zero rule (ROADMAP item 2)."""
    _, n_class = lower_central_series(a)
    spec, m = a.spec, len(a.lattice)
    rng = random.Random(seed)

    def pairs():
        for i in range(m):
            for j in range(m):
                yield ([int(s == i) for s in range(m)],
                       [int(s == j) for s in range(m)])
        for _ in range(samples):
            yield ([rng.randrange(-3, 4) for _ in range(m)],
                   [rng.randrange(-3, 4) for _ in range(m)])

    def point(coeffs):
        x = [PadicScalar.zero(spec) for _ in range(a.rank)]
        for s, k in enumerate(coeffs):
            if k:
                x = [xi + li * PadicScalar.from_fraction(spec, k)
                     for xi, li in zip(x, a.lattice[s])]
        return x

    for cx, cy in pairs():
        prod = group_mul(a, point(cx), point(cy))
        if not integral_columns(coords_in_column_span(a.lattice, [prod]))[0]:
            if spec.p > n_class and dla_validate(a)[
                    "lattice_bracket_closure"]:
                raise InvariantViolated("closure must hold for p above "
                                        "the class")
            return False, {"x": cx, "y": cy}
    return True, None


def ref_bch_matrix_oracle(c):
    """Exact: bch_series(c) against log(exp tA exp tB) on nilpotent rational
    matrices, degree by degree; returns the first mismatch or None.

    The two-parameter trick: evaluating at c distinct t isolates each
    graded piece by a Vandermonde solve, which is then compared exactly
    with the evaluated series, on three seeded pairs.
    """
    rng = random.Random(20240901)
    fle = bch_series(c)
    n = c + 1
    for trial in range(3):
        A = [[Fraction(0)] * n for _ in range(n)]
        B = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                A[i][j] = Fraction(rng.randrange(-9, 10))
                B[i][j] = Fraction(rng.randrange(-9, 10))
        ts = [Fraction(k) for k in range(1, c + 1)]
        logs = []
        for t in ts:
            tA, tB = ([[t * a for a in row] for row in X] for X in (A, B))
            Ut = rat_mat_mul(rat_mat_exp(tA, c), rat_mat_exp(tB, c))
            logs.append(rat_mat_log(Ut, c))
        # solve sum_d t^d C_d = log(t) for all n^2 entries at once
        V = [[t ** d for d in range(1, c + 1)] for t in ts]
        sol = rat_solve(V, [[x for row in L for x in row] for L in logs])
        pieces = [[sol[d][i * n:(i + 1) * n] for i in range(n)]
                  for d in range(c)]
        memo = {"X": A, "Y": B}
        for d in range(1, c + 1):
            S = [[Fraction(0)] * n for _ in range(n)]
            for w, coeff in fle.terms.items():
                if len(w) == d:
                    W = _bracketing(w, memo, _commutator)
                    S = [[s + coeff * x for s, x in zip(rs, rw)]
                         for rs, rw in zip(S, W)]
            if S != pieces[d - 1]:
                return {"trial": trial, "degree": d}
    return None


def ref_bch_double_sum(c):
    """Exact: log(exp X exp Y) truncated beyond degree c by the classical
    double-sum expansion, on the Lyndon basis.

    Sum over k of (-1)^(k-1)/k times words X^p1 Y^q1 .. X^pk Y^qk weighted
    by 1/((sum p+q) * prod p! q!), right-nested bracketing.  Exponential
    cost; intended for c <= 5.
    """
    def nested(word):
        if len(word) == 1:
            return {word: Fraction(1)}
        return _am_bracket({word[0]: Fraction(1)}, nested(word[1:]), c)

    total = {}
    # compositions: k blocks (p_i, q_i), p_i + q_i >= 1, total length <= c
    def blocks(remaining, k_so_far, word, weight):
        nonlocal total
        if word:
            m = len(word)
            sign = Fraction((-1) ** (k_so_far - 1), k_so_far)
            contrib = _am_scale(sign * weight / m, nested(word))
            total = _am_add(total, contrib)
        if remaining == 0:
            return
        for p in range(remaining + 1):
            for q in range(remaining - p + 1):
                if p + q == 0:
                    continue
                blocks(remaining - p - q, k_so_far + 1,
                       word + "X" * p + "Y" * q,
                       weight / (math.factorial(p) * math.factorial(q)))

    blocks(c, 0, "", Fraction(1))
    return FreeLieElement(lie_project(total, c))


# ---- roots ----

def _root_vector(group_type, n, i, j):
    X = [[F(0)] * n for _ in range(n)]
    X[i][j] = F(1)
    if group_type == "GL":
        return X
    mi, mj = n - 1 - j, n - 1 - i
    if (mi, mj) == (i, j):
        return X
    sign = lambda k: -1 if group_type == "GSp" and k >= n // 2 else 1
    X[mi][mj] = -F(sign(i) * sign(j))
    return X


def _commutator(A, B):
    n = len(A)
    out = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            a, b = A[i][k], B[i][k]
            if a == 0 and b == 0:
                continue
            for j in range(n):
                out[i][j] += a * B[k][j] - b * A[k][j]
    return out


def _span_rank(mats):
    rows = [[x for row in X for x in row] for X in mats]
    rows = [r for r in rows if any(x != 0 for x in r)]
    return rat_rank(rows) if rows else 0


def ref_nilpotency(d):
    """Guard: unipotent_nilpotency.  The former algorithm over Q: layer
    k+1 is every bracket of a root vector with every element of layer k."""
    basis = [_root_vector(d.group_type, d.n, i, j)
             for (i, j) in roots._positive_root_positions(d.group_type, d.n)
             if d.nu[i] - d.nu[j] > 0]
    layer, n_class = basis, 0
    prev_rank = _span_rank(layer) if basis else 0
    while layer and prev_rank > 0:
        n_class += 1
        layer = [_commutator(g, h) for g in basis for h in layer]
        layer = [X for X in layer if any(x != 0 for row in X for x in row)]
        rank = _span_rank(layer)
        assert rank < prev_rank or rank == 0
        prev_rank = rank
    return n_class


def ref_adjoint_isocrystal(d, b, spec):
    """Guard: adjoint_isocrystal conjugating by the nonzero entries of each
    basis element.  The former construction: two dense products b X b^-1
    per basis element, then one solve for the coordinates."""
    n = d.n
    if len(b) != n or any(len(r) != n for r in b):
        raise MalformedInput("group element size mismatch",
                             witness={"n": n})
    b = [[F(x) for x in row] for row in b]
    binv = rat_solve(b, [[int(i == j) for j in range(n)] for i in range(n)])
    if binv is None:
        raise NonInvertible("matrix is singular", witness={"n": n})
    basis = roots._lie_algebra_basis(d.group_type, n)
    flat = lambda X: [x for row in X for x in row]
    imgs = [flat(rat_mat_mul(rat_mat_mul(b, X), binv)) for X in basis]
    coords = rat_solve(list(zip(*map(flat, basis))), list(zip(*imgs)))
    if coords is None:
        raise MalformedInput("conjugation left the Lie algebra",
                             witness={"type": d.group_type, "n": n})
    return Isocrystal.from_rationals(spec, coords)


# ---- perfseries ----

def ref_ps_pow(a, e):
    """Guard: ps_pow taking p-th powers as one Frobenius pass, and series on
    integer exponents at one depth.  The former ps_pow: square-and-multiply
    with the former ps_mul alone."""
    out = PerfectedSeries(a.p, a.nvars, a.k, a.D,
                          {(F(0),) * a.nvars: ff_one(a.k)})
    base = a
    while e:
        if e & 1:
            out = ref_ps_mul(out, base)
        base = ref_ps_mul(base, base)
        e >>= 1
    return out


def ref_ps_add(a, b):
    """Guard: operations building their results unchecked.  The former
    ps_add: drop a sum that is zero, rebuild with checks."""
    terms = dict(a.terms)
    for exp, c in b.terms.items():
        if exp in terms:
            s = ff_add(terms[exp], c, a.p)
            if not any(s):
                del terms[exp]
            else:
                terms[exp] = s
        else:
            terms[exp] = c
    return PerfectedSeries(a.p, a.nvars, a.k, min(a.D, b.D), terms)


def ref_ps_mul(a, b):
    """Guard: operations building their results unchecked.  The former
    ps_mul: drop a zero partial sum, rebuild with checks."""
    D = min(a.D, b.D)
    spec = FieldSpec(a.p, a.k, 1)
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if e and max(e) > D:
                continue
            c = spec.raw_mul(c1, c2, a.p)
            if e in out:
                s = ff_add(out[e], c, a.p)
                if not any(s):
                    del out[e]
                else:
                    out[e] = s
            elif any(c):
                out[e] = c
    return PerfectedSeries(a.p, a.nvars, a.k, D, out)


def ref_ps_map(a, exp_map, coeff_map, nvars=None):
    """Guard: operations building their results unchecked.  Each term moved
    by the two maps, rebuilt with checks: the scale, Frobenius and embed
    operations."""
    return PerfectedSeries(a.p, a.nvars if nvars is None else nvars, a.k,
                           a.D, {exp_map(e): coeff_map(c)
                                 for e, c in a.terms.items()})


# The Guards below pin series on integer exponents at one p-power depth:
# each is the former code, on the Fraction exponents of .terms, and builds
# its results with the validating constructor.

def _den_pexp(p, den):
    """e with den == p**e, by division."""
    e = 0
    while den > 1:
        den //= p
        e += 1
    return e


def _exp_pairs(p, exp):
    """A Fraction exponent vector as its {num, pexp} pairs."""
    return [{"num": v.numerator, "pexp": _den_pexp(p, v.denominator)}
            for v in exp]


def ref_ps_scale(a, coeff):
    """Guard: series on integer exponents at one depth.  The former
    ps_scale."""
    spec = FieldSpec(a.p, a.k, 1)
    return ref_ps_map(a, lambda e: e, lambda c: spec.raw_mul(c, coeff, a.p))


def ref_ps_frobenius(a, direction, flavor):
    """Guard: series on integer exponents at one depth, and the coefficient
    Frobenius by sigma.  The former ps_frobenius: each exponent times or
    over p, each coefficient to the p-th power (forward) or the p^(k-1)-th
    (inverse) by poly_powmod."""
    p, spec = a.p, FieldSpec(a.p, a.k, 1)
    e = p if direction == "forward" else p ** (a.k - 1)
    fc = ((lambda c: ref_coeff_pow(spec, c, e)) if flavor == "absolute"
          else (lambda c: c))
    fe = (lambda v: v * p) if direction == "forward" else (lambda v: v / p)
    return ref_ps_map(a, lambda exp: tuple(map(fe, exp)), fc)


def ref_ps_truncate_ideal(a, kind, m):
    """Guard: series on integer exponents at one depth.  The former
    ps_truncate_ideal, on Fraction exponents."""
    if kind == "frobenius":
        keep = lambda exp: all(v < F(a.p) ** m for v in exp)
    else:
        keep = lambda exp: sum(int(v) for v in exp) < m
    return PerfectedSeries(a.p, a.nvars, a.k, a.D,
                           {e: c for e, c in a.terms.items() if keep(e)})


def ref_ps_embed(a, total_nvars, offset):
    """Guard: series on integer exponents at one depth.  The former
    ps_embed."""
    pad_r = total_nvars - a.nvars - offset
    return ref_ps_map(a, lambda e: (F(0),) * offset + e + (F(0),) * pad_r,
                      lambda c: c, nvars=total_nvars)


def ref_ps_compose(f, g, h=()):
    """Guard: series on integer exponents at one depth.  The former
    ps_compose on valid input, its powers by the former ps_mul."""
    args = list(g) + list(h)
    base = args[0]
    D = min(s.D for s in args)
    out = PerfectedSeries(base.p, base.nvars, base.k, D, {})
    for exp, coeff in sorted(f.terms.items()):
        term = PerfectedSeries(base.p, base.nvars, base.k, D,
                               {(F(0),) * base.nvars: ff_one(base.k)})
        for arg, e in zip(args, exp):
            term = ref_ps_mul(term, ref_ps_pow(arg, int(e)))
        out = ref_ps_add(out, ref_ps_scale(term, coeff))
    return out


def ref_series_to_json(a):
    """Guard: series on integer exponents at one depth.  The former
    to_json: each Fraction exponent as its numerator and the p-exponent of
    its denominator."""
    return {"p": a.p, "nvars": a.nvars, "field": {"p": a.p, "k": a.k},
            "D": a.D, "terms": [{"exp": _exp_pairs(a.p, exp),
                                 "coeff": list(c)}
                                for exp, c in sorted(a.terms.items())]}


def ref_series_from_json(obj):
    """Guard: series on integer exponents at one depth.  The former
    from_json on a well-formed object: Fraction(num, p ** pexp) for each
    exponent, a repeated value refused."""
    p, terms = obj["p"], {}
    for t in obj["terms"]:
        exp = tuple(F(e["num"], p ** e["pexp"]) for e in t["exp"])
        if exp in terms:
            raise MalformedInput("duplicate exponent", witness=t)
        terms[exp] = tuple(t["coeff"])
    return PerfectedSeries(p, obj["nvars"], obj["field"]["k"], obj["D"],
                           terms)


def ref_membership_restricted(a, params, method="both"):
    """Guard: series on integer exponents at one depth.  The former
    membership_restricted, on Fraction exponents."""
    p, r, s, n0 = a.p, params.r, params.s, params.n0

    def ord_(exp):
        return max((_den_pexp(p, v.denominator) for v in exp), default=0)

    def surviving(m, strict=True):
        n = n0
        while (F(p) ** (n * (s - r)) <= m) if strict else (
                F(p) ** (n * (s - r)) < m):
            n += 1
        return n

    def witness(exp, v, n):
        w = {"exp": _exp_pairs(p, exp), "ord": v, "n": n, "allowed": r * n}
        if surviving(max(exp), False) != surviving(max(exp)):
            w["boundary"] = True
        return w

    n_max = surviving(F(a.D))
    found = {"definitional": (True, None), "closed_form": (True, None)}
    for exp in sorted(a.terms):
        v = ord_(exp)
        if v == 0:
            continue
        if found["definitional"][0]:
            for n in range(n0, n_max + 1):
                if max(exp) * p ** (n * r) < F(p) ** (n * s) and n * r < v:
                    found["definitional"] = (False, witness(exp, v, n))
                    break
        n_first = surviving(max(exp))
        if found["closed_form"][0] and v > r * n_first:
            found["closed_form"] = (False, witness(exp, v, n_first))
    assert found["definitional"][0] == found["closed_form"][0]
    return found["closed_form" if method == "both" else method]


def ref_membership_ECd(a, E, C, d):
    """Guard: series on integer exponents at one depth.  The former
    membership_ECd, on Fraction exponents."""
    E, C, d = F(E), F(C), F(d)
    for exp in sorted(a.terms):
        v = max((_den_pexp(a.p, x.denominator) for x in exp), default=0)
        if v == 0:
            continue
        rhs = C ** E.denominator * (max(exp) + d) ** E.numerator
        if F(a.p) ** (v * E.denominator) > rhs:
            return False, {"exp": _exp_pairs(a.p, exp), "ord": v,
                           "bound": f"{rhs.numerator}/{rhs.denominator}"}
    return True, None


def ref_rigidity_check(f, g, h, r, d_seq, powered_block):
    """Guard: series on integer exponents at one depth.  The former
    rigidity_check on valid input, by the former operations, its ratio
    test on Fractions."""
    q = f.p ** r
    cong = []
    for n, d_n in enumerate(d_seq):
        gs = [ref_ps_pow(x, q ** n) if powered_block == "g" else x
              for x in g]
        hs = [ref_ps_pow(x, q ** n) if powered_block == "h" else x
              for x in h]
        cong.append(ref_ps_truncate_ideal(ref_ps_compose(f, gs, hs), "power",
                                          d_n).is_zero())
    nv = (list(g) + list(h))[0].nvars
    doubled = ref_ps_compose(f, [ref_ps_embed(x, 2 * nv, 0) for x in g],
                             [ref_ps_embed(x, 2 * nv, nv) for x in h])
    return {"congruences": cong,
            "ratio_ok": all(F(q ** n, d_seq[n]) > F(q ** (n + 1),
                                                     d_seq[n + 1])
                            for n in range(len(d_seq) - 1)),
            "evaluation_zero": doubled.is_zero()}
