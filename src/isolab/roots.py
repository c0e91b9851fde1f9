"""Root data with a rational cocharacter: slope multisets, leaf dimensions,
nilpotency of the attached unipotent algebra, and the prime-size gate.

Everything is done in matrix coordinates of the standard representation, so
the cocharacter pairs with roots by plain coordinate differences and the
unipotent algebras are honest matrix algebras over Q.
"""

from fractions import Fraction

from .errors import (InvariantViolated, MalformedInput, NonInvertible,
                     UnsupportedType)
from .dieudonne import pdiv_dimension
from .isocrystal import Isocrystal, newton_slopes, slope_part
from .linalg import rat_rank, rat_rref, rat_solve
from .padic import FieldSpec, _integral, _rational, _sequence

_TYPES = ("GL", "GSp", "SO")


def _positive_root_positions(group_type, n):
    """Upper-triangular matrix positions carrying one root vector each."""
    if group_type == "GL":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if group_type == "GSp":
        g = n // 2
        short = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if (i + 1) + (j + 1) <= n]
        longs = [(i, n - 1 - i) for i in range(g)]
        return short + longs
    return [(i, j) for i in range(n) for j in range(i + 1, n)  # SO
            if (i + 1) + (j + 1) < n + 1]


class RootDatumWithCochar:
    """Split classical root datum plus a dominant rational cocharacter.

    nu is given in matrix coordinates (length n); for SO a length-floor(n/2)
    vector is also accepted and expanded antisymmetrically.  nu is a
    sequence, such as a list or a tuple, and each entry a rational by
    padic._rational's rule; a string, a non-sequence or another entry is
    MalformedInput.
    """

    __slots__ = ("group_type", "n", "positive_roots", "pairings", "two_rho",
                 "nu")

    def __init__(self, group_type, n, nu):
        if group_type not in _TYPES:
            raise UnsupportedType("supported types: GL, GSp, SO",
                                  witness={"type": group_type})
        if not _integral(n):
            raise MalformedInput("matrix size must be an integer",
                                 witness={"n": n})
        n = int(n)
        if group_type == "GSp" and n % 2:
            raise MalformedInput("GSp needs even matrix size",
                                 witness={"n": n})
        if n < 2:
            raise MalformedInput("matrix size must be at least 2",
                                 witness={"n": n})
        if not _sequence(nu):
            raise MalformedInput("cocharacter must be a sequence of "
                                 "rationals", witness={"nu": nu})
        read = [_rational(v) for v in nu]
        if None in read:
            raise MalformedInput("cocharacter entries must be rational",
                                 witness={"nu": [str(v) for v in nu]})
        nu = read
        if group_type == "SO" and len(nu) == n // 2:
            mid = [Fraction(0)] if n % 2 else []
            nu = nu + mid + [-v for v in reversed(nu)]
        if len(nu) != n:
            raise MalformedInput("cocharacter length must match matrix size",
                                 witness={"n": n, "len": len(nu)})
        sums = {a + b for a, b in zip(nu, reversed(nu))}
        if group_type == "GSp" and len(sums) > 1:
            raise MalformedInput(
                "GSp cocharacter needs nu_i + nu_(n-1-i) constant",
                witness={"nu": [str(v) for v in nu]})
        if group_type == "SO" and sums != {0}:
            raise MalformedInput(
                "SO cocharacter needs nu_i + nu_(n-1-i) = 0",
                witness={"nu": [str(v) for v in nu]})
        roots, pairings = [], []
        for i, j in _positive_root_positions(group_type, n):
            alpha = [0] * n
            alpha[i] += 1
            alpha[j] -= 1
            t = nu[i] - nu[j]  # <alpha, nu>
            if t < 0:
                raise MalformedInput("cocharacter is not dominant",
                                     witness={"root": alpha,
                                              "pairing": str(t)})
            roots.append(tuple(alpha))
            pairings.append(t)
        self.group_type = group_type
        self.n = n
        self.positive_roots = roots
        self.pairings = tuple(pairings)  # <alpha, nu> per positive root
        self.two_rho = tuple(sum(a[k] for a in roots) for k in range(n))
        self.nu = tuple(nu)


def _pair(alpha, nu):
    return sum(a * v for a, v in zip(alpha, nu))


def slope_multiset_from_roots(d):
    """{(-<alpha,nu>, mult)} over positive roots pairing strictly positively."""
    counts = {}
    for t in d.pairings:
        if t > 0:
            counts[-t] = counts.get(-t, 0) + 1
    return sorted(counts.items())


def leaf_dimension(d):
    """<2 rho, nu>; cross-checked against the p-divisible dimension sum."""
    dim = _pair(d.two_rho, d.nu)
    pdiv = pdiv_dimension(slope_multiset_from_roots(d), check_range=False)
    if dim != pdiv:
        raise InvariantViolated("<2 rho, nu> differs from the p-divisible "
                                "dimension",
                                witness={"two_rho_nu": str(dim),
                                         "pdiv": str(pdiv)})
    return pdiv


# --------------------------------------------------------------------------
# matrix realizations
# --------------------------------------------------------------------------

def _form_sign(group_type, n, i):
    # antidiagonal form: symplectic flips sign on the lower half
    if group_type == "GSp":
        return 1 if i < n // 2 else -1
    return 1


def _root_vector(group_type, n, i, j):
    """Integer matrix of the root vector at upper position (i, j)."""
    X = [[0] * n for _ in range(n)]
    X[i][j] = 1
    if group_type == "GL":
        return X
    mi, mj = n - 1 - j, n - 1 - i
    if (mi, mj) == (i, j):  # symplectic long root
        return X
    X[mi][mj] = -(_form_sign(group_type, n, i) * _form_sign(group_type, n, j))
    return X


def _mat_bracket(A, B):
    n = len(A)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            a = A[i][k]
            b = B[i][k]
            if a == 0 and b == 0:
                continue
            for j in range(n):
                out[i][j] += a * B[k][j] - b * A[k][j]
    return out


def _flatten(X):
    return [x for row in X for x in row]


def _independent(mats):
    """A basis of the span of mats, taken from among them in order: the
    pivot columns of one rational elimination with the flattened matrices
    as columns."""
    _, pivots = rat_rref(list(zip(*map(_flatten, mats))))
    return [mats[c] for c in pivots]


def unipotent_nilpotency(d):
    """Lower-central length of the strictly-positive-pairing root algebra.

    Each layer C^{k+1} = [u, C^k] is kept as a basis drawn from its
    brackets; by bilinearity [u, span(layer)] is spanned by the brackets of
    the root vectors with that basis, so every rank is that of the full
    bracket list.
    """
    basis = [_root_vector(d.group_type, d.n, i, j)
             for (i, j), t in zip(_positive_root_positions(d.group_type, d.n),
                                  d.pairings) if t > 0]
    layer = basis  # root vectors at distinct positions: independent
    n_class = 0
    while layer:
        n_class += 1
        nxt = _independent([_mat_bracket(g, h) for g in basis for h in layer])
        if nxt and len(nxt) >= len(layer):
            raise InvariantViolated("central series stalled",
                                    witness={"step": n_class,
                                             "rank": len(nxt)})
        layer = nxt
    return n_class


def coxeter_gate(d, p):
    """Size gate {h, h_weyl, n_class, p_ge_h, p_gt_n}.

    h is the bound actually used downstream (for SO the stated orthogonal
    bound 2(m-1), which is smaller than the Weyl-group Coxeter number in
    the odd case); h_weyl is the classical invariant.  Both are reported
    so the discrepancy stays visible.  n_class above max(h_weyl - 1, 0)
    raises InvariantViolated.
    p must be prime (MalformedInput otherwise).
    """
    FieldSpec(p, 1, 1)  # the check a perfected series makes
    m = d.n // 2
    if d.group_type == "SO":
        h = 2 * (m - 1)
        h_weyl = 2 * m if d.n % 2 else 2 * m - 2
    else:  # GL and GSp
        h = h_weyl = d.n
    n_class = unipotent_nilpotency(d)
    # SO(2) is a torus: no roots, h_weyl = 0 and n_class = 0
    if n_class > max(h_weyl - 1, 0):
        raise InvariantViolated("nilpotency class exceeds h_weyl - 1",
                                witness={"n_class": n_class,
                                         "h_weyl": h_weyl})
    return {"h": h, "h_weyl": h_weyl, "n_class": n_class,
            "p_ge_h": p >= h, "p_gt_n": p > n_class}


# --------------------------------------------------------------------------
# the adjoint isocrystal
# --------------------------------------------------------------------------

def _lie_algebra_basis(group_type, n):
    """Rational basis of the Lie algebra in the standard representation."""
    if group_type == "GL":
        basis = []
        for i in range(n):
            for j in range(n):
                X = [[Fraction(0)] * n for _ in range(n)]
                X[i][j] = Fraction(1)
                basis.append(X)
        return basis
    ups = _positive_root_positions(group_type, n)
    basis = [_root_vector(group_type, n, i, j) for (i, j) in ups]
    basis += [[[r[j][i] for j in range(n)] for i in range(n)]
              for r in basis]  # opposite root spaces by transposition
    # torus part: diagonal matrices compatible with the form
    for k in range(n // 2):
        X = [[Fraction(0)] * n for _ in range(n)]
        X[k][k] = Fraction(1)
        X[n - 1 - k][n - 1 - k] = Fraction(-1)
        basis.append(X)
    if group_type == "GSp":
        basis.append([[Fraction(1 if i == j else 0) for j in range(n)]
                      for i in range(n)])  # similitude center
    if rat_rank(list(zip(*map(_flatten, basis)))) != len(basis):
        raise InvariantViolated("Lie algebra basis is dependent",
                                witness={"type": group_type, "n": n})
    return basis


def adjoint_isocrystal(d, b, spec):
    """Isocrystal on the Lie algebra with Frobenius X -> b sigma(X) b^-1.

    b is a rational invertible matrix; sigma fixes rational entries, so in
    the flattened basis the Frobenius matrix is the conjugation action.
    """
    n = d.n
    if len(b) != n or any(len(r) != n for r in b):
        raise MalformedInput("group element size mismatch",
                             witness={"n": n})
    b = [[Fraction(x) for x in row] for row in b]
    binv = rat_solve(b, [[int(i == j) for j in range(n)] for i in range(n)])
    if binv is None:
        raise NonInvertible("matrix is singular", witness={"n": n})
    basis = _lie_algebra_basis(d.group_type, n)
    # every basis element has at most two nonzero entries, and an entry x
    # at (k, m) adds x (column k of b)(row m of b^-1) to b X b^-1
    cols = [[(i, r[k]) for i, r in enumerate(b) if r[k]] for k in range(n)]
    rows = [[(j, y) for j, y in enumerate(r) if y] for r in binv]
    imgs = []
    for X in basis:
        img = [0] * (n * n)
        for k, row in enumerate(X):
            for m, x in enumerate(row):
                if x:
                    for i, bik in cols[k]:
                        c, at = x * bik, i * n
                        for j, y in rows[m]:
                            img[at + j] += c * y
        imgs.append(img)
    # the basis has full column rank, so each image has unique coordinates
    coords = rat_solve(list(zip(*map(_flatten, basis))), list(zip(*imgs)))
    if coords is None:
        raise MalformedInput("conjugation left the Lie algebra",
                             witness={"type": d.group_type, "n": n})
    return Isocrystal.from_rationals(spec, coords)


def adjoint_slope_cross_check(d, spec):
    """Negative slopes of the adjoint action of diag(p^-nu) vs the root side.

    Requires integral nu; returns the common multiset.
    """
    p = spec.p
    for v in d.nu:
        if v.denominator != 1:
            raise MalformedInput("cross-check needs an integral cocharacter",
                                 witness={"nu": [str(x) for x in d.nu]})
    b = [[Fraction(0)] * d.n for _ in range(d.n)]
    for i, v in enumerate(d.nu):
        b[i][i] = Fraction(p) ** int(-v)
    iso = adjoint_isocrystal(d, b, spec)
    part, _ = slope_part(iso, "lt0")
    got = newton_slopes(part) if part.rank else []
    want = slope_multiset_from_roots(d)
    if got != want:
        raise InvariantViolated("adjoint slopes differ from the root side",
                                witness={"adjoint": [[str(s), m]
                                                     for s, m in got],
                                         "roots": [[str(s), m]
                                                   for s, m in want]})
    return want
