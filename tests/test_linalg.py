import random
from fractions import Fraction

import pytest

from isolab import FieldSpec, PadicScalar
from isolab.dieudonne import span_basis
from isolab.errors import (FieldSpecMismatch, InsufficientPrecision,
                           IsolabError, NonInvertible)
from isolab.linalg import (charpoly, coords_in_column_span, kernel_basis,
                           lower_hull, mat_from_rationals, mat_identity,
                           mat_inverse, mat_mul, mat_vec,
                           newton_root_valuations, row_echelon,
                           rat_rank, rat_rref, rat_solve, saturate_columns,
                           twisted_power)

Z5 = FieldSpec(5, 1, 12)


def _mat(rows, spec=Z5):
    return mat_from_rationals(spec, [[Fraction(str(c)) for c in row]
                                     for row in rows])


def _is_zero_mat(A):
    return all(c.is_zero for row in A for c in row)


def test_charpoly_diag():
    A = _mat([[2, 0], [0, 3]])
    # T^2 - 5T + 6
    cp = charpoly(A, Z5)
    want = [PadicScalar.from_int(Z5, c) for c in (6, -5, 1)]
    assert all((a - b).is_zero for a, b in zip(cp, want))


def test_charpoly_division_free_vs_expansion():
    rng = random.Random(3)
    for _ in range(5):
        rows = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)]
        A = _mat(rows)
        cp = charpoly(A, Z5)
        # evaluate at the matrix: Cayley-Hamilton
        acc = [[PadicScalar.zero(Z5) for _ in range(3)] for _ in range(3)]
        P = mat_identity(Z5, 3)
        for c in cp:
            for i in range(3):
                for j in range(3):
                    acc[i][j] = acc[i][j] + c * P[i][j]
            P = mat_mul(P, A)
        assert _is_zero_mat(acc)


def test_lower_hull_shape():
    pts = [(0, 2), (1, 0), (2, 1), (3, 0)]
    hull = lower_hull(pts)
    assert hull[0] == (0, 2) and hull[-1] == (3, 0)
    assert (1, 0) in hull


def test_newton_root_valuations():
    # (T - p)(T - 1): valuations {0, 1}
    coeffs = [PadicScalar.from_int(Z5, 5),
              PadicScalar.from_int(Z5, -6),
              PadicScalar.from_int(Z5, 1)]
    vals = newton_root_valuations(coeffs)
    assert sorted(vals) == [(Fraction(0), 1), (Fraction(1), 1)]


def test_newton_root_valuations_fractional():
    # T^2 - 1/p: two roots of valuation -1/2
    coeffs = [PadicScalar.from_fraction(Z5, Fraction(-1, 5)),
              PadicScalar.zero(Z5),
              PadicScalar.from_int(Z5, 1)]
    vals = newton_root_valuations(coeffs)
    assert vals == [(Fraction(-1, 2), 2)]


def test_kernel_basis_rank_one():
    A = _mat([[1, 2], [2, 4]])
    ker = kernel_basis(A)
    assert len(ker) == 1
    v = ker[0]
    img = [A[i][0] * v[0] + A[i][1] * v[1] for i in range(2)]
    assert all(c.is_zero for c in img)


def test_solve_and_inverse():
    A = _mat([[1, 1], [0, 1]])
    I = mat_identity(Z5, 2)
    Ainv = mat_inverse(A, Z5)
    assert _is_zero_mat([[mat_mul(A, Ainv)[i][j] - I[i][j]
                          for j in range(2)] for i in range(2)])
    X = coords_in_column_span(_mat([[1, 0], [1, 1]]), _mat([[3, 4]]))
    # x + y = 3, y = 4 -> x = -1
    assert (X[0][0] - PadicScalar.from_int(Z5, -1)).is_zero
    assert (X[0][1] - PadicScalar.from_int(Z5, 4)).is_zero


def test_coords_in_column_span():
    basis = [[PadicScalar.from_int(Z5, 1), PadicScalar.from_int(Z5, 2)],
             [PadicScalar.from_int(Z5, 0), PadicScalar.from_int(Z5, 1)]]
    target = [[PadicScalar.from_int(Z5, 3), PadicScalar.from_int(Z5, 7)]]
    coords = coords_in_column_span(basis, target)
    # 3*(1,2) + 1*(0,1) = (3,7)
    assert (coords[0][0] - PadicScalar.from_int(Z5, 3)).is_zero
    assert (coords[0][1] - PadicScalar.from_int(Z5, 1)).is_zero


def test_outside_target_is_none_and_leaves_the_others():
    e0 = [PadicScalar.from_int(Z5, 1), PadicScalar.zero(Z5)]
    e1 = [PadicScalar.zero(Z5), PadicScalar.from_int(Z5, 1)]
    none, coords = coords_in_column_span([e0], [e1, e0])
    assert none is None
    assert [_key(c) for c in coords] == [_key(PadicScalar.from_int(Z5, 1))]


def test_saturate_columns_divides_out_p():
    cols = [[PadicScalar.from_int(Z5, 5), PadicScalar.zero(Z5)],
            [PadicScalar.zero(Z5), PadicScalar.from_int(Z5, 1)]]
    sat = saturate_columns(cols)
    vals = sorted(min(c.valuation() for c in col if not c.is_zero)
                  for col in sat)
    assert vals == [0, 0]


def test_twisted_power_unramified_trivial_f1():
    A = _mat([[0, 1], [5, 0]])
    L = twisted_power(A, Z5)
    assert _is_zero_mat([[L[i][j] - A[i][j] for j in range(2)]
                         for i in range(2)])


def test_twisted_power_f2():
    spec = FieldSpec(5, 2, 8)
    t = PadicScalar.from_coeffs(spec, [0, 1])
    A = [[t]]
    L = twisted_power(A, spec)
    # t * sigma(t) is the norm, a prime-field element: fixed by sigma
    x = L[0][0]
    assert (x.sigma() - x).is_zero


# ---- matrix product against the scalar fold ----

def _fold_mat_mul(A, B):
    """Reference product: a left fold of PadicScalar products and sums."""
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


def _key(a):
    return (a.v, a.unit, a.rel)


def _rand_scalar(rng, spec, zero_share=0.25):
    if rng.random() < zero_share:
        return PadicScalar.zero(spec, rng.randint(-3, spec.N + 3))
    rel = rng.randint(1, spec.N)
    pR = spec.p ** rel
    unit = [rng.randrange(pR) for _ in range(spec.f)]
    if all(c % spec.p == 0 for c in unit):
        unit[rng.randrange(spec.f)] += 1
    return PadicScalar(spec, rng.randint(-3, 3), tuple(unit), rel)


def _rand_pair(rng, spec):
    m, k, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
    A = [[_rand_scalar(rng, spec) for _ in range(k)] for _ in range(m)]
    B = [[_rand_scalar(rng, spec) for _ in range(n)] for _ in range(k)]
    if k >= 2 and rng.random() < 0.3:
        # A[i][1] B[1][j] = -A[i][0] B[0][j]: the sum cancels to zero
        for row in A:
            row[1] = row[0]
        B[1] = [-b for b in B[0]]
    return A, B


def test_mat_mul_matches_scalar_fold():
    rng = random.Random(11)
    specs = [FieldSpec(p, f, N) for p in (2, 3, 5, 7) for f in (1, 2, 3)
             for N in (1, 3, 6)]
    cancelled = zero_bounds = 0
    for _ in range(1500):
        spec = rng.choice(specs)
        A, B = _rand_pair(rng, spec)
        got, want = mat_mul(A, B), _fold_mat_mul(A, B)
        assert [[_key(a) for a in r] for r in got] == \
            [[_key(a) for a in r] for r in want]
        col = [row[0] for row in B]
        assert [_key(a) for a in mat_vec(A, col)] == \
            [_key(r[0]) for r in _fold_mat_mul(A, [[c] for c in col])]
        cancelled += sum(a.is_zero for r in want for a in r)
        zero_bounds += sum(b.is_zero for r in B for b in r)
    assert cancelled > 100 and zero_bounds > 1000


def test_mat_mul_inner_dimension_one_and_edges():
    spec = FieldSpec(3, 2, 4)
    x = PadicScalar.from_coeffs(spec, [1, 2], valuation=-2)
    z_low, z_high = PadicScalar.zero(spec, -5), PadicScalar.zero(spec, 9)
    A = [[x], [z_low], [z_high]]
    B = [[x, z_low, z_high]]
    got = mat_mul(A, B)
    assert [[_key(a) for a in r] for r in got] == \
        [[_key(a) for a in r] for r in _fold_mat_mul(A, B)]
    assert mat_mul([], B) == []
    with pytest.raises(IndexError):
        mat_mul(A, [])


def test_mat_mul_rejects_mixed_specs():
    s1, s2 = FieldSpec(5, 1, 6), FieldSpec(5, 2, 6)
    one1, one2 = PadicScalar.from_int(s1, 1), PadicScalar.from_int(s2, 1)
    with pytest.raises(FieldSpecMismatch):
        mat_mul([[one1]], [[one2]])
    with pytest.raises(FieldSpecMismatch):
        mat_mul([[one1, one1]], [[one1], [one2]])
    with pytest.raises(FieldSpecMismatch):
        mat_vec([[one1], [one2]], [one1])


# ---- characteristic polynomial against the tuple-loop reference ----

def _ref_charpoly(A, spec):
    """Reference: Berkowitz on the whole matrix at one precision W.

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


CHARPOLY_SPECS = [FieldSpec(p, f, N) for p in (2, 3, 5, 7) for f in (1, 2, 3)
                  for N in (1, 3, 6, 12)]


def test_charpoly_matches_reference():
    rng = random.Random(13)
    raised = certified = 0
    for _ in range(3000):
        spec = rng.choice(CHARPOLY_SPECS)
        n = rng.randint(0, 7)
        A = [[_rand_scalar(rng, spec) for _ in range(n)] for _ in range(n)]
        try:
            want = _ref_charpoly(A, spec)
        except IsolabError as exc:
            with pytest.raises(IsolabError) as got:
                charpoly(A, spec)
            assert type(got.value) is type(exc)
            assert got.value.witness == exc.witness
            raised += 1
            continue
        assert [_key(c) for c in charpoly(A, spec)] == [_key(c) for c in want]
        certified += sum(not c.is_zero for c in want[:-1])
    assert raised > 500 and certified > 1500


@pytest.mark.parametrize("f", [1, 2, 3])
def test_charpoly_carry_edge_matches_reference(f):
    # every raw entry is p^W - 1 in each coefficient, the largest value a
    # packed slot holds: at v = 0, W = N; at v = -1, e = 1 and W = N again
    for p in (2, 3, 5, 7):
        for N in (1, 3, 6, 12):
            spec = FieldSpec(p, f, N)
            for v in (0, -1):
                a = PadicScalar.from_coeffs(spec, [spec.pN - 1] * f, v)
                for n in range(8):
                    A = [[a] * n for _ in range(n)]
                    assert [_key(c) for c in charpoly(A, spec)] == \
                        [_key(c) for c in _ref_charpoly(A, spec)]


def _fraction_det(M):
    M = [list(row) for row in M]
    det = Fraction(1)
    for c in range(len(M)):
        piv = next((r for r in range(c, len(M)) if M[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        for r in range(c + 1, len(M)):
            t = M[r][c] / M[c][c]
            M[r] = [a - t * b for a, b in zip(M[r], M[c])]
    return det


def test_charpoly_constant_term_is_exact_determinant():
    # c_0 = det(-A) = (-1)^n det(A) to its certified precision
    rng = random.Random(17)
    certified = 0
    for _ in range(300):
        spec = rng.choice(CHARPOLY_SPECS)
        n = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-30, 30),
                          rng.choice((1, 1, 2, 3, spec.p, spec.p ** 2)))
                 for _ in range(n)] for _ in range(n)]
        c0 = charpoly(mat_from_rationals(spec, rows), spec)[0]
        det = PadicScalar.from_fraction(spec, (-1) ** n * _fraction_det(rows))
        assert (c0 - det).is_zero
        certified += not c0.is_zero
    assert certified > 150


# ---- the p-adic solve against its two former forms ----

def _ref_solve_columns(A, B, spec):
    """Reference: the square solve on row-major A and B, as it was written."""
    n = len(A)
    k = len(B[0])
    aug = [list(A[i]) + list(B[i]) for i in range(n)]
    rows, pivots = row_echelon(aug)
    pivot_cols = [pc for _, pc in pivots if pc < n]
    if len(pivot_cols) != n:
        raise NonInvertible("matrix is singular to working precision",
                            witness={"rank": len(pivot_cols), "size": n})
    X = [[None] * k for _ in range(n)]
    for (pr, pc) in pivots:
        if pc < n:
            for j in range(k):
                X[pc][j] = rows[pr][n + j]
    return X


def _ref_coords_in_column_span(basis_cols, targets, spec):
    """Reference: the tall solve on column lists, as it was written."""
    n = len(basis_cols[0])
    r = len(basis_cols)
    k = len(targets)
    A = [[basis_cols[j][i] for j in range(r)] for i in range(n)]
    T = [[targets[j][i] for j in range(k)] for i in range(n)]
    aug = [A[i] + T[i] for i in range(n)]
    rows, pivots = row_echelon(aug)
    pivot_cols = [pc for _, pc in pivots if pc < r]
    if len(pivot_cols) != r:
        raise NonInvertible("columns are dependent to working precision",
                            witness={"rank": len(pivot_cols), "cols": r})
    X = [[None] * k for _ in range(r)]
    used_rows = set()
    for (pr, pc) in pivots:
        if pc < r:
            used_rows.add(pr)
            for j in range(k):
                X[pc][j] = rows[pr][r + j]
    for i in range(len(rows)):
        if i in used_rows:
            continue
        for j in range(k):
            resid = rows[i][r + j]
            if not resid.is_zero:
                raise InsufficientPrecision(
                    "target is outside the span to certified precision",
                    witness={"row": i, "col": j,
                             "residual_valuation": resid.v})
    return X


def _rows(cols):
    return [list(row) for row in zip(*cols)]


def _combination(rng, spec, cols):
    n = len(cols[0])
    out = [PadicScalar.zero(spec) for _ in range(n)]
    for col in cols:
        c = _rand_scalar(rng, spec, zero_share=0)
        out = [o + c * x for o, x in zip(out, col)]
    return out


def _solo(basis_cols, target, spec):
    """A former solve on one target: keys of its coordinates, None where
    it raised InsufficientPrecision, or the NonInvertible it raised."""
    try:
        if len(basis_cols) == len(target):
            X = _ref_solve_columns(_rows(basis_cols), _rows([target]), spec)
        else:
            X = _ref_coords_in_column_span(basis_cols, [target], spec)
    except InsufficientPrecision:
        return None
    except NonInvertible as exc:
        return (type(exc), str(exc), exc.witness)
    return [_key(row[0]) for row in X]


def _batch(basis_cols, targets):
    try:
        X = coords_in_column_span(basis_cols, targets)
    except IsolabError as exc:
        return (type(exc), str(exc), exc.witness)
    return [None if x is None else [_key(c) for c in x] for x in X]


SOLVE_SPECS = [FieldSpec(p, f, N) for p in (2, 3, 5, 7) for f in (1, 2, 3)
               for N in (2, 4, 8)]


def test_solve_matches_square_and_tall_references():
    # every target of a batch must answer as the former square or tall
    # solve did on that target alone, with None where that solve raised
    # InsufficientPrecision; its NonInvertible is the whole call's error
    rng = random.Random(29)
    seen = {}
    for _ in range(3000):
        spec = rng.choice(SOLVE_SPECS)
        n = rng.randint(1, 5)
        r = n if n == 1 or rng.random() < 0.5 else rng.randint(1, n - 1)
        cols = [[_rand_scalar(rng, spec, zero_share=1 / 3) for _ in range(n)]
                for _ in range(r)]
        if rng.random() < 0.2:
            # rank loss: a column lost to precision, or a combination
            cols[-1] = (_combination(rng, spec, cols[:-1]) if r > 1
                        else [PadicScalar.zero(spec, rng.randint(0, spec.N))
                              for _ in range(n)])
        targets = [_combination(rng, spec, cols) if rng.random() < 0.5 else
                   [_rand_scalar(rng, spec, zero_share=1 / 3)
                    for _ in range(n)]
                   for _ in range(rng.randint(1, 4))]
        want = [_solo(cols, t, spec) for t in targets]
        if isinstance(want[0], tuple):
            assert all(w == want[0] for w in want)
            want, kind = want[0], "NonInvertible"
        else:
            outside = want.count(None)
            kind = ("solved" if not outside else
                    "outside" if outside == len(want) else "mixed")
        assert _batch(cols, targets) == want
        kind = ("square" if r == n else "tall", kind)
        seen[kind] = seen.get(kind, 0) + 1
    # a square basis of full rank leaves no residual, so nothing is outside
    assert set(seen) == {("square", "solved"), ("square", "NonInvertible"),
                         ("tall", "solved"), ("tall", "outside"),
                         ("tall", "mixed"), ("tall", "NonInvertible")}
    assert min(seen.values()) >= 100, seen


# ---- the kernel and the solve against the full elimination ----

def _ref_row_echelon(M, pivot_cols=None):
    """Reference: the full elimination, which scales and updates every
    column at every step, as the kernel and the solve ran it before they
    left pivot columns out."""
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


def _ref_kernel_basis(M, expected_dim=None):
    if not M:
        return []
    n = len(M[0])
    rows, pivots = _ref_row_echelon(M)
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


def _ref_coords(basis_cols, targets):
    r = len(basis_cols)
    rows, pivots = _ref_row_echelon(
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


def _ref_mat_inverse(A, spec):
    X = _ref_coords(list(zip(*A)), mat_identity(spec, len(A)))
    return [list(row) for row in zip(*X)]


def _outcome(fn, *args):
    """Each entry's to_json() and stored (v, unit, rel), None for a target
    outside the span, or the error's class, message and witness."""
    try:
        vecs = fn(*args)
    except IsolabError as exc:
        return (type(exc), str(exc), exc.witness)
    return [None if vec is None else
            [(a.to_json(), _key(a)) for a in vec] for vec in vecs]


ECHELON_SPECS = [FieldSpec(p, f, N) for p in (2, 3, 5) for f in (1, 2, 3)
                 for N in (2, 4, 8)]


def _echelon_entry(rng, spec):
    """Exact zeros, O(p^b) zeros with b in -2..N+4, units not reduced mod
    p^rel, valuations -3..3."""
    r = rng.random()
    if r < 0.1:
        return PadicScalar.zero(spec)
    if r < 0.3:
        return PadicScalar.zero(spec, rng.randint(-2, spec.N + 4))
    unit = [rng.randrange(spec.pN) for _ in range(spec.f)]
    if all(c % spec.p == 0 for c in unit):
        unit[rng.randrange(spec.f)] += 1
    return PadicScalar(spec, rng.randint(-3, 3), tuple(unit),
                       rng.randint(1, spec.N))


def _echelon_matrix(rng, spec, m, n):
    """An m x n matrix; now and then one row or column is a combination
    of the others, so the rank drops, or lost to precision."""
    M = [[_echelon_entry(rng, spec) for _ in range(n)] for _ in range(m)]
    r = rng.random()
    if r < 0.25 and m > 1:
        M[-1] = _combination(rng, spec, M[:-1])
    elif r < 0.5 and n > 1:
        col = _combination(rng, spec, [list(c) for c in zip(*M)][:-1])
        for row, c in zip(M, col):
            row[-1] = c
    return M


def test_kernel_and_solve_match_full_elimination():
    rng = random.Random(41)
    seen = set()
    for _ in range(1500):
        spec = rng.choice(ECHELON_SPECS)
        shape = rng.choice(("square", "tall", "wide"))
        n = rng.randint(1, 5)
        m = (n if shape == "square" else n + rng.randint(1, 3)
             if shape == "tall" else rng.randint(1, n))
        M = _echelon_matrix(rng, spec, m, n)
        dim = rng.choice((None, 0, 1, n - min(m, n)))
        got = _outcome(kernel_basis, M, dim)
        assert got == _outcome(_ref_kernel_basis, M, dim)
        seen.add(("kernel", shape, "raised" if isinstance(got, tuple)
                  else "nonzero" if got else "zero"))
        # the columns of M as a basis, with targets inside and outside
        cols = [list(c) for c in zip(*M)]
        targets = [_combination(rng, spec, cols) if rng.random() < 0.5 else
                   [_echelon_entry(rng, spec) for _ in range(m)]
                   for _ in range(rng.randint(0, 3))]
        got = _outcome(coords_in_column_span, cols, targets)
        assert got == _outcome(_ref_coords, cols, targets)
        seen.add(("solve", shape, "raised" if isinstance(got, tuple)
                  else "outside" if None in got else "solved"))
        if shape == "square":
            got = _outcome(mat_inverse, M, spec)
            assert got == _outcome(_ref_mat_inverse, M, spec)
            seen.add(("inverse", "raised" if isinstance(got, tuple)
                      else "solved"))
        # span_basis returns whole echelon rows
        vecs = [row for row in M if not all(a.is_zero for a in row)]
        if vecs:
            rows, pivots = _ref_row_echelon(vecs)
            assert [[_key(a) for a in row] for row in span_basis(vecs)] == \
                [[_key(a) for a in rows[pr]] for pr, _ in pivots]
    assert {("kernel", s, k) for s in ("square", "tall", "wide")
            for k in ("raised", "nonzero", "zero")} <= seen
    assert {("solve", s, k) for s in ("square", "tall", "wide")
            for k in ("raised", "solved")} <= seen
    assert {("solve", "tall", "outside"), ("inverse", "raised"),
            ("inverse", "solved")} <= seen


def _count_products(monkeypatch):
    """Per elimination step, [scaling products, other products]: a step
    starts at its pivot's invert, and a scaling product multiplies by
    that inverse."""
    steps, invs = [], []
    invert, mul = PadicScalar.invert, PadicScalar.__mul__

    def counted_invert(a):
        invs.append(invert(a))
        steps.append([0, 0])
        return invs[-1]

    def counted_mul(a, b):
        steps[-1][0 if b is invs[-1] else 1] += 1
        return mul(a, b)

    monkeypatch.setattr(PadicScalar, "invert", counted_invert)
    monkeypatch.setattr(PadicScalar, "__mul__", counted_mul)
    return steps


@pytest.mark.parametrize("spec", [FieldSpec(5, 1, 12), FieldSpec(3, 2, 8)],
                         ids=["f1", "f2"])
def test_solve_leaves_pivot_columns_alone(spec, monkeypatch):
    # a dense n x n basis of full rank and t dense targets: every
    # multiplier is nonzero, so step k scales the n + t - k - 1 columns
    # right of its pivot and updates them in the n - 1 other rows
    rng = random.Random(43)
    n, t = 4, 3
    basis = [[PadicScalar.from_coeffs(spec, [rng.randrange(1, 1000)
                                              for _ in range(spec.f)])
              for _ in range(n)] for _ in range(n)]
    targets = [[PadicScalar.from_coeffs(spec, [rng.randrange(1, 1000)
                                                for _ in range(spec.f)])
                for _ in range(n)] for _ in range(t)]
    want = _outcome(_ref_coords, basis, targets)
    steps = _count_products(monkeypatch)
    got = coords_in_column_span(basis, targets)
    assert steps == [[n + t - k - 1, (n - 1) * (n + t - k - 1)]
                     for k in range(n)]
    monkeypatch.undo()
    assert [[(a.to_json(), _key(a)) for a in x] for x in got] == want
    # span_basis keeps whole rows: every step scales and updates all of them
    rows = [list(r) for r in zip(*basis, *targets)]
    steps = _count_products(monkeypatch)
    span_basis(rows)
    assert steps == [[n + t, (n - 1) * (n + t)] for _ in range(n)]


# ---- lattice saturation against the subtracting loop ----

def _ref_saturate_columns(cols):
    """Reference: saturate_columns with its update written col[s] - c piv[s]."""
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


def test_saturate_columns_matches_subtracting_loop():
    rng = random.Random(47)
    raised = answered = 0
    for _ in range(600):
        spec = rng.choice(ECHELON_SPECS)
        n = rng.randint(1, 5)
        cols = [list(c) for c in zip(*_echelon_matrix(
            rng, spec, n, rng.randint(1, n)))]
        got = _outcome(saturate_columns, cols)
        assert got == _outcome(_ref_saturate_columns, cols)
        raised += isinstance(got, tuple)
        answered += not isinstance(got, tuple)
    assert raised > 50 and answered > 300


# ---- exact rational helpers ----

def test_rat_rref_and_rank():
    M = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    R, piv = rat_rref([row[:] for row in M])
    assert rat_rank(M) == 1
    assert piv == [0]


def test_rat_solve_consistent_and_inconsistent():
    A = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)],
         [Fraction(2), Fraction(0)]]
    assert rat_solve(A, [[3], [1], [4]]) == [[Fraction(2)], [Fraction(1)]]
    assert rat_solve(A, [[3], [1], [5]]) is None
