import random
from fractions import Fraction

import pytest

from isolab import FieldSpec, PadicScalar
from isolab.dieudonne import span_basis
from isolab.errors import (FieldSpecMismatch, InsufficientPrecision,
                           IsolabError)
from isolab.linalg import (charpoly, coords_in_column_span, kernel_basis,
                           lower_hull, mat_from_rationals, mat_identity,
                           mat_inverse, mat_mul, mat_vec,
                           newton_root_valuations, rat_rank, rat_rref,
                           rat_solve, saturate_columns, twisted_power)

from reference import (key, rand_scalar, rat_charpoly, ref_charpoly,
                       ref_coords, ref_kernel_basis, ref_mat_inverse,
                       ref_mat_mul, ref_row_echelon, ref_saturate_columns)

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


def test_newton_root_valuations_refuses_a_bound_below_the_hull():
    # T^2 + O(1) T + 25: the certified hull runs from (0, 2) to (2, 0), and
    # the middle coefficient's bound 0 lies below its height 1 there, so
    # the polygon is not certified
    coeffs = [PadicScalar.from_int(Z5, 25), PadicScalar.zero(Z5, 0),
              PadicScalar.from_int(Z5, 1)]
    with pytest.raises(InsufficientPrecision) as exc:
        newton_root_valuations(coeffs)
    assert str(exc.value) == ("interior coefficient bound dips below the "
                              "certified hull")
    assert exc.value.witness == {"index": 1, "bound": 0, "needed": "1"}
    coeffs[1] = PadicScalar.zero(Z5, 1)  # on the hull: it answers
    assert newton_root_valuations(coeffs) == [(Fraction(1), 2)]


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
    assert [key(c) for c in coords] == [key(PadicScalar.from_int(Z5, 1))]


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

def _rand_pair(rng, spec):
    m, k, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
    A = [[rand_scalar(rng, spec) for _ in range(k)] for _ in range(m)]
    B = [[rand_scalar(rng, spec) for _ in range(n)] for _ in range(k)]
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
        got, want = mat_mul(A, B), ref_mat_mul(A, B)
        assert [[key(a) for a in r] for r in got] == \
            [[key(a) for a in r] for r in want]
        col = [row[0] for row in B]
        assert [key(a) for a in mat_vec(A, col)] == \
            [key(r[0]) for r in ref_mat_mul(A, [[c] for c in col])]
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
    assert [[key(a) for a in r] for r in got] == \
        [[key(a) for a in r] for r in ref_mat_mul(A, B)]
    assert mat_mul([], B) == []
    with pytest.raises(IndexError):
        mat_mul(A, [])


@pytest.mark.parametrize("f", [1, 2, 3])
def test_mat_mul_carry_edge_matches_fold(f):
    # every integralized coefficient is p^W - 1, the largest value a packed
    # slot holds, so each slot of a k-term dot product is at its largest:
    # at v = 0, W = N; at v = -1, the shift is -2 and W = N again
    for p in (2, 3, 5, 7):
        for N in (1, 3, 6, 12):
            spec = FieldSpec(p, f, N)
            for v in (0, -1):
                a = PadicScalar.from_coeffs(spec, [spec.pN - 1] * f, v)
                for k in range(9):
                    A, B = [[a] * k for _ in range(2)], [[a] * 3] * k
                    if k == 0:
                        # no row of B: there is no column count to read
                        for product in (mat_mul, ref_mat_mul):
                            with pytest.raises(IndexError):
                                product(A, B)
                        continue
                    assert [[key(c) for c in r] for r in mat_mul(A, B)] == \
                        [[key(c) for c in r] for r in ref_mat_mul(A, B)]


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

CHARPOLY_SPECS = [FieldSpec(p, f, N) for p in (2, 3, 5, 7) for f in (1, 2, 3)
                  for N in (1, 3, 6, 12)]


def test_charpoly_matches_reference():
    rng = random.Random(13)
    raised = certified = 0
    for _ in range(3000):
        spec = rng.choice(CHARPOLY_SPECS)
        n = rng.randint(0, 7)
        A = [[rand_scalar(rng, spec) for _ in range(n)] for _ in range(n)]
        try:
            want = ref_charpoly(A, spec)
        except IsolabError as exc:
            with pytest.raises(IsolabError) as got:
                charpoly(A, spec)
            assert type(got.value) is type(exc)
            assert got.value.witness == exc.witness
            raised += 1
            continue
        assert [key(c) for c in charpoly(A, spec)] == [key(c) for c in want]
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
                    assert [key(c) for c in charpoly(A, spec)] == \
                        [key(c) for c in ref_charpoly(A, spec)]


def test_charpoly_constant_term_is_exact_determinant():
    # c_0 = det(-A) = (-1)^n det(A), the exact rational one to its
    # certified precision
    rng = random.Random(17)
    certified = 0
    for _ in range(300):
        spec = rng.choice(CHARPOLY_SPECS)
        n = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-30, 30),
                          rng.choice((1, 1, 2, 3, spec.p, spec.p ** 2)))
                 for _ in range(n)] for _ in range(n)]
        c0 = charpoly(mat_from_rationals(spec, rows), spec)[0]
        exact = PadicScalar.from_fraction(spec, rat_charpoly(rows)[0])
        assert (c0 - exact).is_zero
        certified += not c0.is_zero
    assert certified > 150


# ---- the batched p-adic solve against one target at a time ----

def _combination(rng, spec, cols):
    n = len(cols[0])
    out = [PadicScalar.zero(spec) for _ in range(n)]
    for col in cols:
        c = rand_scalar(rng, spec, zero_share=0)
        out = [o + c * x for o, x in zip(out, col)]
    return out


SOLVE_SPECS = [FieldSpec(p, f, N) for p in (2, 3, 5, 7) for f in (1, 2, 3)
               for N in (2, 4, 8)]


def test_solve_matches_square_and_tall_references():
    # every target of a batch must answer as ref_coords does on that
    # target alone, square basis or tall, with None outside the span; its
    # NonInvertible is the whole call's error
    rng = random.Random(29)
    seen = {}
    for _ in range(3000):
        spec = rng.choice(SOLVE_SPECS)
        n = rng.randint(1, 5)
        r = n if n == 1 or rng.random() < 0.5 else rng.randint(1, n - 1)
        cols = [[rand_scalar(rng, spec, zero_share=1 / 3) for _ in range(n)]
                for _ in range(r)]
        if rng.random() < 0.2:
            # rank loss: a column lost to precision, or a combination
            cols[-1] = (_combination(rng, spec, cols[:-1]) if r > 1
                        else [PadicScalar.zero(spec, rng.randint(0, spec.N))
                              for _ in range(n)])
        targets = [_combination(rng, spec, cols) if rng.random() < 0.5 else
                   [rand_scalar(rng, spec, zero_share=1 / 3)
                    for _ in range(n)]
                   for _ in range(rng.randint(1, 4))]
        want = [_outcome(ref_coords, cols, [t]) for t in targets]
        if isinstance(want[0], tuple):
            assert all(w == want[0] for w in want)
            want, kind = want[0], "NonInvertible"
        else:
            want = [w[0] for w in want]
            outside = want.count(None)
            kind = ("solved" if not outside else
                    "outside" if outside == len(want) else "mixed")
        assert _outcome(coords_in_column_span, cols, targets) == want
        kind = ("square" if r == n else "tall", kind)
        seen[kind] = seen.get(kind, 0) + 1
    # a square basis of full rank leaves no residual, so nothing is outside
    assert set(seen) == {("square", "solved"), ("square", "NonInvertible"),
                         ("tall", "solved"), ("tall", "outside"),
                         ("tall", "mixed"), ("tall", "NonInvertible")}
    assert min(seen.values()) >= 100, seen


# ---- the kernel and the solve against the full elimination ----

def _outcome(fn, *args):
    """Each entry's to_json() and stored (v, unit, rel), None for a target
    outside the span, or the error's class, message and witness."""
    try:
        vecs = fn(*args)
    except IsolabError as exc:
        return (type(exc), str(exc), exc.witness)
    return [None if vec is None else
            [(a.to_json(), key(a)) for a in vec] for vec in vecs]


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
        assert got == _outcome(ref_kernel_basis, M, dim)
        seen.add(("kernel", shape, "raised" if isinstance(got, tuple)
                  else "nonzero" if got else "zero"))
        # the columns of M as a basis, with targets inside and outside
        cols = [list(c) for c in zip(*M)]
        targets = [_combination(rng, spec, cols) if rng.random() < 0.5 else
                   [_echelon_entry(rng, spec) for _ in range(m)]
                   for _ in range(rng.randint(0, 3))]
        got = _outcome(coords_in_column_span, cols, targets)
        assert got == _outcome(ref_coords, cols, targets)
        seen.add(("solve", shape, "raised" if isinstance(got, tuple)
                  else "outside" if None in got else "solved"))
        if shape == "square":
            got = _outcome(mat_inverse, M, spec)
            assert got == _outcome(ref_mat_inverse, M, spec)
            seen.add(("inverse", "raised" if isinstance(got, tuple)
                      else "solved"))
        # span_basis returns whole echelon rows
        vecs = [row for row in M if not all(a.is_zero for a in row)]
        if vecs:
            rows, pivots = ref_row_echelon(vecs)
            assert [[key(a) for a in row] for row in span_basis(vecs)] == \
                [[key(a) for a in rows[pr]] for pr, _ in pivots]
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
    want = _outcome(ref_coords, basis, targets)
    steps = _count_products(monkeypatch)
    got = coords_in_column_span(basis, targets)
    assert steps == [[n + t - k - 1, (n - 1) * (n + t - k - 1)]
                     for k in range(n)]
    monkeypatch.undo()
    assert [[(a.to_json(), key(a)) for a in x] for x in got] == want
    # span_basis keeps whole rows: every step scales and updates all of them
    rows = [list(r) for r in zip(*basis, *targets)]
    steps = _count_products(monkeypatch)
    span_basis(rows)
    assert steps == [[n + t, (n - 1) * (n + t)] for _ in range(n)]


# ---- lattice saturation against the subtracting loop ----

def test_saturate_columns_matches_subtracting_loop():
    rng = random.Random(47)
    raised = answered = 0
    for _ in range(600):
        spec = rng.choice(ECHELON_SPECS)
        n = rng.randint(1, 5)
        cols = [list(c) for c in zip(*_echelon_matrix(
            rng, spec, n, rng.randint(1, n)))]
        got = _outcome(saturate_columns, cols)
        assert got == _outcome(ref_saturate_columns, cols)
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
