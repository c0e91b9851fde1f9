import random
from fractions import Fraction

import pytest

from isolab import isocrystal
from isolab import (FieldSpec, Isocrystal, PadicScalar, internal_hom,
                    newton_slopes, slope_part, slope_split, standard_simple)
from isolab.errors import (FieldSpecMismatch, InsufficientPrecision,
                           InvariantViolated, MalformedInput, NonInvertible,
                           ResidueFieldTooSmall, SplitUnavailable)
from isolab.isocrystal import _hensel_split
from isolab.linalg import mat_from_rationals, mat_inverse, mat_mul, mat_sigma
from isolab.padic import poly_divmod

from reference import (iso, rat_charpoly, rat_val, ref_poly_at_matrix,
                       run_optimized)

QP = FieldSpec(5, 1, 16)


def test_unit_root_line():
    assert newton_slopes(iso([[1]])) == [(Fraction(0), 1)]


def test_inverse_p_line():
    assert newton_slopes(iso([["1/5"]])) == [(Fraction(-1), 1)]


def test_supersingular_pair():
    assert newton_slopes(iso([[0, "1/5"], [1, 0]])) == [(Fraction(-1, 2), 2)]


def test_noninvertible_rejected():
    with pytest.raises(NonInvertible):
        newton_slopes(iso([[1, 1], [1, 1]]))


def test_split_already_diagonal():
    blocks = slope_split(iso([[1, 0], [0, "1/5"]]))
    assert [(lam, sub.rank) for lam, _, sub in blocks] == \
        [(Fraction(-1), 1), (Fraction(0), 1)]


def test_split_triangular_mixing():
    M = iso([[1, 1], [0, "1/5"]])
    blocks = slope_split(M)
    assert [lam for lam, _, _ in blocks] == [Fraction(-1), Fraction(0)]
    # each block must be genuinely Phi-stable: F*sigma(basis) back in span
    spec = M.spec
    for lam, basis, sub in blocks:
        cols = [list(c) for c in basis]
        for c in cols:
            img = [sum((M.F[i][j] * c[j].sigma() for j in range(M.rank)),
                       start=PadicScalar.zero(spec)) for i in range(M.rank)]
            from isolab.linalg import coords_in_column_span
            assert coords_in_column_span(cols, [img])[0] is not None


def test_split_block_frobenius_is_the_restriction():
    # each block's matrix acts on its basis: M(b_j) = sum_i F_block[i][j] b_i
    M = iso([[0, "1/5", 0], [1, 0, 0], [0, 0, 1]])
    blocks = slope_split(M)
    assert [sub.rank for _, _, sub in blocks] == [2, 1]
    for _, basis, sub in blocks:
        PF = mat_mul([list(row) for row in zip(*basis)], sub.F)
        for j, img in enumerate(M.apply(basis)):
            assert all((x - row[j]).is_zero for x, row in zip(img, PF))


def test_split_isoclinic_single_block():
    blocks = slope_split(iso([[0, "1/5"], [1, 0]]))
    assert len(blocks) == 1
    lam, basis, sub = blocks[0]
    assert lam == Fraction(-1, 2) and sub.rank == 2


def test_single_slope_block_is_not_the_module():
    # the one block has its own rows: editing its F leaves M and the next
    # split unchanged
    M = iso([[0, "1/5"], [1, 0]])
    before = M.to_json()
    sub = slope_split(M)[0][2]
    assert sub is not M and sub.F is not M.F
    assert all(r is not s for r, s in zip(sub.F, M.F))
    assert sub.to_json() == before
    sub.F[0][0] = PadicScalar.from_int(M.spec, 1)
    sub.F.pop()
    assert M.to_json() == before
    assert slope_split(M)[0][2].to_json() == before


def test_fine_split_needs_residue_extension():
    # slope -1/2 with multiplicity 4 over f=1: would need f' = 2
    M = iso([[0, 0, 0, "1/25"], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(ResidueFieldTooSmall) as ei:
        slope_split(M, fine=True)
    assert ei.value.witness["required_degree"] == 2


def test_fine_split_uncertified_when_degree_divides():
    spec = FieldSpec(5, 2, 12)
    M = Isocrystal.from_rationals(
        spec, [[Fraction(c) for c in row] for row in
               [[0, 0, 0, Fraction(1, 25)], [1, 0, 0, 0],
                [0, 1, 0, 0], [0, 0, 1, 0]]])
    # no precision answers it, so it is not a precision shortfall
    with pytest.raises(SplitUnavailable) as ei:
        slope_split(M, fine=True)
    assert ei.value.witness == {"slope": "-1/2", "rank": 4}


def two_slopes(p, f):
    """Slopes -1/2 and 0 over Q_(p^f): f times -1/2 is integral iff f is
    even, so the split needs the twisted power squared (d = 2) iff f is
    odd."""
    return iso([[0, f"1/{p}", 0], [1, 0, 0], [0, 0, 1]], FieldSpec(p, f, 12))


@pytest.mark.parametrize("p, f, charpolys", [(3, 2, 1), (2, 3, 2)])
def test_split_computes_each_power_once(p, f, charpolys, monkeypatch):
    calls = []
    for name in ("twisted_power", "charpoly"):
        fn = getattr(isocrystal, name)
        monkeypatch.setattr(isocrystal, name, lambda *a, fn=fn, name=name:
                            calls.append(name) or fn(*a))
    blocks = slope_split(two_slopes(p, f))
    assert [(lam, sub.rank) for lam, _, sub in blocks] == [
        (Fraction(-1, 2), 2), (Fraction(0), 1)]
    assert calls.count("twisted_power") == 1
    assert calls.count("charpoly") == charpolys


def test_split_rejects_charpoly_outside_qp(monkeypatch):
    # the constant coefficient times the unit 1 + t keeps the polygon but
    # gains a t-component
    real = isocrystal.charpoly

    def charpoly(A, spec):
        coeffs = real(A, spec)
        return [coeffs[0] * PadicScalar.from_coeffs(spec, [1, 1])] + coeffs[1:]

    monkeypatch.setattr(isocrystal, "charpoly", charpoly)
    with pytest.raises(InvariantViolated, match="escaped Q_p"):
        slope_split(two_slopes(3, 2))


def test_split_rejects_power_with_another_polygon(monkeypatch):
    # at d = 2 a charpoly of the twisted power in place of its square
    # gives the unscaled slopes
    seen = []
    real = isocrystal.charpoly
    monkeypatch.setattr(isocrystal, "charpoly",
                        lambda A, spec: real(seen.append(A) or seen[0], spec))
    with pytest.raises(InvariantViolated, match="power trick"):
        slope_split(two_slopes(2, 3))
    assert len(seen) == 2


def test_hom_unit_roots():
    one = iso([[1]])
    assert newton_slopes(internal_hom(one, one)) == [(Fraction(0), 1)]


def test_hom_ordinary_square():
    Y = iso([[1, 0], [0, "1/5"]])
    H = internal_hom(Y, Y)
    assert newton_slopes(H) == [(Fraction(-1), 1), (Fraction(0), 2),
                                (Fraction(1), 1)]


def test_hom_slope_law_brute_force():
    diags = [[0], [-1], [0, -1], [-1, -1], [0, 0, -1]]
    for da in diags:
        for db in diags:
            Y = iso([[Fraction(5) ** a if i == j else 0
                      for j in range(len(da))]
                     for i, a in enumerate(da)])
            Z = iso([[Fraction(5) ** b if i == j else 0
                      for j in range(len(db))]
                     for i, b in enumerate(db)])
            want = sorted(Fraction(b - a) for a in da for b in db)
            got = [s for s, m in newton_slopes(internal_hom(Y, Z))
                   for _ in range(m)]
            assert got == want


def test_slope_part_negative_of_ordinary():
    part, cols = slope_part(iso([[1, 0], [0, "1/5"]]), "lt0")
    assert part.rank == 1
    assert newton_slopes(part) == [(Fraction(-1), 1)]
    assert len(cols) == 1


def test_slope_part_leq0_of_hom_square():
    Y = iso([[1, 0], [0, "1/5"]])
    part, _ = slope_part(internal_hom(Y, Y), "leq0")
    assert part.rank == 3


def test_slope_part_eq_absent_slope():
    part, cols = slope_part(iso([[1]]), ("eq", Fraction(-1, 2)))
    assert part.rank == 0 and cols == []


def test_sum_rule_random():
    rng = random.Random(29)
    for _ in range(8):
        n = rng.randrange(2, 4)
        rows = [[Fraction(rng.randrange(-9, 10),
                          rng.choice([1, 1, 5])) for _ in range(n)]
                for _ in range(n)]
        try:
            M = iso(rows)
            slopes = newton_slopes(M)
        except (NonInvertible, InsufficientPrecision):
            continue
        total = sum(s * m for s, m in slopes)
        # v(det F) from the exact rational charpoly: det F = (-1)^n c_0
        assert total == rat_val(rat_charpoly(rows)[0], 5)


def test_twist_shifts_slopes():
    M = iso([[1, 1], [0, "1/5"]])
    twisted = iso([[Fraction(1, 5), Fraction(1, 5)], [0, "1/25"]])
    base = newton_slopes(M)
    assert newton_slopes(twisted) == [(s - 1, m) for s, m in base]


def test_base_change_invariance():
    rng = random.Random(31)
    M = iso([[0, "1/5"], [1, 0]])
    base = newton_slopes(M)
    for _ in range(5):
        A = mat_from_rationals(
            QP, [[Fraction(rng.randrange(-3, 4)) for _ in range(2)]
                 for _ in range(2)])
        A[0][0] = A[0][0] + PadicScalar.from_int(QP, 1)
        try:
            Ainv = mat_inverse(A, QP)
        except (NonInvertible, InsufficientPrecision):
            continue
        conj = Isocrystal(QP, mat_mul(mat_mul(Ainv, M.F), mat_sigma(A)))
        assert newton_slopes(conj) == base


def test_standard_simple_slope():
    M = standard_simple(QP, -1, 2)
    assert newton_slopes(M) == [(Fraction(-1, 2), 2)]


@pytest.mark.parametrize("a, r, message", [
    (2.5, 2, "a and r must be integers"),
    (True, 2, "a and r must be integers"),
    (1, True, "a and r must be integers"),
    (1, "2", "a and r must be integers"),
    (None, 2, "a and r must be integers"),
    (1, 0, "rank r must be at least 1"),
    (1, -1, "rank r must be at least 1"),
], ids=["non-integral", "bool-a", "bool-r", "string-r", "none-a", "rank-0",
        "rank-negative"])
def test_standard_simple_reads_integers(a, r, message):
    # a = 2.5 used to give slope 0, a boolean was read as 1, r < 1 raised
    # IndexError and a string r TypeError
    with pytest.raises(MalformedInput) as exc:
        standard_simple(QP, a, r)
    assert str(exc.value) == message


@pytest.mark.parametrize("call, error, message", [
    (lambda: Isocrystal(QP, [[PadicScalar.from_int(QP, 1)] * 2]),
     MalformedInput, "frobenius matrix must be square"),
    (lambda: internal_hom(iso([[1]]), iso([[1]], FieldSpec(5, 1, 8))),
     FieldSpecMismatch, "operands over different rings"),
    (lambda: slope_part(iso([[1]]), "gt0"), MalformedInput,
     "unknown slope predicate"),
], ids=["non-square", "hom-over-two-rings", "slope-part-gt0"])
def test_module_operations_refuse_bad_arguments(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_standard_simple_reads_integral_numbers_as_integers():
    for a, r in ((-1.0, 2), (Fraction(-1), 2.0)):
        assert newton_slopes(standard_simple(QP, a, r)) == [
            (Fraction(-1, 2), 2)]


def test_json_round_trip():
    M = iso([[1, "1/5"], [0, 1]])
    N = Isocrystal.from_json(M.to_json())
    assert N.spec is M.spec
    assert all((a - b).is_zero
               for ra, rb in zip(M.F, N.F) for a, b in zip(ra, rb))


def _fp_gcd_degree(a, b, p):
    """Degree of gcd(a, b) over F_p, by plain Euclid (test reference)."""
    def trim(x):
        x = [c % p for c in x]
        while x and x[-1] == 0:
            x.pop()
        return x
    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv
            shift = len(a) - len(b)
            a = trim([x - c * (b[i - shift] if i >= shift else 0)
                      for i, x in enumerate(a)])
        a, b = b, a
    return len(a) - 1


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_hensel_split_lifts_coprime_factors():
    # Exact, by uniqueness: a coprime monic factorization mod p has one
    # monic lift mod p^M, and the checks below (monic, the degrees, the
    # residues mod p, g h = f mod p^M, reduced coefficients) pin it.  The
    # shapes span the slope peel's: deg h 1-4, deg g up to 15, deg f up to
    # 16, M at 1-3 and up to 64; half the cases take g0 = T^a as the peel
    # does.
    rng = random.Random(15)
    cases = 0
    while cases < 240:
        p = rng.choice([2, 3, 5, 7])
        M = rng.choice([1, 2, 3, rng.randint(4, 64)])
        w = rng.randint(1, 4)
        a = rng.randint(1, 16 - w)
        if cases % 2:
            g0 = [0] * a + [1]
            h0 = [rng.randrange(1, p)] + [rng.randrange(p)
                                          for _ in range(w - 1)] + [1]
        else:
            g0 = [rng.randrange(p) for _ in range(a)] + [1]
            h0 = [rng.randrange(p) for _ in range(w)] + [1]
        if _fp_gcd_degree(g0, h0, p) != 0:
            continue
        cases += 1
        pM = p ** M
        f = _int_poly_mul(g0, h0)
        f = [c + p * rng.randrange(pM) for c in f[:-1]] + [1]
        g, h = _hensel_split(f, g0, h0, p, M)
        assert (len(g), len(h)) == (a + 1, w + 1)
        assert g[-1] == h[-1] == 1
        assert all(0 <= c < pM for c in g + h)
        gh = _int_poly_mul(g, h)
        assert len(gh) == len(f)
        assert all((x - y) % pM == 0 for x, y in zip(gh, f))
        assert [c % p for c in g] == g0
        assert [c % p for c in h] == h0


def test_hensel_split_refuses_factors_that_miss_f_mod_p():
    # f = T^3 (T + 1)^2 mod 2, while g0 h0 = T^3 (T^2 + T + 1): without
    # the entry check the lift returned h = T^2 + 2T + 1, which does not
    # reduce to h0
    with pytest.raises(InvariantViolated, match="do not multiply to f"):
        _hensel_split([0, 0, 0, 1, 2, 1], [0, 0, 0, 1], [1, 1, 1], 2, 2)
    with pytest.raises(InvariantViolated, match="do not multiply to f"):
        _hensel_split([1, 1, 1], [1, 1], [0, 1], 3, 1)


def test_hensel_split_guards_hold_under_optimize():
    # neither guard may be an assert, which -O strips
    snippet = ("from isolab.isocrystal import _hensel_split\n"
               "from isolab.errors import InvariantViolated\n"
               "for args in (([1, 0, 1], [1, 1], [1, 1], 2, 3),\n"
               "             ([0, 0, 0, 1, 2, 1], [0, 0, 0, 1], [1, 1, 1],"
               " 2, 2)):\n"
               "    try:\n"
               "        _hensel_split(*args)\n"
               "    except InvariantViolated as exc:\n"
               "        print(exc)\n")
    assert run_optimized(snippet) == ("inputs were not coprime\n"
                                      "factors do not multiply to f mod p\n")


def test_divmod_rejects_non_monic_divisor():
    with pytest.raises(InvariantViolated):
        poly_divmod([1, 2, 3], [1, 2], 25)


def test_divmod_rejects_non_monic_divisor_under_optimize():
    # the guard must not be an assert, which -O strips
    snippet = ("from isolab.padic import poly_divmod\n"
               "from isolab.errors import InvariantViolated\n"
               "try:\n"
               "    poly_divmod([1, 2, 3], [1, 2], 25)\n"
               "except InvariantViolated:\n"
               "    print('rejected')\n")
    assert run_optimized(snippet) == "rejected\n"


# --------------------------------------------------------------------------
# Horner: the first step is built entry by entry, as mat_mul would build it
# --------------------------------------------------------------------------

def _draw_scalar(rng, spec):
    """An exact zero, an O(p^b) zero with b on either side of N, or a
    nonzero scalar with a valuation from -3 to 3 and any precision."""
    kind = rng.randrange(6)
    if kind == 0:
        return PadicScalar.zero(spec)
    if kind == 1:
        return PadicScalar.zero(spec, rng.randint(-2, spec.N + 4))
    v = rng.randint(-3, 3)
    rel = spec.N if kind < 4 else rng.randint(1, spec.N)
    unit = [rng.randrange(spec.pN) for _ in range(spec.f)]
    if unit[0] % spec.p == 0:
        unit[0] += 1
    return PadicScalar.from_raw(spec, tuple(unit), v, v + rel)


def _draw_lead(rng, spec):
    kind = rng.randrange(4)
    if kind == 0:
        return PadicScalar.from_int(spec, 1)
    if kind == 1:  # 1 + O(p^M) with M < N, as _untransform builds it
        M = rng.randint(1, spec.N - 1)
        return PadicScalar.from_raw(spec, (1,) + (0,) * (spec.f - 1), 0, M)
    return _draw_scalar(rng, spec)


def _entries(X):
    return [[(a.to_json(), a.v, a.unit, a.rel) for a in row] for row in X]


@pytest.mark.parametrize("f", [1, 2, 3])
def test_poly_at_matrix_matches_horner_from_the_identity(f):
    rng = random.Random(100 + f)
    for _ in range(60):
        spec = FieldSpec(rng.choice([2, 3, 5]), f, rng.randint(2, 8))
        n = rng.randint(0, 6)
        A = [[_draw_scalar(rng, spec) for _ in range(n)] for _ in range(n)]
        deg = rng.randint(0, 4)
        coeffs = [_draw_scalar(rng, spec) for _ in range(deg)]
        coeffs.append(_draw_lead(rng, spec))
        assert _entries(isocrystal._poly_at_matrix(coeffs, A, spec)) == \
            _entries(ref_poly_at_matrix(coeffs, A, spec))


def test_poly_at_matrix_first_step_counts_the_identity_zeros():
    # A[0][0] = 1 is exact, but the identity's zero O(p^N) meets
    # A[1][0] = p^-3 in the first product, so (lead A)[0][0] keeps only
    # N - 3 digits
    spec = FieldSpec(5, 1, 6)
    A = mat_from_rationals(spec, [[1, 0], [Fraction(1, 125), 1]])
    one = PadicScalar.from_int(spec, 1)
    out = isocrystal._poly_at_matrix([PadicScalar.zero(spec), one], A, spec)
    assert out[0][0].rel == 3
    assert _entries(out) == _entries(ref_poly_at_matrix(
        [PadicScalar.zero(spec), one], A, spec))


# --------------------------------------------------------------------------
# slope_part builds the kept blocks of slope_split and nothing else
# --------------------------------------------------------------------------

PREDICATES = {"leq0": lambda lam: lam <= 0, "lt0": lambda lam: lam < 0}


def _adjoint(p, nu):
    from isolab import RootDatumWithCochar
    from isolab.roots import adjoint_isocrystal
    n = len(nu)
    b = [[Fraction(p) ** -nu[i] if i == j else Fraction(0)
          for j in range(n)] for i in range(n)]
    return adjoint_isocrystal(RootDatumWithCochar("GL", n, nu), b,
                              FieldSpec(p, 1, 48))


def _seeded_modules():
    rng = random.Random(18)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randrange(-9, 10), rng.choice([1, 1, p]))
                 * rng.choice([1, p]) for _ in range(n)] for _ in range(n)]
        yield iso(rows, FieldSpec(p, rng.choice([1, 1, 2]), 10))
    # the adjoint cross-check data of the slopes benchmark, each shift
    for p, nu in [(2, (0, -1, -2)), (3, (0, 0, -1)), (5, (0, -1, -1)),
                  (3, (0, -1, -1, -2))]:
        for c in range(3):
            yield _adjoint(p, [v - c for v in nu])


def test_slope_part_is_the_kept_blocks_of_slope_split():
    answered = polygons = 0
    for M in _seeded_modules():
        try:
            blocks = slope_split(M)
        except (NonInvertible, InsufficientPrecision):
            continue
        answered += 1
        slopes = sorted({lam for lam, _, _ in blocks})
        preds = dict(PREDICATES)
        preds[("eq", slopes[-1])] = lambda lam, t=slopes[-1]: lam == t
        for which, keep in preds.items():
            kept = [(lam, basis, sub) for lam, basis, sub in blocks
                    if keep(lam)]
            part, cols = slope_part(M, which)
            assert [[a.to_json() for a in c] for c in cols] == \
                [[a.to_json() for a in c] for _, basis, _ in kept
                 for c in basis]
            want = [[a.to_json() for a in row]
                    for row in _block_diagonal(M.spec, kept)]
            assert part.to_json()["frobenius"] == want
            if not part.rank:
                continue
            try:  # a block's F can hold too few digits for its own polygon
                got = newton_slopes(part)
            except (NonInvertible, InsufficientPrecision):
                continue
            assert got == [(lam, sub.rank) for lam, _, sub in kept]
            polygons += 1
    assert answered >= 45 and polygons >= 100


def _block_diagonal(spec, blocks):
    total = sum(sub.rank for _, _, sub in blocks)
    F = [[PadicScalar.zero(spec)] * total for _ in range(total)]
    off = 0
    for _, _, sub in blocks:
        for i, row in enumerate(sub.F):
            F[off + i][off:off + sub.rank] = row
        off += sub.rank
    return F


@pytest.mark.parametrize("which", ["lt0", "leq0"])
def test_slope_part_builds_only_the_kept_blocks(which, monkeypatch):
    M = _adjoint(3, (0, -1, -1, -2))
    kept = [lam for lam, _ in newton_slopes(M) if PREDICATES[which](lam)]
    assert 0 < len(kept) < len(newton_slopes(M))
    calls = []
    for name in ("_poly_at_matrix", "kernel_basis", "_hensel_split"):
        fn = getattr(isocrystal, name)
        monkeypatch.setattr(isocrystal, name, lambda *a, fn=fn, name=name,
                            **k: calls.append(name) or fn(*a, **k))
    slope_part(M, which)
    assert calls.count("_poly_at_matrix") == len(kept)
    assert calls.count("kernel_basis") == len(kept)
    # the kept slopes are the lowest ones: one peel each, none above them
    assert calls.count("_hensel_split") == {"lt0": 2, "leq0": 3}[which]


def test_slope_part_answers_when_only_a_rejected_block_fails():
    # slopes 0 and 1: the slope-1 block's kernel is not certified at N = 3
    M = iso([[-3, -15], [-9, 1]], FieldSpec(3, 1, 3))
    with pytest.raises(InsufficientPrecision) as ei:
        slope_split(M)
    assert ei.value.witness == {"expected": 1, "found": 0}
    part, cols = slope_part(M, "leq0")
    assert part.rank == 1 and len(cols) == 1


def test_slope_part_still_raises_when_a_kept_block_fails():
    # slopes -1 and 0: the slope-0 block's kernel is not certified at N = 3
    M = iso([[1, -6], [7, "1/3"]], FieldSpec(3, 1, 3))
    part, _ = slope_part(M, "lt0")
    assert part.rank == 1
    assert newton_slopes(part) == [(Fraction(-1), 1)]
    with pytest.raises(InsufficientPrecision) as ei:
        slope_part(M, "leq0")
    assert ei.value.witness == {"expected": 1, "found": 0}


def test_split_block_polygon_is_not_certified_pinned():
    # A known defect, open in ROADMAP.md.  slope_split certifies the
    # blocks (slope -1 of rank 1, slope 0 of rank 2), but the slope-0
    # block's F has entries of valuation -4 known to 3 absolute digits,
    # and charpoly integralizes the whole block at one working precision:
    # its constant coefficient comes back O(p^-1), which newton_slopes
    # reports as NonInvertible, a lost precision read as a fact.  This
    # pins today's outcome; per-entry precision in charpoly should flip it
    # to [(Fraction(0), 2)].
    M = iso([[5, -8, -8], [-12, -5, -6], [-27, 3, "5/3"]], FieldSpec(3, 1, 10))
    blocks = slope_split(M)
    assert [(lam, sub.rank) for lam, _, sub in blocks] == \
        [(Fraction(-1), 1), (Fraction(0), 2)]
    assert newton_slopes(blocks[0][2]) == [(Fraction(-1), 1)]
    with pytest.raises(NonInvertible) as ei:
        newton_slopes(blocks[1][2])
    assert ei.value.witness == {"bound": -1}
