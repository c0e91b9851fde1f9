import copy
import random
from fractions import Fraction

import pytest

from isolab import dieudonne, isocrystal
from isolab import (DieudonneLie, FieldSpec, Isocrystal, PadicScalar,
                    aut_lie_algebra, dla_validate, lower_central_series,
                    minimal_slope_center_check, pdiv_dimension,
                    smallest_f_stable_subalgebra)
from isolab.dieudonne import in_span, lattice_intersect_subspace, span_basis
from isolab.errors import (InsufficientPrecision, InvariantViolated,
                           IsolabError, MalformedInput, NonInvertible,
                           NotNilpotent, SlopeNotStrictlyNegative,
                           SlopeOutOfRange)
from isolab.linalg import coords_in_column_span, mat_inverse, mat_vec

from memo_contract import (CONTRACT, check_replays_a_fresh_error,
                           check_returns_a_copy,
                           check_stores_only_library_errors)
from reference import (ALGEBRA_MEMO, EYE3, answer_key, build, heis_bracket,
                       heisenberg, key, rand_scalar, ref_bracket_laws,
                       ref_bracket_vec, ref_in_span, run_optimized, vec,
                       zero_bracket)

SPEC = FieldSpec(5, 1, 16)
F = Fraction


def test_validate_abelian():
    a = build([[F(1), 0], [0, F(1, 5)]], zero_bracket(2))
    rep = dla_validate(a)
    assert rep["antisymmetry"] and rep["jacobi"] and rep["f_equivariance"]


def test_validate_heisenberg():
    rep = dla_validate(heisenberg(lattice=EYE3))
    assert all(rep[k] for k in ("antisymmetry", "jacobi", "f_equivariance",
                                "lattice_dieudonne",
                                "lattice_bracket_closure"))


def test_validate_lattice_failures_and_first_witness():
    # [e0, e1] = [e0, e2] = e3 with phi = diag(1/25, 1, 1, 1/25); the
    # lattice <e0, e1, e2, 5 e3> misses both brackets, and phi widens it
    # by 1/25 on e0 and e3
    c = zero_bracket(4)
    for j in (1, 2):
        c[0][j][3], c[j][0][3] = F(1), F(-1)
    frob = [[F(1, 25), 0, 0, 0], [0, F(1), 0, 0], [0, 0, F(1), 0],
            [0, 0, 0, F(1, 25)]]
    lattice = [[F(1), 0, 0, 0], [0, F(1), 0, 0], [0, 0, F(1), 0],
               [0, 0, 0, F(5)]]
    rep = dla_validate(build(frob, c, lattice))
    assert rep["antisymmetry"] and rep["jacobi"] and rep["f_equivariance"]
    assert rep["lattice_dieudonne"] is False
    assert rep["witnesses"]["lattice_dieudonne"] == ("phi_image_exceeds", 0)
    assert rep["lattice_bracket_closure"] is False
    assert rep["witnesses"]["lattice_bracket_closure"] == (0, 1)


def test_validate_lattice_witness_names_the_column():
    # phi e1 = e1 + e0/25: only the image of lattice column 1 exceeds
    rep = dla_validate(build([[F(1), F(1, 25)], [0, F(1)]], zero_bracket(2),
                             [[F(1), 0], [F(0), 1]]))
    assert rep["lattice_dieudonne"] is False
    assert rep["witnesses"]["lattice_dieudonne"] == ("phi_image_exceeds", 1)


def test_validate_broken_equivariance_witness():
    # phi e2 = e2 breaks [phi e0, phi e1] = phi e2
    frob = [[F(1, 5), 0, 0], [0, F(1), 0], [0, 0, F(1)]]
    rep = dla_validate(build(frob, heis_bracket()))
    assert not rep["f_equivariance"]
    assert rep["witnesses"]["f_equivariance"] == (0, 1)


def test_validate_antisymmetry_failure():
    c = zero_bracket(2)
    c[0][1][0] = F(1)  # c[1][0][0] left at 0
    rep = dla_validate(build([[F(1), 0], [0, F(1)]], c))
    assert not rep["antisymmetry"]


def test_lcs_abelian():
    a = build([[F(1), 0, 0], [0, F(1), 0], [0, 0, F(1)]], zero_bracket(3))
    chain, n = lower_central_series(a)
    assert n == 1
    assert [len(term) for term in chain] == [3, 0]


def test_lcs_heisenberg():
    chain, n = lower_central_series(heisenberg())
    assert n == 2
    assert [len(term) for term in chain] == [3, 1, 0]
    # the middle term is the line through e2
    v = chain[1][0]
    assert v[0].is_zero and v[1].is_zero and not v[2].is_zero


def test_lcs_strictly_upper_4x4():
    """gl_4 strictly upper triangular: class 3."""
    pos = [(i, j) for i in range(4) for j in range(4) if i < j]
    idx = {ij: k for k, ij in enumerate(pos)}
    n = len(pos)
    c = zero_bracket(n)
    for a_, (i, j) in enumerate(pos):
        for b_, (k, l) in enumerate(pos):
            # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
            if j == k:
                c[a_][b_][idx[(i, l)]] += F(1)
            if l == i:
                c[a_][b_][idx[(k, j)]] -= F(1)
    frob = [[F(1) if r == s else F(0) for s in range(n)] for r in range(n)]
    alg = build(frob, c)
    _, cls = lower_central_series(alg)
    assert cls == 3


def sl2():
    """sl_2: [h,e]=2e, [h,f]=-2f, [e,f]=h on basis (e, f, h)."""
    c = zero_bracket(3)
    c[0][1][2], c[1][0][2] = F(1), F(-1)
    c[2][0][0], c[0][2][0] = F(2), F(-2)
    c[2][1][1], c[1][2][1] = F(-2), F(2)
    return build([[F(1), 0, 0], [0, F(1), 0], [0, 0, F(1)]], c)


def test_lcs_not_nilpotent():
    with pytest.raises(NotNilpotent):
        lower_central_series(sl2())


def test_lcs_failure_is_replayed_as_a_fresh_error(monkeypatch):
    check_replays_a_fresh_error("_series", monkeypatch)


def test_lcs_stores_only_library_errors(monkeypatch):
    check_stores_only_library_errors("_series", monkeypatch)


def test_lcs_returns_a_copy(monkeypatch):
    check_returns_a_copy("_series", monkeypatch)


# ---- the memo slots: one contract for all four ----

@pytest.mark.parametrize("slot", list(ALGEBRA_MEMO))
def test_memo_contract(slot, monkeypatch):
    for check in CONTRACT:
        with monkeypatch.context() as patch:
            check(slot, patch)


def test_pdiv_dimension_values():
    assert pdiv_dimension([(F(0), 1)]) == 0
    assert pdiv_dimension([(F(-1), 1)]) == 1
    assert pdiv_dimension([(F(-1, 2), 2)]) == 1
    # an integral float or Fraction multiplicity counts as its int, and a
    # slope may be anything Fraction() reads
    assert pdiv_dimension([("-1/2", 2.0), (-1, F(3)), (F(-1), 0)]) == 4
    with pytest.raises(SlopeOutOfRange):
        pdiv_dimension([(F(-2), 1)])
    assert pdiv_dimension([(F(-2), 1)], check_range=False) == 2


@pytest.mark.parametrize("lam, mult", [
    (None, 1), ("x", 1), ("1/0", 1), (float("inf"), 1), (True, 1),
    (F(-1), 1.5), (F(-1), True), (F(-1, 2), -2), (F(-1), "1"),
], ids=["slope-none", "slope-text", "slope-zero-denominator", "slope-inf",
        "slope-bool", "mult-non-integral", "mult-bool", "mult-negative",
        "mult-text"])
def test_pdiv_dimension_refuses_malformed_pairs(lam, mult):
    with pytest.raises(MalformedInput, match="slope pair") as exc:
        pdiv_dimension([(F(-1, 2), 2), (lam, mult)], check_range=False)
    assert exc.value.witness == {"slope": str(lam), "multiplicity": str(mult)}


ITERATOR = iter([(F(-1), 1)])


@pytest.mark.parametrize("slopes, witness", [
    ([1], {"entry": "1"}), (5, {"slopes": "5"}), (None, {"slopes": "None"}),
    ([(1, 2, 3)], {"entry": "(1, 2, 3)"}),
    ([("-1/2",)], {"entry": "('-1/2',)"}),
    ([(F(-1), 1), [F(-1)]], {"entry": "[Fraction(-1, 1)]"}),
    # not a sequence by padic._sequence's rule: an iterator used to be read
    # as its pairs, a mapping as its keys and a string as its characters
    (ITERATOR, {"slopes": str(ITERATOR)}),
    ({F(-1): 1}, {"slopes": "{Fraction(-1, 1): 1}"}),
    ("-1", {"slopes": "-1"}),
], ids=["int-entry", "int", "none", "triple", "single", "second-entry",
        "iterator", "mapping", "string"])
def test_pdiv_dimension_refuses_non_pairs(slopes, witness):
    with pytest.raises(MalformedInput, match="slope pair") as exc:
        pdiv_dimension(slopes)
    assert exc.value.witness == witness


def test_pdiv_dimension_additive():
    a = [(F(-1, 2), 2)]
    b = [(F(-1), 3)]
    assert pdiv_dimension(a + b) == pdiv_dimension(a) + pdiv_dimension(b)


def test_center_check_rejects_zero_slope():
    with pytest.raises(SlopeNotStrictlyNegative):
        minimal_slope_center_check(heisenberg())


def test_center_check_supersingular_block():
    # e0,e1 span a slope -1/2 block, e2 has slope -1, [e0,e1] = e2.
    # phi e0 = e1, phi e1 = -e0/p: the sign makes the bracket equivariant
    # ([phi e0, phi e1] = (1/p)[e1,-e0] = e2/p = phi e2).
    frob = [[F(0), F(-1, 5), 0], [F(1), 0, 0], [0, 0, F(1, 5)]]
    a = build(frob, heis_bracket())
    assert dla_validate(a)["f_equivariance"]
    ok, wit = minimal_slope_center_check(a)
    assert ok and wit is None


def test_center_check_abelian_minus_one():
    a = build([[F(1, 5), 0], [0, F(1, 5)]], zero_bracket(2))
    ok, _ = minimal_slope_center_check(a)
    assert ok


def rank_zero():
    return DieudonneLie.from_rationals(FieldSpec(5, 1, 8), [], [])


def test_center_check_rank_zero():
    # no slope and an empty minimal-slope part: central, vacuously
    assert minimal_slope_center_check(rank_zero()) == (True, None)


@pytest.mark.parametrize("mode", ["derivation", "literal"])
def test_aut_rank_zero(mode):
    # the zero map alone
    assert aut_lie_algebra(rank_zero(), mode=mode) == {
        "dimension": 0, "basis": [], "mode": mode,
        "quadratic_term_dropped": mode == "literal"}


def test_aut_refuses_an_unknown_mode():
    with pytest.raises(MalformedInput, match="unknown mode") as exc:
        aut_lie_algebra(heisenberg(), mode="quadratic")
    assert exc.value.witness == "quadratic"


def test_aut_abelian_unit_root_dimension_4():
    a = build([[F(1), 0], [0, F(1)]], zero_bracket(2))
    rep = aut_lie_algebra(a, mode="derivation")
    assert rep["dimension"] == 4
    assert not rep["quadratic_term_dropped"]


def test_aut_heisenberg_contains_grading_derivation():
    a = heisenberg()
    rep = aut_lie_algebra(a, mode="derivation")
    assert rep["dimension"] >= 1
    # the grading derivation diag(1, 1, 2) solves both conditions; check
    # it lies in the returned span by solving over the basis
    target = [[F(1), 0, 0], [0, F(1), 0], [0, 0, F(2)]]
    tvec = [PadicScalar.from_fraction(SPEC, target[i][j])
            for i in range(3) for j in range(3)]
    cols = [[g[i][j] for i in range(3) for j in range(3)]
            for g in rep["basis"]]
    assert coords_in_column_span(cols, [tvec])[0] is not None


def test_aut_literal_mode_flagged():
    a = heisenberg()
    rep = aut_lie_algebra(a, mode="literal")
    assert rep["quadratic_term_dropped"]
    # g = 0 is in every solution space (trivially, as the empty combo)
    assert rep["dimension"] >= 0


def test_smallest_f_stable_center():
    a = heisenberg()
    z = vec(SPEC, 0, 0, 1)
    sub = smallest_f_stable_subalgebra(a, [z])
    assert len(sub) == 1


def test_smallest_f_stable_generators_span_all():
    a = heisenberg()
    e0, e1 = vec(SPEC, 1, 0, 0), vec(SPEC, 0, 1, 0)
    sub = smallest_f_stable_subalgebra(a, [e0, e1])
    assert len(sub) == 3


def test_smallest_f_stable_stable_line():
    a = build([[F(1), 0], [0, F(1, 5)]], zero_bracket(2))
    e0 = vec(SPEC, 1, 0)
    assert len(smallest_f_stable_subalgebra(a, [e0])) == 1


@pytest.mark.parametrize("gens", [[[1]], [[1, 2, 3]], [[0, 0, 0]],
                                  [[1, 0], [0, 0, 0]]],
                         ids=["short", "long", "long-zero", "one-of-two"])
def test_smallest_f_stable_refuses_wrong_lengths(gens):
    a = build([[F(1), 0], [0, F(1, 5)]], zero_bracket(2))
    with pytest.raises(MalformedInput, match="algebra's rank") as exc:
        smallest_f_stable_subalgebra(a, [vec(SPEC, *g) for g in gens])
    assert exc.value.witness == {"rank": 2,
                                 "lengths": [len(g) for g in gens]}


def test_smallest_f_stable_no_generators_singular_frobenius():
    # generators that span 0 close to 0 without inverting F
    a = build([[F(1), 0], [0, F(0)]], zero_bracket(2))
    zero = vec(SPEC, 0, 0)
    assert smallest_f_stable_subalgebra(a, []) == []
    assert smallest_f_stable_subalgebra(a, [zero]) == []
    assert a.iso.apply_inverse([]) == []
    with pytest.raises(NonInvertible):
        a.iso.apply_inverse([zero])


def test_lattice_intersect_subspace():
    lat = [vec(SPEC, 1, 0), vec(SPEC, 0, 1)]
    diag = span_basis([vec(SPEC, 1, 1)])
    got = lattice_intersect_subspace(lat, diag)
    assert len(got) == 1
    v = got[0]
    assert (v[0] - v[1]).is_zero
    assert v[0].valuation() == 0


def test_lattice_intersect_whole_space_is_the_lattice():
    # a subspace of full dimension w = n leaves no annihilating row, and
    # the intersection is the lattice itself.  (1, 0) is not in this
    # lattice, so the standard lattice, which saturating the lattice's
    # columns gave, is not the answer
    lat = [vec(SPEC, 5, 0), vec(SPEC, 1, F(1, 5))]
    got = lattice_intersect_subspace(lat, [vec(SPEC, 1, 0), vec(SPEC, 0, 1)])
    assert answer_key(got) == answer_key(lat)
    coords = coords_in_column_span(lat, [vec(SPEC, 1, 0)])[0]
    assert coords[0].v == -1
    # the lines e0 and e1 meet it in 5 e0 and e1
    assert answer_key(lattice_intersect_subspace(lat, [vec(SPEC, 1, 0)])) \
        == answer_key([vec(SPEC, 5, 0)])
    e1 = lattice_intersect_subspace(lat, [vec(SPEC, 0, 1)])[0]
    assert e1[0].is_zero and e1[1].v == 0


@pytest.mark.parametrize("subspace", [[(1, 0), (0, 1)], [(1, 0)], [(1, 1)]],
                         ids=["whole-space", "line-off-kernel",
                              "line-in-span"])
def test_lattice_intersect_refuses_dependent_columns(subspace):
    # dependent columns are no lattice, whatever the subspace.  Checked
    # only on the whole space, the line e0 got a kernel of Q L of the
    # expected dimension and the answer [O(5^16), O(5^16)], and the line
    # (1, 1) failed the kernel certificate instead
    with pytest.raises(InsufficientPrecision,
                       match="lattice lost rank") as exc:
        lattice_intersect_subspace([vec(SPEC, 1, 1), vec(SPEC, 2, 2)],
                                   [vec(SPEC, *b) for b in subspace])
    assert exc.value.witness == {"rank": 1, "size": 2}


@pytest.mark.parametrize("lattice, subspace", [
    ([], [(1,)]),
    ([(1, 0)], [(1, 1)]),
    ([(1, 0), (0, 1), (1, 1)], [(1, 1)]),
    ([(1, 0), (0, 1, 0)], [(1, 1)]),
    ([(1, 0, 0), (0, 1, 0)], [(1, 1)]),
    ([(1, 0), (0, 1)], [(1, 1), (1,)]),
], ids=["no-columns", "too-few-columns", "too-many-columns",
        "one-long-column", "long-columns", "ragged-subspace"])
def test_lattice_intersect_subspace_checks_shapes(lattice, subspace):
    # n columns of length n, n the subspace vectors' length, checked before
    # any elimination: a bad shape is malformed, not a precision shortfall
    with pytest.raises(MalformedInput, match="n columns of length n"):
        lattice_intersect_subspace([vec(SPEC, *c) for c in lattice],
                                   [vec(SPEC, *b) for b in subspace])


def test_json_round_trip():
    a = heisenberg(lattice=EYE3)
    b = DieudonneLie.from_json(a.to_json())
    assert dla_validate(b) == dla_validate(a)


def test_phi_stability_of_lcs_terms():
    a = heisenberg()
    chain, _ = lower_central_series(a)
    for term in chain:
        assert in_span(term, a.iso.apply(term))


def _digits(vecs):
    """Value and precision of every entry, as to_json and abs_prec give them."""
    return [[(c.to_json(), c.abs_prec) for c in v] for v in vecs]


def _rand_phi_algebra(rng, spec, n):
    """A rank-n algebra, zero bracket, whose random Frobenius has full
    precision, mixed valuations and exact zeros, and can be inverted."""
    while True:
        F_ = [[PadicScalar.zero(spec) if rng.random() < 0.3 else
               PadicScalar.from_coeffs(
                   spec, [rng.randrange(spec.pN) for _ in range(spec.f)],
                   rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            mat_inverse(F_, spec)
        except IsolabError:
            continue
        zero = PadicScalar.zero(spec)
        bracket = [[[zero] * n for _ in range(n)] for _ in range(n)]
        return DieudonneLie(Isocrystal(spec, F_), bracket)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_phi_on_lists_matches_per_vector_mat_vec(f):
    # reference: the per-vector form, one mat_vec (and for Phi^-1 one
    # mat_inverse) per vector
    spec = FieldSpec(3, f, 6)
    rng = random.Random(40 + f)
    for _ in range(12):
        n = rng.randint(1, 4)
        a = _rand_phi_algebra(rng, spec, n)
        F_ = a.iso.F
        xs = [[rand_scalar(rng, spec) for _ in range(n)]
              for _ in range(rng.randint(0, 5))]
        if xs:
            xs[0] = [PadicScalar.zero(spec, rng.randint(1, 6))] * n
        want = [mat_vec(F_, [c.sigma() for c in x]) for x in xs]
        assert _digits(a.iso.apply(xs)) == _digits(want)
        want = [[c.sigma(f - 1) for c in mat_vec(mat_inverse(F_, spec), x)]
                for x in xs]
        assert _digits(a.iso.apply_inverse(xs)) == _digits(want)


def test_phi_on_lists_rank_zero():
    a = build([], [])
    assert a.iso.apply([]) == [] and a.iso.apply_inverse([]) == []
    assert dla_validate(a)["f_equivariance"]
    assert lower_central_series(a) == ([[]], 0)


def test_lcs_one_mat_mul_per_f_stability_step(monkeypatch):
    # filiform rank 4: [e0, e_j] = e_(j+1), class 3
    c = zero_bracket(4)
    for j in (1, 2):
        c[0][j][j + 1], c[j][0][j + 1] = F(1), F(-1)
    a = build([[F(int(i == j)) for j in range(4)] for i in range(4)], c)
    rows = []
    mul = isocrystal.mat_mul
    monkeypatch.setattr(isocrystal, "mat_mul",
                        lambda A, B: rows.append(len(A)) or mul(A, B))
    chain, n_class = lower_central_series(a)
    assert n_class == 3
    # one product per step, each answering the whole new term
    assert rows == [len(term) for term in chain[1:]] == [2, 1, 0]


def test_closure_one_mat_inverse_per_step(monkeypatch):
    a = heisenberg()
    gens = [[PadicScalar.from_int(SPEC, int(i == j)) for j in range(3)]
            for i in range(2)]
    inverses, spans = [], []
    inv, span = isocrystal.mat_inverse, dieudonne.span_basis
    monkeypatch.setattr(isocrystal, "mat_inverse",
                        lambda *args: inverses.append(1) or inv(*args))
    monkeypatch.setattr(dieudonne, "span_basis",
                        lambda vecs: spans.append(1) or span(vecs))
    assert len(smallest_f_stable_subalgebra(a, gens)) == 3
    # span_basis runs once for the generators, then once per loop step;
    # the two steps have 2 and 3 vectors, so one inverse per vector would
    # make 5
    assert len(spans) == 3 and len(inverses) == 2


def _rand_entry(rng, spec, zero_share):
    """An exact zero, an O(p^b) zero with b < N, or a nonzero scalar of
    mixed valuation and relative precision."""
    r = rng.random()
    if r < zero_share / 2:
        return PadicScalar.zero(spec)
    if r < zero_share:
        return PadicScalar.zero(spec, rng.randint(-2, spec.N - 1))
    return rand_scalar(rng, spec, zero_share=0)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_bracket_vec_matches_dense_fold(f):
    spec = FieldSpec(3, f, 6)
    rng = random.Random(70 + f)
    eye = [[PadicScalar.from_int(spec, int(i == j)) for j in range(6)]
           for i in range(6)]
    for _ in range(40):
        n = rng.randint(1, 6)
        share = rng.choice([0.3, 0.7, 0.95])
        bracket = [[[_rand_entry(rng, spec, share) for _ in range(n)]
                    for _ in range(n)] for _ in range(n)]
        a = DieudonneLie(Isocrystal(spec, [row[:n] for row in eye[:n]]),
                         bracket)
        for _ in range(4):
            x, y = ([_rand_entry(rng, spec, 0.4) for _ in range(n)]
                    for _ in range(2))
            got, want = a.bracket_vec(x, y), ref_bracket_vec(a, x, y)
            assert _digits([got]) == _digits([want])
            assert list(map(key, got)) == list(map(key, want))
    # the zero x_0 = O(5) is skipped with its bound, so [x, e1] claims
    # O(5^8) where only O(5) is certified; the walk keeps that answer
    spec = FieldSpec(5, 1, 8)
    c = zero_bracket(2)
    c[0][1][0], c[1][0][0] = F(1), F(-1)
    a = build([[F(1), 0], [0, F(1)]], c, spec=spec)
    zero, one = PadicScalar.zero(spec), PadicScalar.from_int(spec, 1)
    x, y = [PadicScalar.zero(spec, 1), zero], [zero, one]
    got = a.bracket_vec(x, y)
    assert _digits([got]) == _digits([ref_bracket_vec(a, x, y)])
    assert [repr(v) for v in got] == ["O(p^8)", "O(p^8)"]


def test_bracket_vec_skips_empty_cells(monkeypatch):
    # a product x_i y_j is made only for a cell (i, j) with a nonzero
    # constant; the dense fold made all n^2 of them
    x, y = ([PadicScalar.from_int(SPEC, v) for v in vec]
            for vec in ((2, 3, 7), (4, 6, 1)))
    # Heisenberg: cells (0, 1) and (1, 0), one constant each; built before
    # the count, since building checks the bracket laws
    heis, abelian = heisenberg(), build(EYE3, zero_bracket(3))
    calls = []
    mul = PadicScalar.__mul__
    monkeypatch.setattr(PadicScalar, "__mul__",
                        lambda s, o: calls.append(1) or mul(s, o))
    got = heis.bracket_vec(x, y)
    assert len(calls) == 4
    calls.clear()
    got_abelian = abelian.bracket_vec(x, y)
    assert calls == []
    assert _digits([got]) == _digits([ref_bracket_vec(heis, x, y)])
    assert _digits([got_abelian]) == _digits(
        [ref_bracket_vec(abelian, x, y)])


def _rand_law_algebra(rng, spec, n):
    """A rank-n algebra whose constants mix exact zeros, O(p^b) zeros and
    units.  The bracket is random, or made antisymmetric, or one
    antisymmetric pair; the Frobenius is 1 or random.  So over a seed each
    law both holds and fails."""
    share = rng.choice([0.3, 0.7, 0.95])
    bracket = [[[_rand_entry(rng, spec, share) for _ in range(n)]
                for _ in range(n)] for _ in range(n)]
    kind = rng.choice(("random", "antisymmetric", "one pair"))
    if kind != "random":
        keep = rng.sample(range(n), 2) if n > 1 else []
        for i in range(n):
            bracket[i][i] = [_rand_entry(rng, spec, 1) for _ in range(n)]
            for j in range(i + 1, n):
                if kind == "one pair" and sorted(keep) != [i, j]:
                    bracket[i][j] = [_rand_entry(rng, spec, 1)
                                     for _ in range(n)]
                bracket[j][i] = [-c for c in bracket[i][j]]
    if rng.random() < 0.5:
        frob = [[PadicScalar.from_int(spec, int(i == j)) for j in range(n)]
                for i in range(n)]
    else:
        frob = [[_rand_entry(rng, spec, 0.4) for _ in range(n)]
                for _ in range(n)]
    return DieudonneLie(Isocrystal(spec, frob), bracket)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_stored_laws_match_reference(f):
    spec = FieldSpec(3, f, 6)
    rng = random.Random(90 + f)
    laws = ("antisymmetry", "jacobi", "f_equivariance")
    seen = set()
    for t in range(60):
        a = _rand_law_algebra(rng, spec, t % 5)  # ranks 0..4
        want = ref_bracket_laws(a)
        assert dla_validate(a) == want
        broken = [key for key in laws if not want[key]]
        if broken:
            with pytest.raises(MalformedInput) as exc:
                dieudonne.require_valid_bracket(a)
            assert str(exc.value) == f"bracket law violated: {broken[0]}"
            assert exc.value.witness == want["witnesses"][broken[0]]
        else:
            dieudonne.require_valid_bracket(a)
        seen |= {(key, want[key]) for key in laws}
    assert seen == {(key, ok) for key in laws for ok in (True, False)}


def test_validate_report_is_a_fresh_copy():
    c = heis_bracket()
    c[1][0][2] = F(0)  # breaks antisymmetry at (0, 1, 2)
    for a in (heisenberg(lattice=EYE3), build(EYE3, c, EYE3)):
        rep = dla_validate(a)
        want = copy.deepcopy(rep)
        rep["antisymmetry"] = not rep["antisymmetry"]
        rep["witnesses"]["jacobi"] = (9, 9, 9)
        rep["witnesses"].pop("antisymmetry", None)
        assert dla_validate(a) == want


def test_in_span_lost_rank_is_insufficient_precision():
    one, zero = PadicScalar.from_int(SPEC, 1), PadicScalar.zero(SPEC)
    e0, e1 = [one, zero], [zero, one]
    assert in_span([e0], [e0])
    # a residual certified nonzero: outside the span
    assert not in_span([e0], [e1])
    # a basis of rank 1 given as two vectors is no answer either way
    with pytest.raises(InsufficientPrecision):
        in_span([e0, e0], [e0])


def test_in_span_matches_per_target_solves():
    # one batched solve answers as the AND of one solve per target
    rng = random.Random(37)
    seen = set()
    for _ in range(400):
        spec = FieldSpec(rng.choice((2, 3, 5)), rng.choice((1, 2)), 8)
        n = rng.randint(1, 4)

        def scalar():
            return PadicScalar.from_fraction(
                spec, F(rng.randint(-9, 9), spec.p ** rng.randint(0, 2)))

        basis = span_basis([[scalar() for _ in range(n)]
                            for _ in range(rng.randint(0, n))])
        if basis and rng.random() < 0.2:
            basis = basis + [basis[-1]]  # a basis that lost rank
        targets = []
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(("zero", "inside", "random"))
            if kind == "zero":
                targets.append([PadicScalar.zero(spec)] * n)
            elif kind == "inside" and basis:
                coef = [scalar() for _ in basis]
                targets.append([sum((c * b[i] for c, b in zip(coef, basis)),
                                    PadicScalar.zero(spec))
                                for i in range(n)])
            else:
                targets.append([scalar() for _ in range(n)])
        want = ref_in_span(basis, targets)
        if want is InsufficientPrecision:
            with pytest.raises(InsufficientPrecision):
                in_span(basis, targets)
        else:
            assert in_span(basis, targets) is want
        nonzero = [t for t in targets if not all(c.is_zero for c in t)]
        inside = [t for t in nonzero
                  if ref_in_span(basis, [t]) is True]
        seen.add("no nonzero target" if not nonzero else
                 "lost rank" if want is InsufficientPrecision else
                 "empty basis" if not basis else
                 "mixed" if 0 < len(inside) < len(nonzero) else
                 "inside" if want else "outside")
    assert seen == {"no nonzero target", "lost rank", "empty basis",
                    "mixed", "inside", "outside"}


def test_typed_guards_fire(monkeypatch):
    gens = [[PadicScalar.from_int(SPEC, int(i == j)) for j in range(3)]
            for i in range(2)]
    monkeypatch.setattr(dieudonne, "in_span", lambda basis, targets: False)
    with pytest.raises(InvariantViolated, match="series term"):
        lower_central_series(heisenberg())
    with pytest.raises(InvariantViolated, match="F-stable"):
        smallest_f_stable_subalgebra(heisenberg(), gens)
    # Phi-stable, so only the bracket guard sees a False: the closure of
    # e0, e1 is checked by one call for the Phi images, then the brackets
    answers = iter([True, False])
    monkeypatch.setattr(dieudonne, "in_span",
                        lambda basis, targets: next(answers))
    with pytest.raises(InvariantViolated, match="bracket"):
        smallest_f_stable_subalgebra(heisenberg(), gens)


def test_typed_guards_fire_under_optimize():
    # the guard must not be an assert, which -O strips
    snippet = ("from fractions import Fraction as F\n"
               "from isolab import DieudonneLie, FieldSpec, dieudonne\n"
               "from isolab.errors import InvariantViolated\n"
               "c = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]\n"
               "c[0][1][2], c[1][0][2] = F(1), F(-1)\n"
               "frob = [[F(1, 5), 0, 0], [0, F(1), 0], [0, 0, F(1, 5)]]\n"
               "a = DieudonneLie.from_rationals(FieldSpec(5, 1, 16), frob, c)\n"
               "dieudonne.in_span = lambda basis, targets: False\n"
               "try:\n"
               "    dieudonne.lower_central_series(a)\n"
               "except InvariantViolated:\n"
               "    print('rejected')\n")
    assert run_optimized(snippet) == "rejected\n"
