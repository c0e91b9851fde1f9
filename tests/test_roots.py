import itertools
import json
import random
from fractions import Fraction

import pytest

from isolab import (FieldSpec, RootDatumWithCochar,
                    adjoint_isocrystal, adjoint_slope_cross_check,
                    coxeter_gate, leaf_dimension, newton_slopes,
                    slope_multiset_from_roots, unipotent_nilpotency)
from isolab import roots
from isolab.dieudonne import pdiv_dimension
from isolab.errors import (InvariantViolated, IsolabError, MalformedInput,
                           NonInvertible, UnsupportedType)

from reference import (gl, gsp, rat_mat_exp, rat_mat_mul,
                       ref_adjoint_isocrystal, ref_nilpotency, so)

F = Fraction


def test_slope_multiset_gl3():
    d = gl(3, 0, "-1/2", -1)
    assert slope_multiset_from_roots(d) == [(F(-1), 1), (F(-1, 2), 2)]


def test_slope_multiset_central_nu_empty():
    assert slope_multiset_from_roots(gl(3, -1, -1, -1)) == []


def test_slope_multiset_gl2():
    assert slope_multiset_from_roots(gl(2, 0, -1)) == [(F(-1), 1)]


def test_leaf_dimension_gl2():
    assert leaf_dimension(gl(2, 0, -1)) == 1


def test_leaf_dimension_gsp4_ordinary():
    assert leaf_dimension(gsp(4, 0, 0, -1, -1)) == 3


def test_leaf_dimension_central_zero():
    assert leaf_dimension(gl(4, 0, 0, 0, 0)) == 0


def test_leaf_dimension_rational():
    assert leaf_dimension(gl(2, 0, "-1/2")) == F(1, 2)


def test_dominance_enforced():
    with pytest.raises(MalformedInput):
        gl(2, -1, 0)
    with pytest.raises(MalformedInput):
        gsp(4, 0, 0, 1, 1)


@pytest.mark.parametrize("typ, n, nu, line", [
    ("GL", 3, [0, 1, 0], '{"error":"MalformedInput","message":"cocharacter '
     'is not dominant","witness":{"pairing":"-1","root":[1,-1,0]}}'),
    ("GSp", 4, [1, 0, 2, 1], '{"error":"MalformedInput","message":'
     '"cocharacter is not dominant","witness":{"pairing":"-1","root":'
     '[1,0,-1,0]}}'),
    ("SO", 5, [0, F(1, 2)], '{"error":"MalformedInput","message":'
     '"cocharacter is not dominant","witness":{"pairing":"-1/2","root":'
     '[1,-1,0,0,0]}}'),
])
def test_dominance_error_names_the_first_negative_root(typ, n, nu, line):
    with pytest.raises(MalformedInput) as exc:
        RootDatumWithCochar(typ, n, nu)
    assert json.dumps(exc.value.to_json(), sort_keys=True,
                      separators=(",", ":")) == line


def test_gsp_needs_even_rank():
    with pytest.raises(MalformedInput):
        gsp(5, 0, 0, 0, -1, -1)


def test_datum_refuses_boolean_cocharacter_entries():
    # Fraction(True) is 1: [True, False] used to build nu = (1, 0)
    with pytest.raises(MalformedInput, match="must be rational") as exc:
        RootDatumWithCochar("GL", 2, [True, False])
    assert exc.value.witness == {"nu": ["True", "False"]}


@pytest.mark.parametrize("nu", ["10", b"10", None, 5, True, {1, 0},
                                iter([1, 0])],
                         ids=["string", "bytes", "none", "int", "bool", "set",
                              "iterator"])
def test_datum_reads_nu_as_a_sequence(nu):
    # "10" used to build nu = (1, 0) from its characters, and None or 5
    # raised a bare TypeError
    with pytest.raises(MalformedInput,
                       match="^cocharacter must be a sequence of rationals$"
                       ) as exc:
        RootDatumWithCochar("GL", 2, nu)
    assert exc.value.witness == {"nu": nu}


def test_datum_reads_a_tuple_as_the_list():
    d, want = (RootDatumWithCochar("GSp", 4, nu)
               for nu in ((1, 1, 0, 0), [1, 1, 0, 0]))
    assert (d.nu, d.positive_roots, d.pairings, d.two_rho) == (
        want.nu, want.positive_roots, want.pairings, want.two_rho)


@pytest.mark.parametrize("n", [2.5, True, "3"],
                         ids=["non-integral", "bool", "string"])
def test_datum_size_follows_the_integer_rule(n):
    with pytest.raises(MalformedInput, match="must be an integer") as exc:
        RootDatumWithCochar("GL", n, [1, 0, 0])
    assert exc.value.witness == {"n": n}


def test_integral_float_size_answers_as_the_integer():
    d, want = (RootDatumWithCochar("GSp", n, [1, 1, 0, 0]) for n in (4.0, 4))
    assert type(d.n) is int
    assert (d.n, d.positive_roots, d.pairings, d.two_rho, d.nu) == (
        want.n, want.positive_roots, want.pairings, want.two_rho, want.nu)
    assert leaf_dimension(d) == leaf_dimension(want)


def test_unknown_type():
    with pytest.raises(UnsupportedType):
        RootDatumWithCochar("E8", 8, [F(0)] * 8)


def test_two_rho_gl():
    # 2rho for GL(n) is (n-1, n-3, ..., 1-n)
    d = gl(4, 0, 0, 0, 0)
    assert d.two_rho == (3, 1, -1, -3)


def test_two_rho_gsp4():
    d = gsp(4, 0, 0, 0, 0)
    assert d.two_rho == (3, 0, -2, -1)


def test_nilpotency_gl4_regular():
    assert unipotent_nilpotency(gl(4, 0, -1, -2, -3)) == 3


def test_nilpotency_gl4_two_block():
    assert unipotent_nilpotency(gl(4, 0, 0, -1, -1)) == 1


def test_nilpotency_gl2():
    assert unipotent_nilpotency(gl(2, 0, -1)) == 1


def test_nilpotency_central_zero():
    assert unipotent_nilpotency(gl(3, 0, 0, 0)) == 0


def test_nilpotency_gsp4_regular():
    assert unipotent_nilpotency(gsp(4, 0, -1, -2, -3)) == 3


def test_coxeter_gate_gl4():
    rep = coxeter_gate(gl(4, 0, -1, -2, -3), 5)
    assert rep == {"h": 4, "h_weyl": 4, "n_class": 3,
                   "p_ge_h": True, "p_gt_n": True}


def test_coxeter_gate_gsp4_p5():
    for nu in itertools.product((0, -1, -2), repeat=4):
        try:
            d = gsp(4, *nu)
        except MalformedInput:
            continue
        rep = coxeter_gate(d, 5)
        assert rep["h"] == 4
        assert rep["p_ge_h"] and rep["p_gt_n"]


def test_coxeter_gate_gl2_p2():
    rep = coxeter_gate(gl(2, 0, -1), 2)
    assert rep["n_class"] == 1
    assert rep["p_ge_h"] and rep["p_gt_n"]


def test_coxeter_gate_so5():
    rep = coxeter_gate(so(5, 0, 0, 0, 0, 0), 5)
    # table bound 2(m-1) vs the B_2 Weyl-group number 2m: both reported
    assert rep["h"] == 2 and rep["h_weyl"] == 4


def test_coxeter_gate_so2_torus():
    # no roots at all: the bound n_class <= h_weyl - 1 is for h_weyl >= 2
    assert coxeter_gate(so(2, 1, -1), 2) == {
        "h": 0, "h_weyl": 0, "n_class": 0, "p_ge_h": True, "p_gt_n": True}


def test_nilpotency_bound_by_coxeter():
    for n in (2, 3, 4, 5):
        for nu in itertools.product((0, -1, -2, -3), repeat=n):
            if sorted(nu, reverse=True) != list(nu):
                continue
            rep = coxeter_gate(gl(n, *nu), 7)
            assert rep["n_class"] <= rep["h_weyl"] - 1


def test_adjoint_gl2():
    spec = FieldSpec(5, 1, 16)
    assert adjoint_slope_cross_check(gl(2, 0, -1), spec) == [(F(-1), 1)]


def test_adjoint_gl3_regular():
    # rank-9 adjoint with entry valuations down to -2 needs headroom for
    # the division-free charpoly
    spec = FieldSpec(5, 1, 40)
    want = [(F(-2), 1), (F(-1), 2)]
    assert adjoint_slope_cross_check(gl(3, 0, -1, -2), spec) == want


def test_adjoint_identity_no_negative_part():
    spec = FieldSpec(5, 1, 16)
    d = gl(2, 0, 0)
    b = [[F(1), F(0)], [F(0), F(1)]]
    iso = adjoint_isocrystal(d, b, spec)
    assert all(s >= 0 for s, _ in newton_slopes(iso))


def test_adjoint_rejects_singular_or_non_normalizing_b():
    spec = FieldSpec(5, 1, 16)
    with pytest.raises(NonInvertible):
        adjoint_isocrystal(gl(2, 0, 0), [[F(1), F(2)], [F(2), F(4)]], spec)
    # diag(1, 2, 1, 1) is no symplectic similitude: conjugation scales the
    # two halves of a short root vector differently
    b = [[F(int(i == j) * (2 if i == 1 else 1)) for j in range(4)]
         for i in range(4)]
    with pytest.raises(MalformedInput):
        adjoint_isocrystal(gsp(4, 0, 0, -1, -1), b, spec)


def test_adjoint_cross_check_gsp4():
    spec = FieldSpec(5, 1, 16)
    got = adjoint_slope_cross_check(gsp(4, 0, 0, -1, -1), spec)
    assert got == slope_multiset_from_roots(gsp(4, 0, 0, -1, -1))


def test_adjoint_rejects_non_integral_nu():
    spec = FieldSpec(5, 1, 16)
    with pytest.raises(MalformedInput):
        adjoint_slope_cross_check(gl(2, 0, "-1/2"), spec)


def test_leafdim_equals_pdiv_everywhere():
    for typ, n in (("GL", 3), ("GL", 4), ("GSp", 4), ("SO", 5)):
        half = n // 2 if typ == "SO" else n
        for nu in itertools.product((0, -1, -2), repeat=half):
            try:
                d = RootDatumWithCochar(typ, n, [F(v) for v in nu])
            except MalformedInput:
                continue
            dim = leaf_dimension(d)
            assert dim == pdiv_dimension(slope_multiset_from_roots(d),
                                         check_range=False)


def test_dominance_monotonicity():
    """Raising nu in the dominance order cannot shrink the leaf."""
    small = gl(3, 0, -1, -1)
    large = gl(3, 0, 0, -2)  # dominates after recentring? compare directly
    assert leaf_dimension(large) >= leaf_dimension(small)


# ---- nilpotency against the full-layer Fraction algorithm ----

def dominant_data(rng, typ, n, count, max_roots):
    """count distinct dominant data of one type and size, drawn at random,
    each with at most max_roots positive roots pairing positively (the
    reference's layers grow like that number to the power of the class)."""
    out, seen = [], set()
    width = n // 2 if typ == "SO" else n
    for _ in range(200):
        values = rng.sample(range(-2, 2), rng.choice([2, 3]))
        nu = tuple(sorted((rng.choice(values) for _ in range(width)),
                          reverse=True))
        if nu in seen:
            continue
        seen.add(nu)
        try:
            d = RootDatumWithCochar(typ, n, [F(v) for v in nu])
        except MalformedInput:
            continue
        if sum(m for _, m in slope_multiset_from_roots(d)) <= max_roots:
            out.append(d)
        if len(out) == count:
            break
    return out


def test_pairings_match_the_dot_product():
    rng = random.Random(11)
    for typ in ("GL", "GSp", "SO"):
        for n in range(2, 9):
            if typ == "GSp" and n % 2:
                continue
            for d in dominant_data(rng, typ, n, 6, n * n):
                assert d.pairings == tuple(roots._pair(alpha, d.nu)
                                           for alpha in d.positive_roots)


def test_nilpotency_matches_full_layer_reference():
    rng = random.Random(7)
    data = []
    for typ in ("GL", "GSp", "SO"):
        for n in range(2, 8):
            if typ == "GSp" and n % 2:
                continue
            drawn = dominant_data(rng, typ, n, 4, 10)
            assert drawn, (typ, n)
            data += drawn
    # regular cocharacters: classes 3 and 4 need more roots than drawn above
    data += [gl(4, 0, -1, -2, -3), gl(5, 0, -1, -2, -3, -4),
             so(5, 2, 1, 0, -1, -2), so(6, 2, 1, 0, 0, -1, -2)]
    classes = set()
    for d in data:
        want = ref_nilpotency(d)
        assert unipotent_nilpotency(d) == want, (d.group_type, d.n, d.nu)
        rep = coxeter_gate(d, 3)
        assert rep["n_class"] == want and rep["p_gt_n"] == (3 > want)
        classes.add(want)
    assert classes == {0, 1, 2, 3, 4}


# ---- the adjoint isocrystal against dense conjugation ----

def adjoint_outcome(fn, d, b, spec):
    try:
        return "ok", fn(d, b, spec).to_json()
    except IsolabError as exc:
        return str(exc), type(exc).__name__, exc.witness


def group_elements(rng, d, p):
    """diag(p^-nu), a root-group element times it, and random rational
    matrices: one draw, one with a dependent row and one short a row."""
    n = d.n
    torus = [[F(p) ** int(-v) if i == j else F(0) for j in range(n)]
             for i, v in enumerate(d.nu)]
    i, j = rng.choice(roots._positive_root_positions(d.group_type, n))
    X = roots._root_vector(d.group_type, n, i, j)
    if rng.random() < 0.5:
        X = [list(col) for col in zip(*X)]  # the opposite root
    t = F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
    unipotent = rat_mat_exp([[t * x for x in row] for row in X], n)
    rand = [[F(rng.randrange(-2, 3), rng.choice([1, 2, 3]))
             for _ in range(n)] for _ in range(n)]
    singular = [row[:] for row in rand]
    singular[-1] = [a + c for a, c in zip(singular[0], singular[1])]
    return {"torus": torus, "root group": rat_mat_mul(unipotent, torus),
            "random": rand, "singular": singular, "short": rand[:-1]}


def test_adjoint_isocrystal_matches_dense_reference():
    rng = random.Random(11)
    spec = FieldSpec(5, 1, 16)
    shapes = ([("GL", n) for n in range(2, 7)] + [("GSp", 4), ("GSp", 6)]
              + [("SO", n) for n in range(3, 8)])
    seen = set()
    for typ, n in shapes:
        data = dominant_data(rng, typ, n, 2 if n < 6 else 1, n * n)
        assert data, (typ, n)
        for d in data:
            for name, b in group_elements(rng, d, spec.p).items():
                want = adjoint_outcome(ref_adjoint_isocrystal, d, b, spec)
                got = adjoint_outcome(adjoint_isocrystal, d, b, spec)
                assert got == want, (typ, n, d.nu, name, b)
                seen.add((typ, name, want[0]))
    # every path is taken: group elements answer, a random b leaves the
    # Lie algebra of GSp and SO, singular and short b are refused
    for typ in ("GL", "GSp", "SO"):
        assert {(typ, "torus", "ok"), (typ, "root group", "ok"),
                (typ, "singular", "matrix is singular"),
                (typ, "short", "group element size mismatch")} <= seen
        assert (typ, "random", "ok" if typ == "GL"
                else "conjugation left the Lie algebra") in seen


def test_typed_guards_fire(monkeypatch):
    d = gsp(4, 0, 0, -1, -1)
    monkeypatch.setattr(roots, "pdiv_dimension", lambda *a, **k: 99)
    with pytest.raises(InvariantViolated):
        leaf_dimension(d)
    monkeypatch.setattr(roots, "unipotent_nilpotency", lambda d: d.n)
    with pytest.raises(InvariantViolated):
        coxeter_gate(d, 5)
