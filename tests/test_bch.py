import random
from fractions import Fraction

import pytest

from isolab import (DieudonneLie, FieldSpec, FreeLieElement, bch_series,
                    denominator_profile, group_mul, lattice_closure_check,
                    lie_project, rho_defect, smallest_f_stable_subalgebra)
from isolab.bch import is_lyndon, standard_factorization, MAX_CLASS
from isolab import bch, dieudonne, isocrystal
from isolab.dieudonne import (dla_validate, lower_central_series,
                              minimal_slope_center_check)
from isolab.errors import (DegreeTooLarge, FieldSpecMismatch,
                           InsufficientPrecision, InvariantViolated,
                           MalformedInput, NonInvertible, SplitUnavailable)
from isolab.linalg import mat_from_rationals

from memo_contract import (check_computed_once,
                           check_replays_a_fresh_error,
                           check_returns_a_copy,
                           check_stores_only_library_errors)
from reference import (ALGEBRA_MEMO, EYE3, MEMO_COMPUTE, answer_key, build,
                       heis_bracket, heisenberg, key, ref_lattice_closure,
                       run_optimized, split_heisenberg, vec, zero_bracket)

F = Fraction
SPEC = FieldSpec(5, 1, 16)


# ---- Lyndon machinery ----

def test_lyndon_predicate():
    assert is_lyndon("XY")
    assert is_lyndon("XXY")
    assert not is_lyndon("YX")
    assert not is_lyndon("XYXY")


def test_standard_factorization():
    assert standard_factorization("XY") == ("X", "Y")
    assert standard_factorization("XXY") == ("X", "XY")
    assert standard_factorization("XYY") == ("XY", "Y")


# ---- the series itself ----

def test_degree_1():
    s = bch_series(1)
    assert s.terms == {"X": F(1), "Y": F(1)}


def test_degree_2():
    s = bch_series(2)
    assert s.terms["XY"] == F(1, 2)


def test_degree_3():
    s = bch_series(3)
    assert s.terms["XXY"] == F(1, 12)
    assert s.terms["XYY"] == F(1, 12)


def test_degree_4_single_term():
    # the classical -(1/24)[Y,[X,[X,Y]]] reads +(1/24)[X,[[X,Y],Y]] in the
    # Lyndon bracketing (Jacobi flips the sign)
    s = bch_series(4)
    deg4 = {w: c for w, c in s.terms.items() if len(w) == 4}
    assert deg4 == {"XXYY": F(1, 24)}


def test_degree_cap():
    with pytest.raises(DegreeTooLarge):
        bch_series(MAX_CLASS + 1)


@pytest.mark.parametrize("c", [-1, 0, -2, 0.0, F(-1)])
def test_class_below_one_is_malformed(c):
    with pytest.raises(MalformedInput, match=f"class bound is 1..{MAX_CLASS}"
                       ) as exc:
        bch_series(c)
    assert exc.value.witness == {"requested": c}


@pytest.mark.parametrize("fn", [bch_series, denominator_profile])
@pytest.mark.parametrize("c", [2.5, True, "2"],
                         ids=["non-integral", "bool", "string"])
def test_class_bound_follows_the_integer_rule(fn, c):
    with pytest.raises(MalformedInput) as exc:
        fn(c)
    assert exc.value.witness == {"requested": c}


def test_integral_float_class_answers_as_the_integer():
    want = bch_series(3)
    size = bch_series.cache_info().currsize
    assert bch_series(3.0) is bch_series(Fraction(3)) is want
    assert bch_series.cache_info().currsize == size  # keyed by the int
    assert denominator_profile(4.0) == denominator_profile(4) == {2, 3}


def test_denominator_profile():
    assert denominator_profile(1) == set()
    assert denominator_profile(2) == {2}
    assert denominator_profile(4) == {2, 3}
    for c in range(1, MAX_CLASS + 1):
        assert all(q <= c for q in denominator_profile(c))


def test_lie_project_rejects_non_lie_input():
    # XY + YX = symmetric product, not a Lie element
    with pytest.raises(MalformedInput):
        lie_project({"XY": F(1), "YX": F(1)}, 2)


def test_lie_project_rejects_non_lie_input_under_optimize():
    # the guard must not be an assert, which -O strips
    snippet = ("from fractions import Fraction as F\n"
               "from isolab.bch import lie_project\n"
               "from isolab.errors import MalformedInput\n"
               "try:\n"
               "    lie_project({'XY': F(1), 'YX': F(1)}, 2)\n"
               "except MalformedInput:\n"
               "    print('rejected')\n")
    assert run_optimized(snippet) == "rejected\n"


# ---- group law on algebras ----

#: lattice columns e0, e1, e2/2: closed under the group law at p = 2,
#: although p = 2 is not above the class
HALF_E2 = [[F(1), 0, 0], [F(0), 1, 0], [F(0), 0, F(1, 2)]]
#: lattice columns e0, e1, 5*e2: [e0, e1] = e2 leaves it, so it is not
#: closed under the bracket, and at p = 5 not under the group law either
FIVE_E2 = [[F(1), 0, 0], [F(0), 1, 0], [F(0), 0, F(5)]]


def test_group_mul_abelian_is_addition():
    spec = SPEC
    a = build([[F(1), 0], [0, F(1, 5)]], zero_bracket(2))
    x = vec(spec, 3, "1/2")
    y = vec(spec, -1, 2)
    z = group_mul(a, x, y)
    w = vec(spec, 2, "5/2")
    assert all((zi - wi).is_zero for zi, wi in zip(z, w))


def test_group_mul_heisenberg():
    a = heisenberg()
    z = group_mul(a, vec(a.spec, 1, 0, 0), vec(a.spec, 0, 1, 0))
    want = vec(a.spec, 1, 1, "1/2")
    assert all((zi - wi).is_zero for zi, wi in zip(z, want))


def test_group_identity_and_inverse():
    a = heisenberg()
    x = vec(a.spec, 2, "1/3", -1)
    zero = vec(a.spec, 0, 0, 0)
    for z in (group_mul(a, x, zero), group_mul(a, zero, x)):
        assert all((zi - xi).is_zero for zi, xi in zip(z, x))
    inv = [-c for c in x]
    assert all(c.is_zero for c in group_mul(a, x, inv))


def test_group_associativity_random():
    a = heisenberg()
    rng = random.Random(41)
    for _ in range(10):
        x, y, z = (vec(a.spec, *[rng.randrange(-4, 5) for _ in range(3)])
                   for _ in range(3))
        left = group_mul(a, group_mul(a, x, y), z)
        right = group_mul(a, x, group_mul(a, y, z))
        assert all((l - r).is_zero for l, r in zip(left, right))


def test_group_mul_linear_mod_commutator():
    """x*y = x + y modulo the derived subalgebra (here: the e2-line)."""
    a = heisenberg()
    rng = random.Random(43)
    for _ in range(10):
        x = vec(a.spec, *[rng.randrange(-4, 5) for _ in range(3)])
        y = vec(a.spec, *[rng.randrange(-4, 5) for _ in range(3)])
        z = group_mul(a, x, y)
        assert (z[0] - x[0] - y[0]).is_zero
        assert (z[1] - x[1] - y[1]).is_zero


def test_lattice_closure_p5():
    ok, wit = lattice_closure_check(heisenberg(5, EYE3), samples=100, seed=0)
    assert ok and wit is None


def test_lattice_closure_p2_counterexample():
    ok, wit = lattice_closure_check(heisenberg(2, EYE3), samples=100, seed=0)
    assert not ok
    assert wit is not None


def test_lattice_closure_abelian_any_p():
    a = build([[F(1), 0], [0, F(1, 2)]], zero_bracket(2),
              [[F(1), 0], [F(0), 1]], FieldSpec(2, 1, 16))
    ok, _ = lattice_closure_check(a, samples=50, seed=1)
    assert ok


@pytest.mark.parametrize("samples", [-1, 1.5, "3", True, F(5, 2), -1.0],
                         ids=["negative", "float", "string", "bool",
                              "fraction", "negative-float"])
def test_lattice_closure_rejects_bad_samples(samples):
    with pytest.raises(MalformedInput):
        lattice_closure_check(heisenberg(5, EYE3), samples=samples)


@pytest.mark.parametrize("seed", [[1], {}, None, 2.5, "x", True, F(5, 2)],
                         ids=["list", "dict", "none", "float", "string",
                              "bool", "fraction"])
@pytest.mark.parametrize("p", [5, 2], ids=["above-class", "below-class"])
def test_lattice_closure_rejects_bad_seeds(p, seed):
    # checked at entry: above the class the certificate never reads the
    # seed, below it random.Random would take most of these
    with pytest.raises(MalformedInput, match="seed must be an integer"):
        lattice_closure_check(heisenberg(p, EYE3), seed=seed)


@pytest.mark.parametrize("seed", [2.0, F(2)], ids=["float", "fraction"])
def test_lattice_closure_reads_integral_seeds(monkeypatch, seed):
    # an integral seed draws the pairs its int draws: the products the
    # sampler takes, 9 basis pairs and 5 random ones, are the same
    half_e2 = [[F(1), 0, 0], [F(0), 1, 0], [F(0), 0, F(1, 2)]]
    calls = []
    mul = bch.group_mul
    monkeypatch.setattr(bch, "group_mul", lambda a, x, y: calls.append(
        [[c.to_json() for c in v] for v in (x, y)]) or mul(a, x, y))
    want = lattice_closure_check(heisenberg(2, half_e2), samples=5, seed=2)
    drawn, calls[:] = calls[:], []
    assert len(drawn) == 14
    assert lattice_closure_check(heisenberg(2, half_e2), samples=5,
                                 seed=seed) == want
    assert calls == drawn


@pytest.mark.parametrize("samples", [2.0, F(2)], ids=["float", "fraction"])
def test_lattice_closure_reads_integral_samples(monkeypatch, samples):
    # an integral float or Fraction is read as its int, by the integer rule
    # rho_defect's n follows; at p = 2 the sampler runs, so the number of
    # products shows the samples drawn: 9 basis pairs, then 2 random ones
    half_e2 = [[F(1), 0, 0], [F(0), 1, 0], [F(0), 0, F(1, 2)]]
    calls = []
    mul = bch.group_mul
    monkeypatch.setattr(bch, "group_mul",
                        lambda *args: calls.append(args) or mul(*args))
    want = lattice_closure_check(heisenberg(2, half_e2), samples=2, seed=3)
    assert want == (True, None) and len(calls) == 11
    calls.clear()
    with pytest.raises(MalformedInput,
                       match="samples must be a non-negative integer"):
        lattice_closure_check(heisenberg(2, half_e2),
                              samples=samples + F(1, 2))
    assert lattice_closure_check(heisenberg(2, half_e2), samples=samples,
                                 seed=3) == want
    assert len(calls) == 11


def test_lattice_closure_zero_samples_checks_basis_pairs():
    assert lattice_closure_check(heisenberg(5, EYE3), samples=0) == (True,
                                                                     None)
    # at p = 2 the basis pair (e1, e2) already leaves the lattice
    assert lattice_closure_check(heisenberg(2, EYE3), samples=0) == (
        False, {"x": [1, 0, 0], "y": [0, 1, 0]})


#: lattice columns with entries 1/3 on which, at p = 3, the basis pairs of
#: free_nilpotent_class3 close under the group law but a random pair does
#: not
THIRDS = [[F(v) for v in col] for col in (
    [1, 0, -3, 0, 1], [0, 1, 1, 0, 0], [0, 0, 1, 0, -1],
    [0, 0, 0, F(1, 3), F(-1, 3)], [0, 0, 0, 0, 1])]


def free_nilpotent_class3(p, lattice=THIRDS):
    """Free nilpotent of rank 2 and class 3: e2 = [e0, e1], e3 = [e0, e2],
    e4 = [e1, e2], Frobenius the identity."""
    c = zero_bracket(5)
    for i, j, k in ((0, 1, 2), (0, 2, 3), (1, 2, 4)):
        c[i][j][k], c[j][i][k] = F(1), F(-1)
    eye = [[F(int(i == j)) for j in range(5)] for i in range(5)]
    return build(eye, c, lattice, FieldSpec(p, 1, 12))


@pytest.mark.parametrize("samples", [0, 12, 100])
def test_lattice_closure_matches_per_sample_loop(samples):
    seen = set()
    for a in (heisenberg(2, EYE3), heisenberg(5, EYE3), heisenberg(2, HALF_E2),
              heisenberg(5, FIVE_E2), free_nilpotent_class3(2),
              free_nilpotent_class3(3), free_nilpotent_class3(5)):
        want = ref_lattice_closure(a, samples, seed=0)
        assert lattice_closure_check(a, samples=samples, seed=0) == want
        seen.add("closed" if want[0] else
                 "basis witness" if all(sorted(v) == [0] * (len(v) - 1) + [1]
                                        for v in want[1].values())
                 else "sample witness")
    assert seen == ({"closed", "basis witness"} if samples == 0 else
                    {"closed", "basis witness", "sample witness"})


@pytest.mark.parametrize("a, samples, solves", [
    (heisenberg(5, EYE3), 12, [0, 1]),
    (heisenberg(5, EYE3), 0, [0, 1]),
    (heisenberg(2, EYE3), 100, [0, 1, 2]),
    (free_nilpotent_class3(3), 100, [0, 1, 2, 4, 8, 16]),
    (heisenberg(2, HALF_E2), 12, [0, 1, 2, 4, 8, 6]),
    (heisenberg(5, FIVE_E2), 12, [0, 1, 1, 2]),
], ids=["closed", "no-samples", "basis-witness", "sample-witness",
        "closed-low-p", "bracket-open-high-p"])
def test_lattice_closure_solve_batches(monkeypatch, a, samples, solves):
    # every solve against the lattice, in order: the rank check with no
    # targets, then above the class the one bracket solve, and the
    # sampler only for an open bracket or at or below the class, in
    # batches of 1, 2, 4, ... pairs up to the one with a witness
    calls = []
    for module in (bch, dieudonne):
        solve = module.coords_in_column_span
        monkeypatch.setattr(module, "coords_in_column_span",
                            lambda *args, solve=solve: calls.append(args)
                            or solve(*args))
    lattice_closure_check(a, samples=samples, seed=0)
    assert [len(targets) for basis, targets in calls
            if basis is a.lattice] == solves


def test_closed_lattice_above_class_takes_no_product(monkeypatch):
    calls = []
    mul = bch.group_mul
    monkeypatch.setattr(bch, "group_mul",
                        lambda *args, **kw: calls.append(args)
                        or mul(*args, **kw))
    for a in (heisenberg(5, EYE3), free_nilpotent_class3(5)):
        assert lattice_closure_check(a, samples=100, seed=0) == (True, None)
    assert calls == []
    # an open bracket: the sampler stops in its second batch, at the
    # failing basis pair (e0, e1)
    assert lattice_closure_check(heisenberg(5, FIVE_E2), samples=0)[0] is False
    assert len(calls) == 3


def lie_style(p, lattice, rank=4):
    """A slope -1/2 block e0, e1 (phi e0 = e1, phi e1 = -e0/p) and rank - 2
    slope -1 lines, with [e0, e1] = e2 + 2 e3 + ... + (rank - 2) e_(rank-1):
    the shapes of the lie benchmark workload whose bracket is not zero."""
    frob = [[F(0)] * rank for _ in range(rank)]
    frob[1][0], frob[0][1] = F(1), F(-1, p)
    for k in range(2, rank):
        frob[k][k] = F(1, p)
    c = zero_bracket(rank)
    for k in range(2, rank):
        c[0][1][k], c[1][0][k] = F(k - 1), F(1 - k)
    return build(frob, c, lattice, FieldSpec(p, 1, 12))


def seeded_lattices(rng, p, rank):
    """The standard lattice, then the ones with the first or the last
    column scaled by p or by 1/p, then a unipotent shear with entries
    scaled by p^-1..p."""
    eye = [[F(int(i == j)) for j in range(rank)] for i in range(rank)]
    out = [eye]
    for k in (F(p), F(1, p)):
        out += [[[v * k for v in col] if j == s else col
                 for j, col in enumerate(eye)] for s in (0, rank - 1)]
    out.append([[F(rng.randrange(-2, 3)) * p ** rng.randrange(-1, 2)
                 if i < j else F(int(i == j)) for i in range(rank)]
                for j in range(rank)])
    return out


def test_closure_certificate_agrees_with_the_sampler():
    # above the class the certificate answers as the sampler of 100 pairs,
    # which raises InvariantViolated if a product leaves a lattice closed
    # under the bracket; both kinds of lattice occur
    rng = random.Random(25)
    makes = [(p, 3, heisenberg) for p in (3, 5, 7)]
    makes += [(p, 5, free_nilpotent_class3) for p in (5, 7)]
    makes += [(p, 4, lie_style) for p in (3, 5, 7)]
    seen = set()
    for p, rank, make in makes:
        for lattice in seeded_lattices(rng, p, rank):
            a = make(p, lattice)
            assert p > lower_central_series(a)[1]
            want = ref_lattice_closure(a, 100, seed=0)
            assert lattice_closure_check(a, samples=100, seed=0) == want
            seen.add((all(dieudonne.lattice_bracket_closure(a)[1]),
                      want[0]))
    assert seen == {(True, True), (False, False)}


def test_lattice_closure_bracket_open_lattice_above_class():
    # p = 5 is above class 2, but the lattice breaks the other hypothesis
    # of the theorem: the answer is the first failing pair, not a fault
    a = heisenberg(5, FIVE_E2)
    rep = dla_validate(a)
    assert rep["lattice_bracket_closure"] is False
    assert rep["witnesses"]["lattice_bracket_closure"] == (0, 1)
    assert lattice_closure_check(a, samples=100, seed=0) == (
        False, {"x": [1, 0, 0], "y": [0, 1, 0]})


def test_lattice_closure_needs_lattice():
    with pytest.raises(MalformedInput):
        lattice_closure_check(heisenberg())


def test_typed_guards_fire(monkeypatch):
    with pytest.raises(InvariantViolated):
        standard_factorization("X")
    # a table whose denominator has a prime above the class
    monkeypatch.setattr(bch, "bch_series",
                        lambda c: FreeLieElement({"X": F(1, 7)}))
    with pytest.raises(InvariantViolated):
        denominator_profile(2)
    monkeypatch.undo()
    # a closure certificate whose series has 1/5 for 1/2 at class 2 < p = 5
    table = bch.bch_series(2).terms
    monkeypatch.setattr(bch, "bch_series", lambda c: FreeLieElement(
        {**table, "XY": F(1, 5)}))
    with pytest.raises(InvariantViolated, match="denominator prime") as exc:
        lattice_closure_check(heisenberg(5, EYE3))
    assert exc.value.witness == {"class": 2, "primes": [5]}


def test_typed_guards_fire_under_optimize():
    # the guard must not be an assert, which -O strips
    snippet = ("from isolab.bch import standard_factorization\n"
               "from isolab.errors import InvariantViolated\n"
               "try:\n"
               "    standard_factorization('X')\n"
               "except InvariantViolated:\n"
               "    print('rejected')\n")
    assert run_optimized(snippet) == "rejected\n"


# ---- the projection-defect identity ----

def test_rho_defect_abelian_zero():
    spec = SPEC
    a = build([[F(1, 5), 0], [0, F(-1, 25)]], zero_bracket(2),
              [[F(1), 0], [F(0), 1]])
    d, rep = rho_defect(a, vec(spec, 1, 1), vec(spec, 2, 3), 0)
    assert all(c.is_zero for c in d)
    assert rep["member"] is True


@pytest.mark.parametrize("lattice, member", [(None, None), ([], True)])
def test_rho_defect_rank_zero(lattice, member):
    a = DieudonneLie.from_rationals(FieldSpec(5, 1, 8), [], [],
                                    lattice_cols=lattice)
    assert rho_defect(a, [], [], 0) == (
        [], {"n": 0, "member": member, "witness": None})


def test_rho_defect_integral_pair():
    a = split_heisenberg()
    d, rep = rho_defect(a, vec(a.spec, 1, 0, 0), vec(a.spec, 0, 1, 0), 0)
    # defect is the (1/2)[e0,e1] cross term = e2/2, 5-integral
    assert rep["member"] is True
    assert not d[2].is_zero and d[2].valuation() == 0


def test_rho_defect_solves_twice(monkeypatch):
    a = split_heisenberg()
    calls = []
    solve = bch.coords_in_column_span
    monkeypatch.setattr(bch, "coords_in_column_span",
                        lambda *args: calls.append(args) or solve(*args))
    d, rep = rho_defect(a, vec(a.spec, 1, 0, 0), vec(a.spec, 0, 1, 0), 0)
    assert not all(c.is_zero for c in d) and rep["member"] is True
    assert [len(targets) for _, targets in calls] == [3, 1]


def test_closure_answers_read_only_the_lattice_rank(monkeypatch):
    # both check the lattice's rank by a solve with no targets, and the
    # closure certificate solves for the one nonzero basis bracket: neither
    # solves for phi of the lattice nor inverts a matrix
    solves, inverses = [], []
    solve, inverse = dieudonne.coords_in_column_span, dieudonne.mat_inverse
    monkeypatch.setattr(dieudonne, "coords_in_column_span",
                        lambda *args: solves.append(args) or solve(*args))
    monkeypatch.setattr(dieudonne, "mat_inverse",
                        lambda *args: inverses.append(args) or inverse(*args))
    for a, run, want in (
            (heisenberg(5, EYE3),
             lambda a: lattice_closure_check(a, samples=12, seed=0), [0, 1]),
            (split_heisenberg(),
             lambda a: rho_defect(a, vec(a.spec, 1, 0, 0),
                                  vec(a.spec, 0, 1, 0), 0), [0])):
        solves.clear()
        run(a)
        assert [len(targets) for basis, targets in solves
                if basis is a.lattice] == want
        assert inverses == []


def singular_frobenius():
    """heis_bracket over Z_5/5^8 on the lattice EYE3 with F = diag(1, 0, 0):
    the lattice keeps its rank, its phi-image has rank 1."""
    return build([[F(1), 0, 0], [0, 0, 0], [0, 0, 0]], heis_bracket(), EYE3,
                 FieldSpec(5, 1, 8))


def test_singular_frobenius_closure_needs_only_the_lattice():
    a = singular_frobenius()
    assert lattice_closure_check(a) == (True, None)
    with pytest.raises(InsufficientPrecision,
                       match="lattice comparison indeterminate") as exc:
        dla_validate(a)
    assert exc.value.witness == {"rank": 1, "size": 3}
    with pytest.raises(NonInvertible) as exc:
        rho_defect(a, vec(a.spec, 1, 0, 0), vec(a.spec, 0, 1, 0), 0)
    assert exc.value.witness == {"bound": 8}


def test_rho_defect_rejects_singular_lattice():
    # group_mul no longer reads the lattice; rho_defect still compares it
    b = split_heisenberg()
    a = DieudonneLie(b.iso, b.bracket, mat_from_rationals(
        b.spec, [[F(1), 0, F(1)], [F(0), 1, 1], [F(0), 0, 0]]))
    x, y = vec(a.spec, 1, 0, 0), vec(a.spec, 0, 1, 0)
    assert [c.to_json() for c in group_mul(a, x, y)] == [
        c.to_json() for c in group_mul(b, x, y)]
    with pytest.raises(InsufficientPrecision,
                       match="lattice comparison indeterminate"):
        rho_defect(a, x, y, 0)


def test_rho_defect_outside_minimal_slope_part(monkeypatch):
    # a minimal-slope lattice that misses the defect's direction e2
    a = split_heisenberg()
    monkeypatch.setattr(dieudonne, "lattice_intersect_subspace",
                        lambda *args: [vec(a.spec, 1, 0, 0)])
    d, rep = rho_defect(a, vec(a.spec, 1, 0, 0), vec(a.spec, 0, 1, 0), 0)
    assert rep["member"] is False
    assert rep["witness"] == {"reason": "outside the minimal-slope part"}


def test_rho_defect_isoclinic_reads_the_lattice_itself():
    # every slope is 0, so the minimal-slope part is the whole space and
    # its lattice is the algebra's: the defect e2 / 2 is not in the span of
    # e0, e1 and 5 e2, though it is in the standard lattice
    frob = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    for last, member, witness in (
            (F(1, 5), True, None),
            (F(5), False, {"valuations": [">= 16", ">= 16", "-1"]})):
        a = build(frob, heis_bracket(),
                  [[F(1), 0, 0], [F(0), 1, 0], [F(0), 0, last]])
        d, rep = rho_defect(a, vec(a.spec, 1, 0, 0), vec(a.spec, 0, 1, 0), 0)
        assert key(d[2]) == key(vec(a.spec, F(1, 2))[0])
        assert rep == {"n": 0, "member": member, "witness": witness}


def test_rho_defect_scaled_complement():
    a = split_heisenberg()
    for n in range(4):
        x = vec(a.spec, F(1, 5 ** n), 0, 0)
        d, rep = rho_defect(a, vec(a.spec, 0, 1, 0), x, n)
        assert rep["n"] == n
        assert rep["member"] is True


def test_rho_defect_zero_bound_coefficient():
    # the charpoly's T coefficient is O(2^-1) at N = 3, so the slopes are
    # not split and there is no complement to project along
    spec = FieldSpec(2, 1, 3)
    frob = [[F(1, 4), F(1, 9), F(1, 3)], [F(4), 0, F(1, 4)],
            [F(2), F(5), F(1, 5)]]
    a = build(frob, zero_bracket(3), spec=spec)
    with pytest.raises(SplitUnavailable) as exc:
        rho_defect(a, vec(spec, 1, 0, 0), vec(spec, 0, 1, 0), 0)
    assert exc.value.witness == {"coefficient": 1, "bound": -1}


@pytest.mark.parametrize("n", ["2", None, True, 1.5, F(1, 2)])
def test_rho_defect_refuses_a_non_integral_n(n):
    a = split_heisenberg()
    x, y = vec(a.spec, 1, 0, 0), vec(a.spec, 0, 1, 0)
    with pytest.raises(MalformedInput, match="n must be an integer") as exc:
        rho_defect(a, x, y, n)
    assert exc.value.witness == {"n": n}


def test_rho_defect_reads_n_as_an_int():
    # a negative bound still answers, and an integral float reads as its
    # int, as padic._integral's callers do
    a = split_heisenberg()
    x, y = vec(a.spec, 1, 0, 0), vec(a.spec, 0, 1, 0)
    d, rep = rho_defect(a, x, y, -1)
    assert rep == {"n": -1, "member": False,
                   "witness": {"valuations": ["0"]}}
    assert not all(c.is_zero for c in d)
    d2, rep2 = rho_defect(a, x, y, 2.0)
    assert rep2["n"] == 2 and type(rep2["n"]) is int
    assert [c.to_json() for c in d2] == [c.to_json() for c in d]


def test_consumers_compute_each_slot_once(monkeypatch):
    # group_mul, lattice_closure_check, rho_defect and dla_validate read
    # the class, the split, the minimal-slope lattice and the lattice
    # report from the algebra's slots: each is computed once per algebra
    calls = []
    for name in MEMO_COMPUTE.values():
        compute = getattr(dieudonne, name)
        monkeypatch.setattr(dieudonne, name, lambda *args, name=name,
                            compute=compute: calls.append(name)
                            or compute(*args))
    a = split_heisenberg()
    x, y = vec(a.spec, 1, 0, 0), vec(a.spec, 0, 1, 0)
    for _ in range(3):
        group_mul(a, x, y)
        assert lattice_closure_check(a, samples=4) == (True, None)
        assert rho_defect(a, x, y, 0)[1]["member"] is True
        assert dla_validate(a)["lattice_bracket_closure"] is True
    assert sorted(calls) == sorted(MEMO_COMPUTE.values())
    b = DieudonneLie(a.iso, a.bracket, a.lattice)  # a rebuilt algebra
    assert rho_defect(b, x, y, 0)[1]["member"] is True and dla_validate(b)
    assert sorted(calls) == sorted([*MEMO_COMPUTE.values()] * 2)


# ---- each slot keeps the memo contract (memo_contract.py) ----

def test_split_is_computed_once_per_algebra(monkeypatch):
    check_computed_once("_split", monkeypatch)


def test_split_returns_a_copy(monkeypatch):
    check_returns_a_copy("_split", monkeypatch)


def test_split_stores_only_library_errors(monkeypatch):
    check_stores_only_library_errors("_split", monkeypatch)


def test_minimal_slope_lattice_is_computed_once_per_algebra(monkeypatch):
    check_computed_once("_min_lattice", monkeypatch)


def test_minimal_slope_lattice_returns_a_copy(monkeypatch):
    check_returns_a_copy("_min_lattice", monkeypatch)


def test_minimal_slope_lattice_failure_is_replayed_as_a_fresh_error(
        monkeypatch):
    check_replays_a_fresh_error("_min_lattice", monkeypatch)


def test_minimal_slope_lattice_stores_only_library_errors(monkeypatch):
    check_stores_only_library_errors("_min_lattice", monkeypatch)


def test_lattice_report_is_computed_once_per_algebra(monkeypatch):
    check_computed_once("_lattice_report", monkeypatch)


def test_lattice_report_returns_a_copy(monkeypatch):
    check_returns_a_copy("_lattice_report", monkeypatch)


def test_lattice_report_failure_is_replayed_as_a_fresh_error(monkeypatch):
    check_replays_a_fresh_error("_lattice_report", monkeypatch)


def test_lattice_report_stores_only_library_errors(monkeypatch):
    check_stores_only_library_errors("_lattice_report", monkeypatch)


def test_built_algebra_is_not_checked_again(monkeypatch):
    # DieudonneLie.__init__ checks the bracket laws once; no operation on
    # the algebra builds another one or checks them again
    a = split_heisenberg()
    x, y = vec(a.spec, 1, 0, 0), vec(a.spec, 0, 1, 0)
    calls = []
    laws, init = dieudonne._bracket_laws, DieudonneLie.__init__
    monkeypatch.setattr(dieudonne, "_bracket_laws",
                        lambda b: calls.append("laws") or laws(b))
    monkeypatch.setattr(DieudonneLie, "__init__",
                        lambda *args: calls.append("init") or init(*args))
    assert lower_central_series(a)[1] == 2
    assert minimal_slope_center_check(a) == (True, None)
    group_mul(a, x, y)
    assert lattice_closure_check(a, samples=4) == (True, None)
    assert rho_defect(a, x, y, 0)[1]["member"] is True
    assert dla_validate(a)["lattice_bracket_closure"] is True
    assert calls == []
    DieudonneLie(a.iso, a.bracket)  # the counters see a new algebra
    assert calls == ["init", "laws"]


def rho_key(res):
    d, report = res
    return [c.to_json() for c in d], report


def zero_bound_algebra():
    """A split that raises InsufficientPrecision: the charpoly's T
    coefficient is O(2^-1) at N = 3."""
    spec = FieldSpec(2, 1, 3)
    frob = [[F(1, 4), F(1, 9), F(1, 3)], [F(4), 0, F(1, 4)],
            [F(2), F(5), F(1, 5)]]
    return build(frob, zero_bracket(3), spec=spec)


def test_split_failure_is_replayed_as_a_fresh_error(monkeypatch):
    # rho_defect answers a stored InsufficientPrecision split with a new
    # SplitUnavailable on every call; the split is computed once
    calls = []
    split = dieudonne.slope_split
    monkeypatch.setattr(dieudonne, "slope_split",
                        lambda M: calls.append(M) or split(M))
    a = zero_bound_algebra()
    x, y = vec(a.spec, 1, 0, 0), vec(a.spec, 0, 1, 0)
    raised = []
    for _ in range(3):
        with pytest.raises(SplitUnavailable,
                           match="no certified slope complement") as exc:
            rho_defect(a, x, y, 0)
        raised.append(exc.value)
    assert len({id(e) for e in raised}) == 3
    assert [e.witness for e in raised] == [{"coefficient": 1, "bound": -1}] * 3
    assert calls == [a.iso]


def thirds(p):
    """Slope -1/3 block e0, e1, e2 (phi e0 = e1, phi e1 = e2, phi e2 =
    e0/p) and slope -2/3 block e3, e4, e5 (phi e5 = e3/p^2), with [e0, e1]
    = e3, [e1, e2] = e4, [e0, e2] = -p e5: the rank-6 shape of the lie
    benchmark workload."""
    frob = [[F(0)] * 6 for _ in range(6)]
    for i in (1, 2, 4, 5):
        frob[i][i - 1] = F(1)
    frob[0][2], frob[3][5] = F(1, p), F(1, p * p)
    c = zero_bracket(6)
    for i, j, k, v in ((0, 1, 3, 1), (1, 2, 4, 1), (0, 2, 5, -p)):
        c[i][j][k], c[j][i][k] = F(v), F(-v)
    eye = [[F(int(i == j)) for j in range(6)] for i in range(6)]
    return build(frob, c, eye, FieldSpec(p, 1, 12))


def check_shared_answers_as_fresh(algebras, rng, rounds):
    """Per algebra, and per thirds(p) for p = 3, 5, 7, one copy shared by
    seeded rho_defect calls, between the other lattice operations, answers
    as a fresh copy per call, and so does every slot; its minimal-slope
    lattice is the one cut directly from a fresh split.  x has
    denominators p^k and n is k or k - 1.  Returns the report members and
    the lattice flags and witnesses seen."""
    members, seen = set(), set()
    for make in [*algebras, *(lambda p=p: thirds(p) for p in (3, 5, 7))]:
        shared, fresh = make(), make()
        rep = dla_validate(fresh)
        for _ in range(rounds):
            k = rng.randrange(3)
            n = k - rng.randrange(2)
            xp = vec(shared.spec, *(rng.randrange(-9, 10)
                                    for _ in range(shared.rank)))
            x = vec(shared.spec, *(F(rng.randrange(-9, 10), shared.spec.p ** k)
                                   for _ in range(shared.rank)))
            got = rho_key(rho_defect(shared, xp, x, n))
            assert got == rho_key(rho_defect(make(), xp, x, n))
            members.add(got[1]["member"])
            lattice_closure_check(shared, samples=3)
            assert dla_validate(shared) == rep
        for _, name in ALGEBRA_MEMO.values():
            fn = getattr(dieudonne, name)
            assert answer_key(fn(shared)) == answer_key(fn(fresh))
        direct = dieudonne.lattice_intersect_subspace(
            fresh.lattice,
            dieudonne.span_basis(isocrystal.slope_split(fresh.iso)[0][1]))
        assert answer_key(dieudonne.minimal_slope_lattice(shared)) == \
            answer_key(direct)
        seen |= {(flag, rep[flag]) for flag in ("lattice_dieudonne",
                                                "lattice_bracket_closure")}
        seen |= set(rep["witnesses"])
    return members, seen


def test_stored_split_answers_as_a_fresh_algebra():
    # 20 seeded calls per lie-workload shape on the standard lattice
    algebras = [lambda p=p, r=r: lie_style(
        p, [[F(int(i == j)) for j in range(r)] for i in range(r)], r)
        for r in (3, 4, 5, 6) for p in (3, 5, 7)]
    members, _ = check_shared_answers_as_fresh(algebras, random.Random(27), 20)
    assert members == {True, False}


def test_stored_minimal_slope_lattice_answers_as_the_direct_one():
    # 5 seeded calls per algebra on the lie workload's shapes with every
    # other seeded lattice
    rng = random.Random(29)
    algebras = [(lambda p=p, lat=lat, r=r: lie_style(p, lat, r))
                for r in (3, 4, 6) for p in (3, 5, 7)
                for lat in seeded_lattices(rng, p, r)[::2]]
    members, _ = check_shared_answers_as_fresh(algebras, rng, 5)
    assert members == {True, False}


def test_stored_lattice_report_answers_as_a_fresh_algebra():
    # every seeded lattice: Dieudonne and closed lattices occur, and ones
    # that are neither, so both witnesses are checked
    rng = random.Random(30)
    algebras = [(lambda p=p, lat=lat, r=r: lie_style(p, lat, r))
                for r in (3, 4, 6) for p in (3, 5, 7)
                for lat in seeded_lattices(rng, p, r)]
    _, seen = check_shared_answers_as_fresh(algebras, rng, 3)
    assert seen == {("lattice_dieudonne", True), ("lattice_dieudonne", False),
                    ("lattice_bracket_closure", True),
                    ("lattice_bracket_closure", False),
                    "lattice_dieudonne", "lattice_bracket_closure"}


def test_minimal_slope_lattice_needs_a_lattice():
    with pytest.raises(MalformedInput, match="no lattice"):
        dieudonne.minimal_slope_lattice(heisenberg())


# ---- one polygon per minimal-slope check ----

@pytest.mark.parametrize("make, polygons", [
    (lambda: build([[F(1, 5), 0], [0, F(1, 5)]], zero_bracket(2)), 1),
    (split_heisenberg, 2), (lambda: thirds(5), 2)],
    ids=["one-slope", "halves", "thirds"])
def test_center_check_computes_one_polygon(make, polygons, monkeypatch):
    # one twisted power and one charpoly polygon per call, plus the power
    # trick's polygon when the slopes have a denominator
    a = make()
    want = minimal_slope_center_check(a)
    calls = []
    power, polygon = isocrystal.twisted_power, isocrystal._polygon
    monkeypatch.setattr(isocrystal, "twisted_power",
                        lambda *args: calls.append("power") or power(*args))
    monkeypatch.setattr(isocrystal, "_polygon",
                        lambda *args: calls.append("polygon")
                        or polygon(*args))
    for _ in range(2):
        assert minimal_slope_center_check(a) == want == (True, None)
    assert calls == (["power"] + ["polygon"] * polygons) * 2


# ---- coordinate vectors are checked before any work ----

@pytest.mark.parametrize("fn", [
    lambda a, x, y: group_mul(a, x, y),
    lambda a, x, y: rho_defect(a, x, y, 0),
    lambda a, x, y: smallest_f_stable_subalgebra(a, [y, x])],
    ids=["group_mul", "rho_defect", "smallest_f_stable_subalgebra"])
@pytest.mark.parametrize("bad, raised, witness", [
    ([1, 0, 0], MalformedInput, {"rank": 3, "entry": "int"}),
    ([None] * 3, MalformedInput, {"rank": 3, "entry": "NoneType"}),
    ([F(1), 0, 0], MalformedInput, {"rank": 3, "entry": "Fraction"}),
    (5, MalformedInput, {"rank": 3}),
    (vec(FieldSpec(7, 1, 16), 1, 0, 0), FieldSpecMismatch,
     {"left": {"p": 7, "f": 1, "N": 16}, "right": {"p": 5, "f": 1, "N": 16}}),
], ids=["int", "none", "fraction", "no-length", "other-ring"])
def test_coordinate_vectors_are_checked(fn, bad, raised, witness):
    a = split_heisenberg()
    with pytest.raises(raised) as exc:
        fn(a, bad, vec(a.spec, 0, 1, 0))
    assert exc.value.witness == witness


def test_law_witnesses_come_before_the_lattice_witnesses():
    c = heis_bracket()
    c[1][0][2] = F(0)  # breaks antisymmetry at (0, 1, 2)
    a = build(EYE3, c, [[F(1), 0, 0], [0, F(1, 5), 0], [0, 0, F(1)]])
    assert list(dla_validate(a)["witnesses"]) == ["antisymmetry",
                                                  "lattice_bracket_closure"]


def test_lattice_report_needs_a_lattice():
    with pytest.raises(MalformedInput, match="no lattice"):
        dieudonne.lattice_report(heisenberg())
    assert dla_validate(heisenberg())["lattice_dieudonne"] is None
