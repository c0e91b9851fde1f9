"""The twelve gate checks, one test each; run with -v for per-line results.

Each criterion test prints one `criterion NN: PASS` line (visible under -s)
with the scale it ran at; a failure shows up as the test's FAILED line.
"""

import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import isolab
from isolab import (DieudonneLie, FieldSpec, PadicScalar,
                    PerfectedSeries, RestrictedParams, RootDatumWithCochar,
                    adjoint_slope_cross_check, denominator_profile,
                    lattice_closure_check, leaf_dimension,
                    membership_restricted, minimal_slope_center_check,
                    newton_slopes, ps_add, rho_defect,
                    rigidity_check, slope_multiset_from_roots, slope_split)
from isolab.dieudonne import dla_validate, pdiv_dimension
from isolab.errors import MalformedInput
from isolab.linalg import rat_rref
from isolab.roots import coxeter_gate

from reference import (CLI_COMMANDS, EYE3, X, badseries, gl, gsp, heisenberg,
                       iso, ref_bch_matrix_oracle, split_heisenberg,
                       zero_bracket)

F = Fraction


def _report(num, detail):
    print(f"criterion {num:02d}: PASS ({detail})")


def test_criterion_01_slope_normalization():
    t0 = time.time()
    spec = FieldSpec(5, 1, 16)
    assert newton_slopes(iso([[1]], spec)) == [(F(0), 1)]
    assert newton_slopes(iso([["1/5"]], spec)) == [(F(-1), 1)]
    _report(1, f"exact, {time.time() - t0:.2f}s")


def test_criterion_02_supersingular_block():
    t0 = time.time()
    spec = FieldSpec(5, 1, 16)
    M = iso([[0, "1/5"], [1, 0]], spec)
    assert newton_slopes(M) == [(F(-1, 2), 2)]
    blocks = slope_split(M)
    assert len(blocks) == 1
    lam, _, sub = blocks[0]
    assert lam == F(-1, 2) and sub.rank == 2
    _report(2, f"exact, {time.time() - t0:.2f}s")


def _dominant_tuples(length, coords=(0, -1, -2)):
    for nu in itertools.combinations_with_replacement(
            sorted(coords, reverse=True), length):
        yield nu


def test_criterion_03_dimension_identity():
    t0 = time.time()
    cases = 0
    data = [("GL", 2), ("GL", 3), ("GL", 4), ("GSp", 2), ("GSp", 4),
            ("GSp", 6), ("SO", 4), ("SO", 5), ("SO", 6), ("SO", 7)]
    for typ, n in data:
        for nu in _dominant_tuples(n):
            try:
                d = RootDatumWithCochar(typ, n, [F(v) for v in nu])
            except MalformedInput:
                continue
            cases += 1
            dim = leaf_dimension(d)
            assert dim == pdiv_dimension(slope_multiset_from_roots(d),
                                         check_range=False)
    assert cases <= 200
    assert leaf_dimension(gsp(4, 0, 0, -1, -1)) == 3
    assert leaf_dimension(gl(2, 0, -1)) == 1
    _report(3, f"{cases} root data, {time.time() - t0:.2f}s")


def test_criterion_04_adjoint_cross_check():
    t0 = time.time()
    spec = FieldSpec(5, 1, 48)
    cases = 0
    for n in (2, 3, 4):
        for nu in _dominant_tuples(n):
            d = gl(n, *nu)
            got = adjoint_slope_cross_check(d, spec)
            assert got == slope_multiset_from_roots(d)
            cases += 1
    _report(4, f"{cases} diagonal classes, {time.time() - t0:.2f}s")


def test_criterion_05_bch_oracle():
    t0 = time.time()
    for c in range(1, 6):
        assert ref_bch_matrix_oracle(c) is None, (
            f"oracle disagrees at degree {c}")
    for c in range(1, 9):
        primes = denominator_profile(c)
        assert all(q <= c for q in primes), (c, primes)
    _report(5, f"degrees 1-5 exact + profiles 1-8, {time.time() - t0:.2f}s")


def test_criterion_06_lattice_closure_gate():
    t0 = time.time()
    ok, wit = lattice_closure_check(heisenberg(5, EYE3), samples=100, seed=0)
    assert ok and wit is None
    bad, wit2 = lattice_closure_check(heisenberg(2, EYE3), samples=100, seed=0)
    assert not bad and wit2 is not None
    _report(6, f"p=5 closed 100/100, p=2 witness {wit2}, "
               f"{time.time() - t0:.2f}s")


def test_criterion_07_rho_defect_containment():
    t0 = time.time()
    a = split_heisenberg(N=24)
    spec = a.spec
    rng = random.Random(20240907)
    checked = 0
    for n in range(4):
        for _ in range(50):
            xp = [PadicScalar.from_int(spec, rng.randrange(-9, 10))
                  for _ in range(3)]
            x = [PadicScalar.from_fraction(
                    spec, F(rng.randrange(-9, 10), 5 ** n)),
                 PadicScalar.from_fraction(
                    spec, F(rng.randrange(-9, 10), 5 ** n)),
                 PadicScalar.from_int(spec, rng.randrange(-9, 10))]
            _, rep = rho_defect(a, xp, x, n)
            assert rep["member"] is True, (n, rep)
            checked += 1
    _report(7, f"{checked} pairs over n in 0..3, {time.time() - t0:.2f}s")


# -- criterion 8: random valid strictly-negative Dieudonne-Lie algebras ----

_SHAPES = [
    # (kind, params) blocks: scaled lines and companion blocks, plus
    # sign-twisted variants so the equivariance kernel is not always zero
    [("line", (-1, 1))] * 2,
    [("line", (-1, 1))] * 3,
    [("line", (-1, 1))] * 4,
    [("simple", (-1, 2, 1))],
    [("simple", (-1, 2, 1)), ("line", (-1, 1))],
    [("simple", (-1, 2, -1)), ("line", (-1, 1))],
    [("simple", (-1, 2, -1)), ("line", (-1, 1)), ("line", (-1, 1))],
    [("simple", (-1, 2, -1)), ("line", (-1, 1)), ("line", (-1, -1))],
    [("simple", (-1, 2, -1)), ("simple", (-1, 2, 1))],
    [("simple", (-1, 3, 1))],
    [("simple", (-1, 3, -1)), ("line", (-1, 1))],
    [("simple", (-2, 3, 1)), ("line", (-1, 1))],
    [("simple", (-1, 4, 1))],
    [("simple", (-3, 4, -1))],
]


def _frob_for_shape(shape):
    """Block-diagonal rational Frobenius with strictly negative slopes."""
    blocks = []
    for kind, param in shape:
        if kind == "line":
            a, sign = param
            blocks.append([[sign * F(5) ** a]])
        else:
            a, r, sign = param
            B = [[F(0)] * r for _ in range(r)]
            for i in range(1, r):
                B[i][i - 1] = F(1)
            B[0][r - 1] = sign * F(5) ** a
            blocks.append(B)
    n = sum(len(b) for b in blocks)
    out = [[F(0)] * n for _ in range(n)]
    ofs = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[ofs + i][ofs + j] = v
        ofs += len(b)
    return out


def rat_nullspace(M):
    """Basis of the rational kernel, as column vectors."""
    if not M:
        return []
    n = len(M[0])
    rows, pivots = rat_rref(M)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        vec = [F(0)] * n
        vec[j] = F(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][j]
        basis.append(vec)
    return basis


def test_rat_nullspace():
    M = [[F(1), F(2), F(3)]]
    ns = rat_nullspace(M)
    assert len(ns) == 2
    for v in ns:
        assert sum(M[0][j] * v[j] for j in range(3)) == 0


def _equivariance_kernel(frob):
    """Rational basis of brackets c with [Fx, Fy] = F[x, y] built in."""
    n = len(frob)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    unknowns = [(ab, m) for ab in range(len(pairs)) for m in range(n)]
    rows = []
    for (i, j) in pairs:
        for m in range(n):
            row = [F(0)] * len(unknowns)
            for ab, (aa, bb) in enumerate(pairs):
                coef = frob[aa][i] * frob[bb][j] - frob[bb][i] * frob[aa][j]
                if coef:
                    row[ab * n + m] += coef
            for k in range(n):
                if frob[m][k]:
                    row[pairs.index((i, j)) * n + k] -= frob[m][k]
            rows.append(row)
    return pairs, rat_nullspace(rows)


def _bracket_from_coords(pairs, kernel, coeffs, n):
    c = zero_bracket(n)
    for vec, lam in zip(kernel, coeffs):
        if not lam:
            continue
        for ab, (i, j) in enumerate(pairs):
            for m in range(n):
                v = lam * vec[ab * n + m]
                if v:
                    c[i][j][m] += v
                    c[j][i][m] -= v
    return c


def test_criterion_08_minimal_slope_centrality():
    t0 = time.time()
    rng = random.Random(20240908)
    spec = FieldSpec(5, 1, 24)
    kernels = {i: _equivariance_kernel(_frob_for_shape(s))
               for i, s in enumerate(_SHAPES)}
    tested = 0
    attempts = 0
    while tested < 500:
        attempts += 1
        assert attempts < 20000, "generator stalled"
        si = rng.randrange(len(_SHAPES))
        frob = _frob_for_shape(_SHAPES[si])
        n = len(frob)
        pairs, kernel = kernels[si]
        coeffs = [F(rng.randrange(-3, 4)) for _ in kernel]
        bracket = _bracket_from_coords(pairs, kernel, coeffs, n)
        a = DieudonneLie.from_rationals(spec, frob, bracket)
        rep = dla_validate(a)
        assert rep["antisymmetry"] and rep["f_equivariance"]
        if not rep["jacobi"]:
            continue  # the kernel is linear; Jacobi is the one filter
        ok, wit = minimal_slope_center_check(a)
        assert ok, (si, coeffs, wit)
        tested += 1
    _report(8, f"{tested} algebras from {attempts} samples, "
               f"{time.time() - t0:.2f}s")


def test_criterion_09_restricted_membership():
    t0 = time.time()
    rng = random.Random(20240909)
    agreed = 0
    while agreed < 1000:
        p = rng.choice([2, 3])
        terms = {}
        for _ in range(rng.randrange(1, 7)):
            e = F(rng.randrange(0, 8 * p ** 3 + 1), p ** rng.randrange(0, 4))
            if e <= 8:
                terms[(e,)] = (1,)
        if not terms:
            continue
        a = PerfectedSeries(p, 1, 1, 8, terms)
        r = rng.randrange(1, 3)
        s = r + rng.randrange(1, 3)
        params = RestrictedParams(r, s, rng.randrange(0, 3))
        okd, witd = membership_restricted(a, params, method="definitional")
        okc, witc = membership_restricted(a, params, method="closed_form")
        assert okd == okc, (a.to_json(), params.r, params.s, params.n0)
        # method="both" asserts agreement internally as well
        okb, _ = membership_restricted(a, params, method="both")
        assert okb == okd
        agreed += 1

    for method in ("definitional", "closed_form"):
        ok, wit = membership_restricted(badseries(), RestrictedParams(1, 2, 0),
                                        method=method)
        assert not ok and wit is not None

    for _ in range(50):
        terms = {(F(rng.randrange(0, 9)),): (1,) for _ in range(3)}
        ordinary = PerfectedSeries(2, 1, 1, 8, terms)
        ok, _ = membership_restricted(ordinary, RestrictedParams(1, 2, 0))
        assert ok
    _report(9, f"1000 random series + corpus checks, {time.time() - t0:.2f}s")


def test_criterion_10_rigidity_checker():
    t0 = time.time()
    u, v = X(D=16, nvars=2, slot=0), X(D=16, nvars=2, slot=1)
    from isolab import ps_add
    f = ps_add(u, v)          # u - v in characteristic 2
    g = X(D=16)
    pos = rigidity_check(f, [g, g], [], 1, [1, 3, 9], powered_block="g")
    assert pos["congruences"] == [True, True, True]
    assert pos["ratio_ok"] and pos["evaluation_zero"]

    neg = rigidity_check(X(D=24), [X(D=24)], [], 2,
                         [1, 5, 21], powered_block="g")
    q = 4
    first_over = next(n for n, d in enumerate([1, 5, 21]) if d > q ** n)
    assert neg["congruences"][first_over] is False
    assert all(neg["congruences"][:first_over])
    assert neg["ratio_ok"] and not neg["evaluation_zero"]

    viol = rigidity_check(f, [g, g], [], 1, [2, 4, 8], powered_block="g")
    assert viol["ratio_ok"] is False
    _report(10, f"positive/negative/hypothesis instances, "
                f"{time.time() - t0:.2f}s")


def test_criterion_11_coxeter_gate():
    t0 = time.time()
    cases = 0
    for n in (2, 3, 4, 5):
        for nu in _dominant_tuples(n, (0, -1, -2, -3)):
            rep = coxeter_gate(gl(n, *nu), 7)
            assert rep["n_class"] <= rep["h"] - 1
            cases += 1
    for g in (1, 2, 3):
        for nu in _dominant_tuples(2 * g, (0, -1, -2, -3)):
            try:
                d = gsp(2 * g, *nu)
            except MalformedInput:
                continue
            rep = coxeter_gate(d, 7)
            assert rep["n_class"] <= rep["h"] - 1
            cases += 1
    _report(11, f"{cases} exhaustive cochars, {time.time() - t0:.2f}s")


def test_criterion_12_cli_determinism(corpus_dir):
    t0 = time.time()
    root = corpus_dir.parent
    # the child's PYTHONPATH leads with the isolab package under test, so
    # neither a relative PYTHONPATH nor an installed copy decides which runs
    pkg_root = str(pathlib.Path(isolab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))}
    runs = []
    for argv in CLI_COMMANDS:
        outs = []
        for _ in range(2):
            r = subprocess.run([sys.executable, "-m", "isolab.cli"] + argv,
                               capture_output=True, cwd=root, env=env)
            outs.append((r.returncode, r.stdout))
        assert outs[0] == outs[1], argv
        assert outs[0][1].endswith(b"\n")
        json.loads(outs[0][1])  # every output re-parses
        runs.append([outs[0][0], outs[0][1].decode()])
    # every guard holds without asserts: one python -O child runs all the
    # commands through cli.main and must answer each one the same
    snippet = ("import contextlib, io, json, sys\n"
               "from isolab.cli import main\n"
               "if not sys.flags.optimize:\n"
               "    sys.exit('not run under -O')\n"
               "runs = []\n"
               "for argv in json.loads(sys.argv[1]):\n"
               "    out = io.StringIO()\n"
               "    with contextlib.redirect_stdout(out):\n"
               "        code = main(argv)\n"
               "    runs.append([code, out.getvalue()])\n"
               "print(json.dumps(runs))\n")
    r = subprocess.run([sys.executable, "-O", "-c", snippet,
                        json.dumps(CLI_COMMANDS)], capture_output=True,
                       cwd=root, env=env, stdin=subprocess.DEVNULL)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == runs
    _report(12, f"{len(CLI_COMMANDS)} commands x2 runs and once under -O, "
                f"{time.time() - t0:.2f}s")
