"""The four benchmark workloads: seeded inputs, ops and answer checks.

Each workload has two halves.  ``generate(seed)`` draws a pool of input
specs (plain JSON data, no isolab objects), so the same seed gives
byte-identical inputs on every commit.  ``build(specs, isolab)`` turns the
specs into ``Op`` objects against a freshly imported isolab.

An op is one call into isolab's public API, looked up on the module at call
time so that the tracer's rebound wrappers see it.  Its answer is checked
against something the workload knows independently of the call (the
constructed slopes, an identity, a second algorithm), and every later run
of the same op must reproduce the first answer exactly.
"""

import io
import json
import random
import sys
from fractions import Fraction
from math import ceil, floor, gcd

F = Fraction

#: standard_simple(a, r) models whose slopes a/r lie in [-1, 0]
SIMPLE_BLOCKS = [(0, 1), (-1, 1), (-1, 2), (-1, 3), (-2, 3), (-1, 4), (-3, 4)]


class Op:
    """One closed-loop operation.

    call() makes the single API call; canon(result) gives canonical JSON
    data for the digest; check(result) says whether the answer is right.
    A ``probe`` op may raise: it is a precision-edge input beyond the
    single-precision integralization limit.  It runs once per run, outside
    the timed loop, and the number that raise is reported, not hidden.
    """

    __slots__ = ("kind", "call", "canon", "check", "probe")

    def __init__(self, kind, call, canon, check, probe=False):
        self.kind = kind
        self.call = call
        self.canon = canon
        self.check = check
        self.probe = probe


def _s(x):
    return str(F(x))


def _lcm(a, b):
    return a // gcd(a, b) * b


# --------------------------------------------------------------------------
# slopes: newton_slopes, slope_split, internal_hom, adjoint cross-check
# --------------------------------------------------------------------------

def _block_slopes(blocks):
    out = {}
    for a, r in blocks:
        lam = F(a, r)
        out[lam] = out.get(lam, 0) + r
    return sorted(out.items())


def digit_demand(blocks, f):
    """Digits the slope power trick spends: d * f * (n * |min slope| - sum|slope|).

    slope_split raises the linearized Frobenius to the power d that clears
    slope denominators and integralizes it at a single precision, so this is
    roughly how many of the N digits the constant coefficient consumes.
    """
    lams = [F(a, r) for a, r in blocks for _ in range(r)]
    d = 1
    if len(set(lams)) > 1:
        for lam in set(lams):
            d = _lcm(d, (lam * f).denominator)
    n = len(lams)
    return d * f * (n * max(-x for x in lams) - sum(-x for x in lams))


def _draw_blocks(rng, rank):
    blocks = []
    while sum(r for _, r in blocks) < rank:
        left = rank - sum(r for _, r in blocks)
        blocks.append(rng.choice([b for b in SIMPLE_BLOCKS if b[1] <= left]))
    return blocks


def _draw_module(rng, rank, f, p, N, blocks=None):
    """Spec of F = P D sigma(P)^-1 with D block-diagonal standard models.

    The power trick may need at most half of the N digits, so every one of
    these ops must succeed; inputs near the precision limit form the
    separate edge share.  Blocks not given are drawn at random.
    """
    while blocks is None:
        blocks = _draw_blocks(rng, rank)
        if 2 * digit_demand(blocks, f) > N:
            blocks = None
    if sum(r for _, r in blocks) != rank or 2 * digit_demand(blocks, f) > N:
        raise ValueError(f"blocks {blocks} do not fit rank {rank}, N {N}")
    # P is the product of one elementary matrix per off-diagonal position,
    # so it is dense, with Z_q entries whose nonzero t-components (f > 1)
    # make sigma act on P nontrivially; the seed draws their values
    moves = [[i, j, [rng.choice([-2, -1, 1, 2])]
              + [rng.choice([-1, 1]) for _ in range(f - 1)]]
             for i in range(rank) for j in range(rank) if i != j]
    return {"p": p, "f": f, "N": N, "blocks": [list(b) for b in blocks],
            "moves": moves}


#: digits an edge input's determinant needs, as shares of N: half below N,
#: which run in the timed loop, and half at or above it, which make up the
#: probe that runs once per run (Op.probe)
EDGE_SHARES = [F(1, 4), F(1, 2), F(3, 4), F(7, 8), F(9, 8), F(5, 4), F(3, 2),
               F(2)]


def _draw_edge(rng, share):
    """Exact-power diagonal or monomial Frobenius at N in 3..8.

    The digits its determinant needs, sum(e_i - min e) with min e <= 0, are
    set to the given share of N, so every seed has the same mix of inputs
    below and above the single-precision integralization limit.
    """
    p = rng.choice([2, 3, 5])
    N = rng.randrange(3, 9)
    n = rng.randrange(2, 5)
    need = min(floor(share * N), N - 1) if share < 1 else ceil(share * N)
    low = rng.randrange(-4, 1)
    cuts = sorted(rng.randrange(0, need + 1) for _ in range(n - 2))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [need])]
    exps = [low] + [low + x for x in parts]
    rng.shuffle(exps)
    perm = list(range(n))
    if rng.random() < 0.5:
        rng.shuffle(perm)
    return {"p": p, "N": N, "exps": exps, "perm": perm}


def _edge_slopes(spec):
    """Slopes of the monomial matrix: one per cycle of the permutation."""
    perm, exps = spec["perm"], spec["exps"]
    seen, out = set(), {}
    for start in range(len(perm)):
        if start in seen:
            continue
        cyc, i = [], start
        while i not in seen:
            seen.add(i)
            cyc.append(i)
            i = perm[i]
        lam = F(sum(exps[c] for c in cyc), len(cyc))
        out[lam] = out.get(lam, 0) + len(cyc)
    return sorted(out.items())


def _draw_hom(rng, rank, f, p):
    """Source and target over one ring, N >= 40 (hom slopes span 2)."""
    N = 32 + 8 * rank * f
    return {"op": "internal_hom", "source": _draw_module(rng, 2, f, p, N),
            "target": _draw_module(rng, rank, f, p, N)}


#: (rank, f, p, N, slope blocks) per newton_slopes op and (rank, f, p, N,
#: fine, slope blocks) per slope_split op: a seed draws only P, so the cost
#: of each op stays alike across seeds.  Five alike newton_slopes ops sit
#: where the median latency falls.
NEWTON_TEMPLATES = [
    (2, 1, 2, 16, [(-1, 1), (0, 1)]), (3, 1, 3, 24, [(-1, 2), (0, 1)]),
    (3, 2, 5, 32, [(-1, 3)]), (2, 3, 5, 48, [(-1, 2)]),
] + [(4, 2, 3, 40, [(-1, 2), (-1, 1), (0, 1)])] * 5 + [
    (6, 3, 2, 36, [(-2, 3), (-1, 1), (0, 1), (-1, 1)])]
SPLIT_TEMPLATES = [
    (3, 1, 3, 24, False, [(-1, 2), (0, 1)]),
    (4, 2, 5, 32, False, [(-1, 2), (-1, 1), (0, 1)]),
    (5, 3, 2, 48, False, [(-1, 3), (-1, 1), (0, 1)]),
    (6, 1, 5, 40, False, [(-1, 2), (-1, 3), (0, 1)]),
    (4, 3, 3, 56, True, [(-1, 3), (0, 1)]),
    (5, 2, 2, 64, True, [(-1, 2), (-2, 3)]),
    (6, 2, 3, 36, True, [(-1, 3), (-1, 2), (0, 1)]),
]
HOM_TEMPLATES = [(2, 1, 5), (3, 2, 2), (2, 3, 3), (3, 1, 3)]
#: (p, GL(n) cocharacter) for the adjoint cross-check; a seed shifts it
#: along the center, which leaves the adjoint action unchanged
ADJOINT_TEMPLATES = [(2, (0, -1, -2)), (3, (0, 0, -1)), (5, (0, -1, -1)),
                     (3, (0, -1, -1, -2))]


def generate_slopes(seed):
    rng = random.Random(seed)
    pool = [
        *[dict(op="newton_slopes", **_draw_module(rng, r, f, p, N, blocks=b))
         for r, f, p, N, b in NEWTON_TEMPLATES],
        *[dict(op="slope_split", fine=fine,
               **_draw_module(rng, r, f, p, N, blocks=b))
          for r, f, p, N, fine, b in SPLIT_TEMPLATES],
        *[_draw_hom(rng, r, f, p) for r, f, p in HOM_TEMPLATES],
        *[{"op": "adjoint_slope_cross_check", "n": len(nu), "p": p, "N": 48,
           "nu": [v - c for v in nu]}
          for p, nu in ADJOINT_TEMPLATES for c in [rng.randrange(3)]],
        *[dict(op="newton_slopes", edge=True, **_draw_edge(rng, share))
          for share in EDGE_SHARES],
    ]
    # shuffled, so that any stretch of a pass has the whole mix
    rng.shuffle(pool)
    return pool


def _module(isolab, spec):
    from isolab.linalg import mat_identity, mat_mul, mat_sigma

    fs = isolab.FieldSpec(spec["p"], spec["f"], spec["N"])
    n = sum(r for _, r in spec["blocks"])
    zero = isolab.PadicScalar.zero(fs)
    D = [[zero] * n for _ in range(n)]
    off = 0
    for a, r in spec["blocks"]:
        S = isolab.standard_simple(fs, a, r).F
        for i in range(r):
            for j in range(r):
                D[off + i][off + j] = S[i][j]
        off += r
    P = mat_identity(fs, n)
    Pinv = mat_identity(fs, n)
    for i, j, coeffs in spec["moves"]:
        c = isolab.PadicScalar.from_coeffs(fs, coeffs)
        E = [list(row) for row in mat_identity(fs, n)]
        Einv = [list(row) for row in mat_identity(fs, n)]
        E[i][j], Einv[i][j] = c, -c
        P, Pinv = mat_mul(P, E), mat_mul(Einv, Pinv)
    return isolab.Isocrystal(fs, mat_mul(mat_mul(P, D), mat_sigma(Pinv)))


def _slope_pairs(pairs):
    return [[_s(lam), m] for lam, m in pairs]


def _matrix_json(M):
    return [[c.to_json() for c in row] for row in M]


def build_slopes(specs, isolab):
    ops = []
    for spec in specs:
        kind = spec["op"]
        if spec.get("edge"):
            fs = isolab.FieldSpec(spec["p"], 1, spec["N"])
            n = len(spec["exps"])
            low = min(spec["exps"])
            need = sum(e - low for e in spec["exps"])
            rows = [[F(0)] * n for _ in range(n)]
            for i, e in enumerate(spec["exps"]):
                rows[i][spec["perm"][i]] = F(spec["p"]) ** e
            M = isolab.Isocrystal.from_rationals(fs, rows)
            want = _edge_slopes(spec)
            ops.append(Op("newton_slopes.edge",
                          lambda M=M: isolab.newton_slopes(M),
                          _slope_pairs, lambda got, w=want: got == w,
                          probe=need >= spec["N"]))
        elif kind == "newton_slopes":
            M = _module(isolab, spec)
            want = _block_slopes(spec["blocks"])
            ops.append(Op(kind, lambda M=M: isolab.newton_slopes(M),
                          _slope_pairs, lambda got, w=want: got == w))
        elif kind == "slope_split":
            M = _module(isolab, spec)
            want = _block_slopes(spec["blocks"])
            ops.append(Op(
                kind,
                lambda M=M, fine=spec["fine"]: isolab.slope_split(M, fine=fine),
                lambda blocks: [
                    {"slope": _s(lam), "rank": sub.rank,
                     "basis": _matrix_json(basis),
                     "frobenius": _matrix_json(sub.F)}
                    for lam, basis, sub in blocks],
                lambda blocks, w=want: [(lam, sub.rank)
                                        for lam, _, sub in blocks] == w))
        elif kind == "internal_hom":
            Y, Z = _module(isolab, spec["source"]), _module(isolab, spec["target"])
            want = {}
            for ly, my in _block_slopes(spec["source"]["blocks"]):
                for lz, mz in _block_slopes(spec["target"]["blocks"]):
                    want[lz - ly] = want.get(lz - ly, 0) + my * mz
            want = sorted(want.items())
            ops.append(Op(
                kind, lambda Y=Y, Z=Z: isolab.internal_hom(Y, Z),
                lambda hom: hom.to_json(),
                # Hom(Y, Z) has slopes lambda_Z - lambda_Y
                lambda hom, w=want, n=Y.rank * Z.rank: (
                    hom.rank == n and isolab.newton_slopes(hom) == w)))
        elif kind == "adjoint_slope_cross_check":
            d = isolab.RootDatumWithCochar("GL", spec["n"],
                                           [F(v) for v in spec["nu"]])
            fs = isolab.FieldSpec(spec["p"], 1, spec["N"])
            want = isolab.slope_multiset_from_roots(d)
            ops.append(Op(
                kind,
                lambda d=d, fs=fs: isolab.adjoint_slope_cross_check(d, fs),
                _slope_pairs, lambda got, w=want: got == w))
        else:
            raise ValueError(kind)
    return ops


# --------------------------------------------------------------------------
# lie: random Dieudonne-Lie algebras, generated as in acceptance criterion 8
# --------------------------------------------------------------------------

#: block shapes of strictly negative slope: ("line", (a, sign)) is the 1x1
#: block sign * p^a, ("simple", (a, r, sign)) the companion block of slope
#: a/r.  These are the shapes of criterion 8 whose Frobenius-equivariant
#: brackets are not all zero, plus larger ones of rank 5 and 6.
LIE_SHAPES = [
    [("simple", (-1, 2, -1)), ("line", (-1, 1))],
    [("simple", (-1, 2, -1)), ("line", (-1, 1)), ("line", (-1, 1))],
    [("simple", (-1, 2, -1)), ("line", (-1, 1)), ("line", (-1, -1))],
    [("simple", (-1, 2, -1)), ("simple", (-1, 2, -1)), ("line", (-1, 1))],
    [("simple", (-1, 2, -1)), ("simple", (-1, 2, 1)), ("line", (-1, 1))],
    [("simple", (-1, 2, -1)), ("line", (-1, 1)), ("line", (-1, 1)),
     ("line", (-1, -1))],
    [("simple", (-1, 3, 1)), ("simple", (-2, 3, 1))],
]


def _frob_for_shape(shape, p):
    blocks = []
    for kind, param in shape:
        if kind == "line":
            a, sign = param
            blocks.append([[sign * F(p) ** a]])
        else:
            a, r, sign = param
            B = [[F(0)] * r for _ in range(r)]
            for i in range(1, r):
                B[i][i - 1] = F(1)
            B[0][r - 1] = sign * F(p) ** a
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


def _nullspace(rows, ncols):
    """Rational kernel basis by reduced row echelon form.

    Kept here rather than borrowed from isolab.linalg so that the generated
    inputs do not change when the library's linear algebra does.
    """
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                k = rows[i][c]
                rows[i] = [a - k * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [F(0)] * ncols
        v[j] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][j]
        basis.append(v)
    return basis


def _equivariance_kernel(frob):
    """Brackets c with [Fx, Fy] = F[x, y], as a rational kernel basis."""
    n = len(frob)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = []
    for (i, j) in pairs:
        for m in range(n):
            row = [F(0)] * (len(pairs) * n)
            for ab, (aa, bb) in enumerate(pairs):
                coef = frob[aa][i] * frob[bb][j] - frob[bb][i] * frob[aa][j]
                if coef:
                    row[ab * n + m] += coef
            for k in range(n):
                if frob[m][k]:
                    row[pairs.index((i, j)) * n + k] -= frob[m][k]
            rows.append(row)
    return pairs, _nullspace(rows, len(pairs) * n)


def _bracket_from_coords(pairs, kernel, coeffs, n):
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for vec, lam in zip(kernel, coeffs):
        for ab, (i, j) in enumerate(pairs):
            for m in range(n):
                v = lam * vec[ab * n + m]
                if v:
                    c[i][j][m] += v
                    c[j][i][m] -= v
    # clearing denominators keeps both laws (they are homogeneous) and makes
    # the standard lattice closed under the bracket
    den = 1
    for plane in c:
        for cell in plane:
            for v in cell:
                den = _lcm(den, v.denominator)
    return [[[v * den for v in cell] for cell in plane] for plane in c]


def _rat_bracket(c, x, y):
    n = len(c)
    out = [F(0)] * n
    for i in range(n):
        if x[i]:
            for j in range(n):
                if y[j]:
                    w = x[i] * y[j]
                    for k in range(n):
                        if c[i][j][k]:
                            out[k] += w * c[i][j][k]
    return out


def _jacobi_holds(c):
    n = len(c)
    e = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                t = [a + b + d for a, b, d in zip(
                    _rat_bracket(c, e[i], _rat_bracket(c, e[j], e[k])),
                    _rat_bracket(c, e[j], _rat_bracket(c, e[k], e[i])),
                    _rat_bracket(c, e[k], _rat_bracket(c, e[i], e[j])))]
                if any(t):
                    return False
    return True


def bch_degree3(c, x, y):
    """log(exp x exp y) through degree 3, exact when 4-fold brackets vanish."""
    xy = _rat_bracket(c, x, y)
    xxy = _rat_bracket(c, x, xy)
    yxy = _rat_bracket(c, y, xy)
    return [a + b + h / 2 + (u - v) / 12
            for a, b, h, u, v in zip(x, y, xy, xxy, yxy)]


LIE_KINDS = ["dla_validate", "lower_central_series",
             "minimal_slope_center_check", "group_mul",
             "lattice_closure_check", "rho_defect"]


def _draw_algebra(rng, kernels, shapes, p):
    """(shape index, integral bracket) of a random valid algebra."""
    while True:
        si = rng.choice(shapes)
        frob = _frob_for_shape(LIE_SHAPES[si], p)
        if (si, p) not in kernels:
            kernels[si, p] = _equivariance_kernel(frob)
        pairs, kernel = kernels[si, p]
        coeffs = [F(rng.randrange(-3, 4)) for _ in kernel]
        bracket = _bracket_from_coords(pairs, kernel, coeffs, len(frob))
        # as in criterion 8, Jacobi is the one filter; a zero bracket is
        # skipped so that every algebra has content
        if any(v for pl in bracket for cell in pl for v in cell) \
                and _jacobi_holds(bracket):
            return si, bracket


def generate_lie(seed):
    rng = random.Random(seed)
    kernels = {}
    pool = []
    for ki, kind in enumerate(LIE_KINDS):
        for shape in range(len(LIE_SHAPES)):
            p = (3, 5, 7)[(ki + shape) % 3]
            si, bracket = _draw_algebra(rng, kernels, [shape], p)
            n = len(bracket)
            spec = {"op": kind, "p": p, "N": 24, "shape": si,
                    "bracket": [[[_s(v) for v in cell] for cell in plane]
                                for plane in bracket]}
            if kind == "group_mul":
                spec["x"] = [rng.randrange(-9, 10) for _ in range(n)]
                spec["y"] = [rng.randrange(-9, 10) for _ in range(n)]
            elif kind == "lattice_closure_check":
                spec["samples"] = 12
                spec["seed"] = rng.randrange(1000)
            elif kind == "rho_defect":
                k = rng.randrange(3)
                spec["n"] = k
                spec["xprime"] = [rng.randrange(-9, 10) for _ in range(n)]
                spec["x"] = [_s(F(rng.randrange(-9, 10), p ** k))
                             for _ in range(n)]
            pool.append(spec)
    rng.shuffle(pool)
    return pool


def _algebra(isolab, spec):
    p = spec["p"]
    frob = _frob_for_shape(LIE_SHAPES[spec["shape"]], p)
    n = len(frob)
    bracket = [[[F(v) for v in cell] for cell in plane]
               for plane in spec["bracket"]]
    eye = [[F(int(i == j)) for i in range(n)] for j in range(n)]
    fs = isolab.FieldSpec(p, 1, spec["N"])
    return isolab.DieudonneLie.from_rationals(fs, frob, bracket,
                                              lattice_cols=eye), bracket


def _vec_json(v):
    return [c.to_json() for c in v]


def build_lie(specs, isolab):
    ops = []
    for spec in specs:
        kind = spec["op"]
        a, bracket = _algebra(isolab, spec)
        fs = a.spec
        if kind == "dla_validate":
            ops.append(Op(kind, lambda a=a: isolab.dla_validate(a),
                          lambda rep: json.loads(json.dumps(rep)),
                          lambda rep: all(rep[k] for k in (
                              "antisymmetry", "jacobi", "f_equivariance",
                              "lattice_bracket_closure"))))
        elif kind == "lower_central_series":
            ops.append(Op(
                kind, lambda a=a: isolab.lower_central_series(a),
                lambda res: {"dims": [len(t) for t in res[0]],
                             "n_class": res[1],
                             "chain": [[_vec_json(v) for v in t]
                                       for t in res[0]]},
                lambda res, n=a.rank: (
                    [len(t) for t in res[0]][0] == n and not res[0][-1]
                    and all(len(s) > len(t) for s, t in zip(res[0], res[0][1:]))
                    and res[1] == len(res[0]) - 1)))
        elif kind == "minimal_slope_center_check":
            ops.append(Op(kind,
                          lambda a=a: isolab.minimal_slope_center_check(a),
                          lambda res: [res[0], res[1]],
                          lambda res: res == (True, None)))
        elif kind == "group_mul":
            x = [isolab.PadicScalar.from_int(fs, v) for v in spec["x"]]
            y = [isolab.PadicScalar.from_int(fs, v) for v in spec["y"]]
            want = bch_degree3(bracket, [F(v) for v in spec["x"]],
                               [F(v) for v in spec["y"]])
            ops.append(Op(
                kind, lambda a=a, x=x, y=y: isolab.group_mul(a, x, y),
                _vec_json,
                lambda got, w=want, fs=fs: len(got) == len(w) and all(
                    (g - isolab.PadicScalar.from_fraction(fs, e)).is_zero
                    for g, e in zip(got, w))))
        elif kind == "lattice_closure_check":
            ops.append(Op(
                kind,
                lambda a=a, s=spec["samples"], sd=spec["seed"]:
                    isolab.lattice_closure_check(a, samples=s, seed=sd),
                lambda res: [res[0], res[1]],
                # p >= 3 is above the class (2) of every algebra here
                lambda res: res == (True, None)))
        elif kind == "rho_defect":
            xp = [isolab.PadicScalar.from_int(fs, v) for v in spec["xprime"]]
            x = [isolab.PadicScalar.from_fraction(fs, F(v)) for v in spec["x"]]
            ops.append(Op(
                kind,
                lambda a=a, xp=xp, x=x, k=spec["n"]:
                    isolab.rho_defect(a, xp, x, k),
                lambda res: {"d": _vec_json(res[0]),
                             "report": json.loads(json.dumps(res[1],
                                                             default=str))},
                lambda res, n=a.rank: (len(res[0]) == n
                                       and res[1]["member"] is not None)))
        else:
            raise ValueError(kind)
    return ops


# --------------------------------------------------------------------------
# roots-series: root data and perfected power series (no PadicScalar work)
# --------------------------------------------------------------------------

#: (type, n, cocharacter) templates.  A seed scales each cocharacter by 1..3
#: and shifts it along the center, which keeps the set of positive-pairing
#: roots and so the cost of every op; the mix spans 1 ms to 30 ms ops.
ROOT_TEMPLATES = [
    ("GL", 3, (0, -1, -2)), ("GL", 4, (0, -1, -2, -3)),
    ("GL", 5, (0, 0, -1, -1, -2)), ("GSp", 4, (1, 0, 0, -1)),
    ("GSp", 6, (1, 1, 0, 0, -1, -1)), ("SO", 5, (2, 1, 0, -1, -2)),
    ("SO", 6, (2, 1, 0, 0, -1, -2)), ("SO", 7, (1, 0, 0, 0, 0, 0, -1)),
]


def _draw_cochar(rng, typ, nu):
    """k * nu + c: non-increasing, so dominant for every type here (each
    positive root is e_i - e_j with i < j); SO has no center to shift by."""
    k = rng.randrange(1, 4)
    c = 0 if typ == "SO" else rng.randrange(-2, 1)
    return [k * v + c for v in nu]


def h_weyl(typ, n):
    """Coxeter number of the Weyl group."""
    if typ in ("GL", "GSp"):
        return n
    m = n // 2
    return 2 * m if n % 2 else 2 * m - 2


def _draw_series(rng, p, D, terms=(1, 7), zero_const=False):
    """A one-variable series over F_p with random p-power exponents."""
    out = {}
    for _ in range(rng.randrange(*terms)):
        e = F(rng.randrange(0, D * p ** 3 + 1), p ** rng.randrange(0, 4))
        e = min(e, F(D))
        if zero_const and not e:
            e = F(1, p)
        out[_s(e)] = [rng.randrange(p)]
    terms_out = [[[e], c] for e, c in sorted(out.items()) if any(c)]
    if not terms_out:
        terms_out = [[[_s(1)], [1]]]
    return {"p": p, "nvars": 1, "k": 1, "D": D, "terms": terms_out}


def generate_roots_series(seed):
    rng = random.Random(seed)
    pool = []
    for kind in ("coxeter_gate", "unipotent_nilpotency", "leaf_dimension"):
        for typ, n, nu in ROOT_TEMPLATES:
            spec = {"op": kind, "type": typ, "n": n,
                    "nu": _draw_cochar(rng, typ, nu)}
            if kind == "coxeter_gate":
                spec["p"] = rng.choice([2, 3, 5, 7])
            pool.append(spec)
    pool += [dict(spec, op="leaf_dimension", nu=_draw_cochar(rng, typ, nu))
             for spec, (typ, _, nu) in zip(pool[-len(ROOT_TEMPLATES):],
                                           ROOT_TEMPLATES)]
    for _ in range(8):
        p = rng.choice([2, 3])
        r = rng.randrange(1, 3)
        pool.append({"op": "membership_restricted",
                     "series": _draw_series(rng, p, 8),
                     "r": r, "s": r + rng.randrange(1, 3),
                     "n0": rng.randrange(0, 3)})
    for _ in range(8):
        pool.append({"op": "membership_ECd",
                     "series": _draw_series(rng, rng.choice([2, 3]), 8),
                     "E": _s(F(rng.randrange(1, 5), rng.randrange(1, 3))),
                     "C": _s(F(rng.randrange(1, 9), rng.randrange(1, 3))),
                     "d": rng.randrange(0, 3)})
    for i in range(12):
        # the ladder q^0, q^1, q^2 with q = p^r, every rung at most D = 16
        p, r = 2, 1 + i % 2
        d_seq = sorted(rng.sample(range(1, 17), 3))
        s = _draw_ladder_series(rng, p, k=1 + (i // 2) % 2)
        pool.append({"op": "rigidity_check",
                     "family": ("diagonal", "power")[i // 4 % 2],
                     "p": p, "r": r, "d_seq": d_seq, "s": s})
    rng.shuffle(pool)
    return pool


def _draw_ladder_series(rng, p, k, terms=6):
    """terms/3 exponents in (0, 2] over each denominator 1, p, p^2, so the
    cost of the powers q^n stays alike across seeds."""
    exps = []
    for j in range(3):
        pool = [F(m, p ** j) for m in range(1, 2 * p ** j + 1)
                if j == 0 or m % p]
        exps += rng.sample(pool, terms // 3)
    coeffs = []
    for _ in exps:
        c = [rng.randrange(p) for _ in range(k)]
        c[0] = c[0] or 1
        coeffs.append(c)
    return {"p": p, "nvars": 1, "k": k, "D": 16,
            "terms": sorted([[_s(e)], c] for e, c in zip(exps, coeffs))}


def _series(isolab, spec):
    p = spec["p"]
    return isolab.PerfectedSeries(
        p, spec["nvars"], spec["k"], spec["D"],
        {tuple(F(v) for v in e): tuple(c) for e, c in spec["terms"]})


def _rigidity_instance(isolab, spec):
    """(f, g, h, s) for a ladder whose answer is known.

    diagonal: f(u, v) = u - v at (s, s), which vanishes identically;
    power: f(u) = u at s, whose n-th rung is s^(q^n), i.e. r*n absolute
    Frobenius steps, compared on that independent route.
    """
    s = _series(isolab, spec["s"])
    p, k, D = s.p, s.k, s.D
    one = (1,) + (0,) * (k - 1)
    if spec["family"] == "diagonal":
        f = isolab.PerfectedSeries(p, 2, k, D, {
            (F(1), F(0)): one,
            (F(0), F(1)): ((p - 1),) + (0,) * (k - 1)})
        return f, [s, s], [], s
    f = isolab.PerfectedSeries(p, 1, k, D, {(F(1),): one})
    return f, [s], [], s


def _rigidity_expected(isolab, spec, s):
    p, r, d_seq = spec["p"], spec["r"], spec["d_seq"]
    q = p ** r
    ratio_ok = all(F(q ** n, d_seq[n]) > F(q ** (n + 1), d_seq[n + 1])
                   for n in range(len(d_seq) - 1))
    if spec["family"] == "diagonal":
        return {"congruences": [True] * len(d_seq), "ratio_ok": ratio_ok,
                "evaluation_zero": True}
    cong = []
    for n, d_n in enumerate(d_seq):
        t = s
        for _ in range(r * n):
            t = isolab.ps_frobenius(t, "forward", "absolute")
        cong.append(isolab.ps_truncate_ideal(t, "power", d_n).is_zero())
    return {"congruences": cong, "ratio_ok": ratio_ok,
            "evaluation_zero": s.is_zero()}


def _ecd_oracle(series, E, C, d):
    """membership_ECd restated: p^ord <= C (max exponent + d)^E per term."""
    p = series.p
    for exp in series.terms:
        v = 0
        for x in exp:
            den, e = x.denominator, 0
            while den > 1:
                den //= p
                e += 1
            v = max(v, e)
        if v and F(p) ** (v * E.denominator) > \
                C ** E.denominator * (max(exp) + d) ** E.numerator:
            return False
    return True


def build_roots_series(specs, isolab):
    ops = []
    for spec in specs:
        kind = spec["op"]
        if kind in ("coxeter_gate", "unipotent_nilpotency", "leaf_dimension"):
            typ, n = spec["type"], spec["n"]
            d = isolab.RootDatumWithCochar(typ, n, [F(v) for v in spec["nu"]])
            hw = h_weyl(typ, n)
            if kind == "coxeter_gate":
                ops.append(Op(kind,
                              lambda d=d, p=spec["p"]: isolab.coxeter_gate(d, p),
                              lambda rep: rep,
                              lambda rep, hw=hw: (rep["h_weyl"] == hw
                                                  and rep["n_class"] <= hw - 1)))
            elif kind == "unipotent_nilpotency":
                ops.append(Op(kind, lambda d=d: isolab.unipotent_nilpotency(d),
                              lambda c: c,
                              lambda c, hw=hw: 0 <= c <= hw - 1))
            else:
                from isolab.dieudonne import pdiv_dimension

                ops.append(Op(
                    kind, lambda d=d: isolab.leaf_dimension(d), _s,
                    # the criterion-3 identity <2 rho, nu> = sum(-slope * mult)
                    lambda dim, d=d: dim == pdiv_dimension(
                        isolab.slope_multiset_from_roots(d),
                        check_range=False)))
        elif kind == "membership_restricted":
            a = _series(isolab, spec["series"])
            params = isolab.RestrictedParams(spec["r"], spec["s"], spec["n0"])
            ops.append(Op(
                kind,
                lambda a=a, pr=params: isolab.membership_restricted(a, pr),
                lambda res: [res[0], res[1]],
                lambda res, a=a, pr=params: (
                    res[0] == isolab.membership_restricted(a, pr, "definitional")[0]
                    == isolab.membership_restricted(a, pr, "closed_form")[0])))
        elif kind == "membership_ECd":
            a = _series(isolab, spec["series"])
            E, C, dd = F(spec["E"]), F(spec["C"]), F(spec["d"])
            ops.append(Op(
                kind, lambda a=a, E=E, C=C, dd=dd: isolab.membership_ECd(a, E, C, dd),
                lambda res: [res[0], res[1]],
                lambda res, w=_ecd_oracle(a, E, C, dd): res[0] == w
                and (res[1] is None) == w))
        elif kind == "rigidity_check":
            f, g, h, s = _rigidity_instance(isolab, spec)
            ops.append(Op(
                kind,
                lambda f=f, g=g, h=h, r=spec["r"], ds=spec["d_seq"]:
                    isolab.rigidity_check(f, g, h, r, ds, powered_block="g"),
                lambda rep: rep,
                lambda rep, spec=spec, s=s: rep == _rigidity_expected(
                    isolab, spec, s)))
        else:
            raise ValueError(kind)
    return ops


# --------------------------------------------------------------------------
# cli: all 16 subcommands in-process through isolab.cli.main
# --------------------------------------------------------------------------

def _rational_module(rng, rank, p):
    blocks = _draw_blocks(rng, rank)
    rows = [["0"] * rank for _ in range(rank)]
    off = 0
    for a, r in blocks:
        for i in range(r - 1):
            rows[off + i + 1][off + i] = "1"
        rows[off][off + r - 1] = _s(F(p) ** a)
        off += r
    return rows, blocks


def _cli_dla(rng, kernels, i):
    small = [k for k, shape in enumerate(LIE_SHAPES)
             if sum(1 if kind == "line" else par[1] for kind, par in shape) <= 3]
    p = (3, 5, 7)[i % 3]
    si, bracket = _draw_algebra(rng, kernels, [small[i % len(small)]], p)
    frob = _frob_for_shape(LIE_SHAPES[si], p)
    n = len(frob)
    return {"p": p, "f": 1, "N": 16,
            "frobenius": [[_s(v) for v in row] for row in frob],
            "bracket": [[[_s(v) for v in cell] for cell in plane]
                        for plane in bracket],
            "lattice": [[_s(int(i == j)) for j in range(n)] for i in range(n)]}


def _series_json(spec):
    p = spec["p"]
    out = []
    for e, c in spec["terms"]:
        exps = []
        for v in e:
            v = F(v)
            den, k = v.denominator, 0
            while den > 1:
                den //= p
                k += 1
            exps.append({"num": v.numerator, "pexp": k})
        out.append({"exp": exps, "coeff": c})
    return {"p": p, "nvars": spec["nvars"], "field": {"p": p, "k": spec["k"]},
            "D": spec["D"], "terms": out}


CLI_COMMANDS = ["slopes", "split", "hom", "dla-check", "lcs", "bch-table",
                "bch-mul", "lattice-closure", "leafdim", "slope-roots",
                "nilclass", "coxeter-gate", "perf-member", "perf-ecd",
                "rigidity", "slope-exponents"]


def _cli_request(rng, kernels, cmd, i):
    """(argv, stdin text) for the i-th request of one subcommand on
    corpus-sized input; i fixes the size, the seed the content."""
    p = rng.choice([2, 3, 5])
    N = rng.choice([16, 24, 32])
    pre = ["--classical"] if rng.random() < 0.25 else []
    if cmd in ("slopes", "split"):
        rows, blocks = _rational_module(rng, 2 + i % 2, p)
        argv = [cmd]
        if cmd == "split" and len({F(a, r) for a, r in blocks}) == len(blocks):
            argv.append("--fine")
        return pre + argv, {"p": p, "f": 1 + i % 2, "N": N,
                            "frobenius": rows}
    if cmd == "hom":
        f = 1 + i % 2
        return pre + [cmd], {
            "source": {"p": p, "f": f, "N": N,
                       "frobenius": _rational_module(rng, 2, p)[0]},
            "target": {"p": p, "f": f, "N": N,
                       "frobenius": _rational_module(rng, 2, p)[0]}}
    if cmd in ("dla-check", "lcs"):
        return [cmd], _cli_dla(rng, kernels, i)
    if cmd == "lattice-closure":
        return [cmd, "--samples", "8", "--seed", str(rng.randrange(100))], \
            _cli_dla(rng, kernels, i)
    if cmd == "bch-mul":
        dla = _cli_dla(rng, kernels, i)
        n = len(dla["frobenius"])
        return [cmd], {"algebra": dla,
                       "x": [str(rng.randrange(-5, 6)) for _ in range(n)],
                       "y": [str(rng.randrange(-5, 6)) for _ in range(n)]}
    if cmd == "bch-table":
        return [cmd, "--class", str(3 + i % 2)], None
    if cmd in ("leafdim", "slope-roots", "nilclass", "coxeter-gate"):
        typ, n, nu = ROOT_TEMPLATES[(2 * CLI_COMMANDS.index(cmd) + i) % 5]
        nu = _draw_cochar(rng, typ, nu)
        extra = ["--p", str(rng.choice([3, 5, 7]))] \
            if cmd == "coxeter-gate" else []
        if pre:  # classical inputs are negated and reversed on the way in
            nu = [-v for v in reversed(nu)]
        if rng.random() < 0.5:
            return pre + [cmd] + extra + [
                "--type", typ, "--n", str(n),
                "--nu=" + ",".join(map(str, nu))], None
        return pre + [cmd] + extra, {"type": typ, "n": n,
                                     "nu": [str(v) for v in nu]}
    if cmd == "perf-member":
        r = rng.randrange(1, 3)
        s = r + rng.randrange(1, 3)
        return [cmd, "--params", f"{s},{r},{rng.randrange(3)}"], \
            _series_json(_draw_series(rng, rng.choice([2, 3]), 8))
    if cmd == "perf-ecd":
        return [cmd, "--E", str(rng.randrange(1, 4)),
                "--C", str(rng.randrange(1, 5)), "--d", str(rng.randrange(3))], \
            _series_json(_draw_series(rng, rng.choice([2, 3]), 8))
    if cmd == "rigidity":
        q = 2
        s = _series_json(_draw_series(rng, q, 16, terms=(1, 3),
                                      zero_const=True))
        u = {"p": 2, "nvars": 2, "field": {"p": 2, "k": 1}, "D": 16,
             "terms": [{"exp": [{"num": 1, "pexp": 0}, {"num": 0, "pexp": 0}],
                        "coeff": [1]},
                       {"exp": [{"num": 0, "pexp": 0}, {"num": 1, "pexp": 0}],
                        "coeff": [1]}]}
        return [cmd], {"f": u, "g": [s, s], "h": [], "r": 1,
                       "d_seq": sorted(rng.sample(range(1, 17), 3)),
                       "powered_block": "g"}
    if cmd == "slope-exponents":
        mu1 = F(rng.randrange(1, 5), rng.randrange(4, 8))
        mu0 = mu1 * F(rng.randrange(1, 4), 4)
        return [cmd, "--mu1", _s(mu1), "--mu0", _s(mu0)], None
    raise ValueError(cmd)


def generate_cli(seed, per_command=2):
    rng = random.Random(seed)
    kernels = {}
    pool = []
    for cmd in CLI_COMMANDS:
        for i in range(per_command):
            argv, payload = _cli_request(rng, kernels, cmd, i)
            pool.append({"argv": argv, "stdin": None if payload is None else
                         json.dumps(payload, sort_keys=True)})
    rng.shuffle(pool)
    return pool


def _cli_call(isolab, argv, text):
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(text or "")
    sys.stdout = buf = io.StringIO()
    try:
        code = isolab.cli.main(list(argv))
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return code, buf.getvalue()


def _cli_ok(res):
    """Exit status 0 and exactly one JSON line."""
    code, out = res
    if code != 0 or not out.endswith("\n") or out.count("\n") != 1:
        return False
    try:
        json.loads(out)
    except ValueError:
        return False
    return True


def build_cli(specs, isolab):
    import isolab.cli  # noqa: F401  (the package does not import it)

    return [Op("cli." + next(a for a in spec["argv"] if a in CLI_COMMANDS),
               lambda a=spec["argv"], t=spec["stdin"]: _cli_call(isolab, a, t),
               lambda res: [res[0], res[1]], _cli_ok)
            for spec in specs]


WORKLOADS = {
    "slopes": (generate_slopes, build_slopes),
    "lie": (generate_lie, build_lie),
    "roots-series": (generate_roots_series, build_roots_series),
    "cli": (generate_cli, build_cli),
}
