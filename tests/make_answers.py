"""Write tests/answers.jsonl, the CLI answer ledger.

    PYTHONPATH=src python tests/make_answers.py

Each line of the ledger is one call of ``isolab.cli.main``: its argv, its
stdin, its exit code and the bytes it wrote to stdout.  Input files are
named in argv relative to the repository root, where every call runs, with
COLUMNS=80 (the width of --help text) and no ISOLAB_PRECISION.
``tests/test_answers.py`` replays every row through the same ``answer``
and lists the rows whose code or bytes differ.

The rows are every ``CLI_COMMANDS`` line; every corpus file through every
subcommand that reads JSON, plain, with --classical before the subcommand
and with --precision 6 after it; a precision-edge ``slopes`` input; the
argv-error and --help forms of the top parser and of every subcommand;
seeded generated algebras through ``dla-check``, ``lcs``, ``bch-mul`` and
``lattice-closure``; and seeded generated modules through ``slopes``,
``split`` and ``split --fine``, and pairs of them through ``hom``; seeded
rational modules whose lower slopes are integral and whose top slope is
not, through ``split``; seeded perfected series through
``perf-member``, ``perf-ecd`` and ``rigidity``; and five refusals: three
exponents at pexp 20000, an outer series over another field and a p^N
above its ceiling; all read from stdin.
Usage and error text is argparse's, so a Python whose argparse words its
messages differently reads different bytes on those rows.

A change that means to change an answer runs this script and lists each
changed row; any other change leaves the ledger as it is.
"""

import io
import json
import math
import os
import pathlib
import random
import sys
from fractions import Fraction

from reference import CLI_COMMANDS, one_term_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "answers.jsonl"
#: the subcommands that read a JSON input, with the flags each requires
JSON_FORMS = [
    ["slopes"], ["split"], ["split", "--fine"], ["hom"], ["dla-check"],
    ["lcs"], ["bch-mul"], ["lattice-closure"], ["leafdim"], ["slope-roots"],
    ["nilclass"], ["coxeter-gate", "--p", "5"],
    ["perf-member", "--params", "2,1,0"],
    ["perf-ecd", "--E", "1", "--C", "2", "--d", "0"], ["rigidity"],
]
#: every subcommand with the flags it requires, and its own integer flags
SUBCOMMANDS = {
    "slopes": ([], []), "split": ([], []), "hom": ([], []),
    "dla-check": ([], []), "lcs": ([], []),
    "bch-table": (["--class", "2"], ["--class"]),
    "bch-mul": ([], []),
    "lattice-closure": ([], ["--samples", "--seed"]),
    "leafdim": ([], ["--n"]), "slope-roots": ([], ["--n"]),
    "nilclass": ([], ["--n"]), "coxeter-gate": (["--p", "5"], ["--p", "--n"]),
    "perf-member": (["--params", "2,1,0"], []),
    "perf-ecd": (["--E", "1", "--C", "2", "--d", "0"], []),
    "rigidity": ([], []),
    "slope-exponents": (["--mu1", "1/2", "--mu0", "1/3"], []),
}
ORDINARY = "corpus/ordinary2x2.json"
#: a determinant 5^-3 that the charpoly's one working precision cannot
#: certify at N = 3 (ROADMAP item 3); recorded at today's error line
PRECISION_EDGE = '{"p":5,"N":3,"frobenius":[["1","0"],["0","1/125"]]}'
#: the seed and the number of generated algebras
ALGEBRA_SEED, ALGEBRAS = 32, 40
#: the seed, the number of generated modules and of generated module pairs
MODULE_SEED, MODULES, MODULE_PAIRS = 34, 80, 24
#: a rational module with slopes 0 and 1/2 (twice): the power trick over
#: all its valuations is a square, over the peeled one none
MIXED_EXAMPLE = ('{"p":2,"N":16,"frobenius":[["1","1","0"],["2","0","2"],'
                 '["-1","0","0"]]}')
#: the seed and the number of generated mixed-slope modules
MIXED_SEED, MIXED = 36, 32
#: the seed and the number of generated series per subcommand
SERIES_SEED, SERIES = 36, 16


def _unitriangular(rng, n):
    """A random integral upper unitriangular P, its entries above the
    diagonal in -2..2, and Q = P^-1."""
    P = [[Fraction(int(i == j) if i >= j else rng.randrange(-2, 3))
          for j in range(n)] for i in range(n)]
    Q = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for j in range(n):  # back-substitution, P being unitriangular
        for i in range(j - 1, -1, -1):
            Q[i][j] = -sum(P[i][k] * Q[k][j] for k in range(i + 1, j + 1))
    return P, Q


def _algebra(rng):
    """A seeded algebra object for the JSON-reading DLA subcommands.

    The free nilpotent algebra on e0, e1 of class 1, 2 or 3 (e2 = [e0,
    e1], e3 = [e0, e2], e4 = [e1, e2]), with up to one more central line,
    under a diagonal phi that the bracket multiplies, is written in the
    basis of a random integral unitriangular P.  Half of those of rank
    above 2 have antisymmetry or F-equivariance broken.  The lattice is
    the standard one, one with a column scaled by p or 1/p, a shear with
    entries up to p^+-1, or none.
    """
    p = rng.choice([2, 3, 5, 7])
    words = [(0,), (1,), (0, 1), (0, 0, 1), (1, 0, 1)][
        :rng.choice([2, 3, 5])] + [()] * rng.randrange(2)
    n = len(words)
    gens = [rng.choice([1, -1, 2]) * Fraction(p) ** -rng.randrange(2)
            for _ in range(3)]
    diag = [math.prod(gens[i] for i in w) if w else gens[2] for w in words]
    # [e_w[0], e_(the word w[1:])] = e_k, as nonzero (i, j, k, c_ijk)
    consts = [(i, j, k, v) for k, w in enumerate(words) if len(w) > 1
              for i, j, v in ((w[0], words.index(w[1:]), 1),
                              (words.index(w[1:]), w[0], -1))]
    P, Q = _unitriangular(rng, n)
    frob = [[sum(Q[i][k] * diag[k] * P[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]
    bracket = []
    for i in range(n):
        bracket.append([])
        for j in range(n):  # [P e_i, P e_j], in the basis P e
            w = [Fraction(0)] * n
            for a, b, k, v in consts:
                w[k] += P[a][i] * P[b][j] * v
            bracket[i].append([sum(q * x for q, x in zip(row, w))
                               for row in Q])
    fault = rng.choice([None, None, "antisymmetry", "equivariance"]
                       if n > 2 else [None])
    if fault == "antisymmetry":
        bracket[0][1][n - 1] += 1
    elif fault == "equivariance":
        frob[n - 1][n - 1] *= p
    lattice = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    shape = rng.choice(["standard", "scaled", "shear", None])
    if shape == "scaled":
        s = rng.randrange(n)
        for row in lattice:
            row[s] *= rng.choice([Fraction(p), Fraction(1, p)])
    elif shape == "shear":
        lattice = [[Fraction(rng.randrange(-2, 3)) * Fraction(p) **
                    rng.randrange(-1, 2) if i < j else Fraction(int(i == j))
                    for j in range(n)] for i in range(n)]
    obj = {"p": p, "N": rng.choice([8, 12, 16]),
           "frobenius": [[str(v) for v in row] for row in frob],
           "bracket": [[[str(v) for v in cell] for cell in row]
                       for row in bracket]}
    if shape:
        obj["lattice"] = [[str(v) for v in row] for row in lattice]
    return obj


def _module(rng, ring=None, rank=None):
    """A seeded module object for slopes, split and hom, over ring.

    ring is (p, f, N), drawn when None: p in 2, 3, 5, f in 1, 2, 3 and N
    in 2, 3, 5, 8 or 12.  The rank, 1 to 4 when not given, is drawn next.
    Entry (i, j) is zero or c p^(a_i + e) with c in -3..3 nonzero, a row
    shift a_i in -1..1 and e in 0..2, so both single and mixed slopes
    occur.  About half of the modules over f > 1 are written in the full
    schema: there c only marks a zero, and each other entry is a unit with
    t-components, each coefficient below p^N, at valuation a_i + e.  The
    others list rationals.
    """
    p, f, N = ring or (rng.choice([2, 3, 5]), rng.choice([1, 2, 3]),
                       rng.choice([2, 3, 5, 8, 12]))
    n = rank or rng.randrange(1, 5)
    full = f > 1 and rng.random() < 0.5
    shift = [rng.randrange(-1, 2) for _ in range(n)]
    rows = []
    for i in range(n):
        row = []
        for _ in range(n):
            v = shift[i] + rng.randrange(3)
            c = rng.choice([0, 0, 1, -1, 2, -2, 3, -3])
            if full:
                unit = [rng.randrange(1, p ** N) if c else 0]
                unit += [rng.randrange(p ** N) for _ in range(f - 1)]
                row.append({"valuation": v, "unit": unit} if c else
                           {"valuation": None, "unit": None})
            else:
                row.append(str(c * Fraction(p) ** v))
        rows.append(row)
    if full:
        return {"spec": {"p": p, "f": f, "N": N}, "rank": n, "frobenius": rows}
    return {"p": p, "f": f, "N": N, "frobenius": rows}


def modules():
    """(argv, stdin) rows for the seeded modules, each through slopes,
    split and split --fine, and for seeded pairs over one ring, rank 1 or
    2 each, through hom."""
    rng = random.Random(MODULE_SEED)
    out = []
    for _ in range(MODULES):
        text = json.dumps(_module(rng))
        out += [(["slopes"], text), (["split"], text),
                (["split", "--fine"], text)]
    for _ in range(MODULE_PAIRS):
        ring = (rng.choice([2, 3, 5]), rng.choice([1, 2, 3]),
                rng.choice([2, 3, 5, 8, 12]))
        pair = {side: _module(rng, ring, rng.randrange(1, 3))
                for side in ("source", "target")}
        out.append((["hom"], json.dumps(pair)))
    return out


def _mixed(rng):
    """A seeded rational module whose lower slopes are integral and whose
    top slope is not.

    One or two blocks of integral slope -1 or 0, ascending, each p^a times
    the identity of rank 1 or 2, or the rank-2 cyclic model of slope a;
    then a rank r = 2 or 3 cyclic model of slope b/r, r not dividing b,
    less than 1 above them.  The block sum D is written in the basis of a random integral
    unitriangular P, as P^-1 D P, over p in 2, 3, 5 and N in 8, 12 or 16.
    """
    p = rng.choice([2, 3, 5])
    slopes = sorted(rng.sample([-1, 0], rng.randrange(1, 3)))
    r = rng.choice([2, 3])
    b = r * slopes[-1] + rng.randrange(1, r)
    blocks = []  # (rank, a, exponent of the cyclic model's corner or None)
    for a in slopes:
        n = rng.randrange(1, 3)
        blocks.append((n, a, None if n == 1 or rng.random() < 0.5 else 2 * a))
    blocks.append((r, None, b))
    n = sum(k for k, _, _ in blocks)
    D = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for k, a, corner in blocks:
        if corner is None:  # p^a I_k
            for i in range(k):
                D[off + i][off + i] = Fraction(p) ** a
        else:  # e_i -> e_(i+1), e_k -> p^corner e_1
            for i in range(k - 1):
                D[off + i + 1][off + i] = Fraction(1)
            D[off][off + k - 1] = Fraction(p) ** corner
        off += k
    P, Q = _unitriangular(rng, n)
    frob = [[sum(Q[i][k] * D[k][l] * P[l][j] for k in range(n)
                 for l in range(n)) for j in range(n)] for i in range(n)]
    return {"p": p, "N": rng.choice([8, 12, 16]),
            "frobenius": [[str(v) for v in row] for row in frob]}


def mixed():
    """(argv, stdin) split rows: MIXED_EXAMPLE, then the seeded modules."""
    rng = random.Random(MIXED_SEED)
    return [(["split"], MIXED_EXAMPLE)] + [
        (["split"], json.dumps(_mixed(rng))) for _ in range(MIXED)]


def _series(rng, p, k, nvars, D, constant=True, integral=False):
    """A seeded series object over F_(p^k) in nvars variables, bound D.

    One to five terms.  Each exponent component is m / p^e with e in 0..2
    (0 when integral) and m in 0..2 p^e, so some terms pass D and some
    reduce; the zero exponent is redrawn unless constant.  Coefficients
    are drawn in 0..p-1, so some terms vanish.
    """
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        exp = []
        for _ in range(nvars):
            e = 0 if integral else rng.randrange(3)
            exp.append((rng.randrange(2 * p ** e + 1), e))
        if constant or any(m for m, _ in exp):
            terms[tuple(exp)] = [rng.randrange(p) for _ in range(k)]
    return {"p": p, "nvars": nvars, "field": {"p": p, "k": k}, "D": D,
            "terms": [{"exp": [{"num": m, "pexp": e} for m, e in exp],
                       "coeff": c} for exp, c in terms.items()]}


def series():
    """(argv, stdin) rows for seeded series: SERIES each through
    perf-member (with drawn s, r, n0 and method), perf-ecd (with drawn E, C
    and d) and rigidity (with a drawn f, g, h, r, d_seq and block)."""
    rng = random.Random(SERIES_SEED)
    out = []
    for _ in range(SERIES):
        a = _series(rng, rng.choice([2, 3, 5]), rng.randrange(1, 3), 1,
                    rng.choice([4, 8, 16]))
        r = rng.randrange(1, 3)
        params = f"{r + rng.randrange(1, 3)},{r},{rng.randrange(3)}"
        method = rng.choice(["both", "both", "definitional", "closed_form"])
        out.append((["perf-member", "--params", params, "--method", method],
                    json.dumps(a)))
    for _ in range(SERIES):
        a = _series(rng, rng.choice([2, 3, 5]), rng.randrange(1, 3), 1,
                    rng.choice([4, 8, 16]))
        E, C = (str(Fraction(rng.randrange(1, 9), rng.randrange(1, 3)))
                for _ in range(2))
        out.append((["perf-ecd", "--E", E, "--C", C,
                     "--d", str(rng.randrange(3))], json.dumps(a)))
    for _ in range(SERIES):
        p, k, D = rng.choice([2, 3]), rng.randrange(1, 3), rng.choice([8, 16])
        ng, nh = rng.randrange(1, 3), rng.randrange(2)
        g, h = ([_series(rng, p, k, 1, D, constant=rng.random() < 0.2)
                 for _ in range(count)] for count in (ng, nh))
        f = _series(rng, p, k, ng + nh, D, integral=True)
        request = {"f": f, "g": g, "h": h, "r": rng.randrange(1, 3),
                   "d_seq": sorted(rng.sample(range(1, D + 3), 3)),
                   "powered_block": rng.choice(["g", "h"])}
        out.append((["rigidity"], json.dumps(request)))
    return out


def refusals():
    """(argv, stdin) rows for inputs whose answer once was a traceback or
    an answer over the wrong field: a negative exponent and a wrong arity
    at pexp 20000, an outer exponent at pexp 20000, an outer series over
    F_3 into arguments over F_2, and split at N above the p^N ceiling."""
    member = ["perf-member", "--params", "2,1,0"]
    x, deep = one_term_json(2, [(1, 0)]), one_term_json(2, [(1, 20000)])
    rigidity = [{"f": deep, "g": [x]},
                {"f": one_term_json(3, [(1, 0)], 2), "g": [x]}]
    return [(member, json.dumps(one_term_json(2, [(-1, 20000)]))),
            (member, json.dumps({**deep, "nvars": 2})),
            *((["rigidity"], json.dumps({**request, "r": 1, "d_seq": [1, 3],
                                         "powered_block": "g"}))
              for request in rigidity),
            (["split"], '{"p":5,"N":7000,"frobenius":[["1/3"]]}')]


def generated():
    """(argv, stdin) rows for the seeded algebras: each through dla-check,
    lcs and lattice-closure, and with a seeded pair through bch-mul."""
    rng = random.Random(ALGEBRA_SEED)
    out = []
    for _ in range(ALGEBRAS):
        alg = _algebra(rng)
        n, p = len(alg["frobenius"]), alg["p"]
        x, y = ([str(Fraction(rng.randrange(-4, 5), p ** rng.randrange(2)))
                 for _ in range(n)] for _ in range(2))
        text = json.dumps(alg)
        out += [(["dla-check"], text), (["lcs"], text),
                (["lattice-closure"], text),
                (["bch-mul"], json.dumps({"algebra": alg, "x": x, "y": y}))]
    return out


def calls():
    """(argv, stdin) for every row, in ledger order."""
    out = [(argv, "") for argv in CLI_COMMANDS]
    for path in sorted((ROOT / "corpus").glob("*.json")):
        name = f"corpus/{path.name}"
        for form in JSON_FORMS:
            out += [([*form, "--in", name], ""),
                    (["--classical", *form, "--in", name], ""),
                    ([*form, "--precision", "6", "--in", name], "")]
    out.append((["slopes"], PRECISION_EDGE))
    out += generated()
    out += modules()
    top = [[], ["--help"], ["-h"], ["bogus"], ["--bogus"], ["--classical"],
           ["--precision"], ["--precision", "x", "slopes"],
           ["--prec", "6", "slopes", "--in", ORDINARY],
           ["slo", "--in", ORDINARY], ["--c", "slopes", "--in", ORDINARY],
           ["bch-table", "--c", "4"]]
    out += [(argv, "") for argv in top]
    for name, (required, int_flags) in SUBCOMMANDS.items():
        base = [name, *required]
        forms = [[name, "--help"], [*base, "--bogus"], [*base, "--in"],
                 [*base, "--precision", "x"], [*base, "extra"],
                 [*base, "--in", "corpus/missing.json"]]
        forms += [[*base, flag, "x"] for flag in int_flags]
        if required:
            forms.append([name])
        out += [(argv, "") for argv in forms]
    out += mixed()
    out += series()
    out += refusals()
    # CLI_COMMANDS repeats some corpus forms; each call is one row
    return [(list(argv), stdin)
            for argv, stdin in dict.fromkeys((tuple(a), s) for a, s in out)]


def answer(argv, stdin):
    """(exit code, stdout) of one in-process ``cli.main`` call."""
    from isolab.cli import main

    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin), io.StringIO()
    try:
        code = main(list(argv))
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out


def read_ledger():
    with open(LEDGER, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def main():
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    os.environ.pop("ISOLAB_PRECISION", None)
    with open(LEDGER, "w", encoding="utf-8") as fh:
        for argv, stdin in calls():
            code, out = answer(argv, stdin)
            fh.write(json.dumps({"argv": argv, "stdin": stdin, "code": code,
                                 "stdout": out}) + "\n")


if __name__ == "__main__":
    main()
