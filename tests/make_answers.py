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
argv-error and --help forms of the top parser and of every subcommand; and
seeded generated algebras through ``dla-check``, ``lcs``, ``bch-mul`` and
``lattice-closure``, read from stdin.
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

from reference import CLI_COMMANDS

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
    P = [[Fraction(int(i == j) if i >= j else rng.randrange(-2, 3))
          for j in range(n)] for i in range(n)]
    Q = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for j in range(n):  # Q = P^-1, P being unitriangular
        for i in range(j - 1, -1, -1):
            Q[i][j] = -sum(P[i][k] * Q[k][j] for k in range(i + 1, j + 1))
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
