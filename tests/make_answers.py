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
and with --precision 6 after it; a precision-edge ``slopes`` input; and the
argv-error and --help forms of the top parser and of every subcommand.
Usage and error text is argparse's, so a Python whose argparse words its
messages differently reads different bytes on those rows.

A change that means to change an answer runs this script and lists each
changed row; any other change leaves the ledger as it is.
"""

import io
import json
import os
import pathlib
import sys

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
