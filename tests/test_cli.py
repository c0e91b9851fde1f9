import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import isolab
from isolab.cli import MAX_DEPTH, main

from reference import CLI_COMMANDS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_slopes_ordinary(corpus_dir, capsys):
    code, out = run(capsys, "slopes", "--in",
                    str(corpus_dir / "ordinary2x2.json"))
    assert code == 0
    assert out == '{"slopes":[["-1",1],["0",1]]}\n'


def test_slopes_classical_flag_negates(corpus_dir, capsys):
    code, out = run(capsys, "--classical", "slopes", "--in",
                    str(corpus_dir / "ordinary2x2.json"))
    assert code == 0
    assert out == '{"slopes":[["0",1],["1",1]]}\n'


def test_classical_flag_after_subcommand(corpus_dir, capsys):
    _, first = run(capsys, "--classical", "slopes", "--in",
                   str(corpus_dir / "ordinary2x2.json"))
    _, second = run(capsys, "slopes", "--classical", "--in",
                    str(corpus_dir / "ordinary2x2.json"))
    assert first == second


def test_stdin_input(monkeypatch, capsys):
    import io
    payload = json.dumps({"p": 5, "f": 1, "N": 12,
                          "frobenius": [["1/5"]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, doc = run_json(capsys, "slopes")
    assert code == 0
    assert doc == {"slopes": [["-1", 1]]}


def test_full_schema_input_accepted(corpus_dir, capsys, monkeypatch, tmp_path):
    # round-trip: hom output is full-schema JSON and must re-parse
    code, doc = run_json(capsys, "hom", "--in",
                         str(corpus_dir / "hom_pair.json"))
    assert code == 0
    p = tmp_path / "hom.json"
    p.write_text(json.dumps(doc))
    code2, doc2 = run_json(capsys, "slopes", "--in", str(p))
    assert code2 == 0
    # hom slope law: {-1/2 - 0, -1/2 - (-1)} each doubled
    assert doc2["slopes"] == [["-1/2", 2], ["1/2", 2]]


def test_split_supersingular(corpus_dir, capsys):
    code, doc = run_json(capsys, "split", "--in",
                         str(corpus_dir / "supersingular2x2.json"))
    assert code == 0
    assert len(doc["blocks"]) == 1
    assert doc["blocks"][0]["slope"] == "-1/2"
    assert doc["blocks"][0]["rank"] == 2


def test_split_rank_zero(monkeypatch, capsys):
    import io
    payload = json.dumps({"p": 5, "N": 8, "frobenius": []})
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out = run(capsys, "split")
    assert (code, out) == (0, '{"blocks":[]}\n')


def _split_line(one):
    """The split of slopes -1/2 and 0 below; one is the unit 1 over Q_q."""
    z = '{"unit":null,"valuation":null,"zero_precision":%d}'
    u = '{"unit":' + one + ',"valuation":%d}'
    return ('{"blocks":[{"basis":[[' + u % 0 + ',' + z % 12 + ',' + z % 12
            + '],[' + z % 12 + ',' + u % 0 + ',' + z % 12 + ']],'
            '"frobenius":[[' + z % 11 + ',' + u % -1 + '],[' + u % 0 + ','
            + z % 12 + ']],"rank":2,"slope":"-1/2"},{"basis":[[' + z % 12
            + ',' + z % 13 + ',' + u % 0 + ']],"frobenius":[[' + u % 0
            + ']],"rank":1,"slope":"0"}]}\n')


@pytest.mark.parametrize("payload, code, line", [
    # slopes -1/2 and 0: f times each slope is integral over Q_9, so the
    # twisted power is split as it is
    ({"p": 3, "f": 2, "N": 12, "frobenius": [["0", "1/3", "0"],
                                             ["1", "0", "0"],
                                             ["0", "0", "1"]]},
     0, _split_line("[1,0]")),
    # over Q_8, f times -1/2 is not, so its square is split
    ({"p": 2, "f": 3, "N": 12, "frobenius": [["0", "1/2", "0"],
                                             ["1", "0", "0"],
                                             ["0", "0", "1"]]},
     0, _split_line("[1,0,0]")),
    # slopes -2 and -1 at N = 3: the charpoly's T coefficient is O(2^-1),
    # which certifies no digit; the witness names it and its bound
    ({"p": 2, "N": 3, "frobenius": [["1/4", "1/9", "1/3"],
                                    ["4", "0", "1/4"],
                                    ["2", "5", "1/5"]]},
     2, '{"error":"InsufficientPrecision",'
        '"message":"charpoly coefficient certifies no digit",'
        '"witness":{"bound":-1,"coefficient":1}}\n'),
], ids=["two-slopes-f2", "two-slopes-f3", "zero-bound-coefficient"])
def test_split_line(payload, code, line, monkeypatch, capsys):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert run(capsys, "split") == (code, line)


def test_hom_rank_zero_source(monkeypatch, capsys):
    import io
    payload = json.dumps({"source": {"p": 5, "N": 8, "frobenius": []},
                          "target": {"p": 5, "N": 8, "frobenius": [["1"]]}})
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out = run(capsys, "hom")
    assert (code, out) == (
        0, '{"frobenius":[],"rank":0,"spec":{"N":8,"f":1,"p":5}}\n')


def test_dla_check(corpus_dir, capsys):
    code, doc = run_json(capsys, "dla-check", "--in",
                         str(corpus_dir / "heisenberg.json"))
    assert code == 0
    assert doc["antisymmetry"] and doc["jacobi"] and doc["f_equivariance"]
    assert doc["lattice_dieudonne"] and doc["lattice_bracket_closure"]


#: lattice columns e0 + e2, e1 + e2 and 0: rank 2 of 3
SINGULAR_LATTICE = [["1", "0", "1"], ["0", "1", "1"], ["0", "0", "0"]]
LATTICE_INDETERMINATE = (
    '{"error":"InsufficientPrecision","message":"lattice comparison '
    'indeterminate","witness":{"rank":2,"size":3}}\n')


@pytest.mark.parametrize("command, payload, line", [
    ("dla-check", None, LATTICE_INDETERMINATE),
    ("lattice-closure", None, LATTICE_INDETERMINATE),
    ("hom", {"source": {"p": 5, "N": 8,
                        "frobenius": [["1", "1"], ["1", "1"]]},
             "target": {"p": 5, "N": 8, "frobenius": [["1"]]}},
     '{"error":"NonInvertible","message":"matrix is singular to working '
     'precision","witness":{"rank":1,"size":2}}\n'),
], ids=["dla-check-singular-lattice", "lattice-closure-singular-lattice",
        "hom-singular-source"])
def test_rank_loss_error_line(command, payload, line, corpus_dir, capsys,
                              monkeypatch):
    import io
    if payload is None:
        payload = json.loads((corpus_dir / "heisenberg.json").read_text())
        payload["lattice"] = SINGULAR_LATTICE
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert run(capsys, command) == (2, line)


@pytest.mark.parametrize("command, code, line", [
    ("lattice-closure", 0, '{"closed":true,"witness":null}\n'),
    ("dla-check", 2, LATTICE_INDETERMINATE.replace('"rank":2', '"rank":1')),
], ids=["lattice-closure", "dla-check"])
def test_singular_frobenius_line(command, code, line, corpus_dir, capsys,
                                 monkeypatch):
    # F = diag(1, 0, 0) on the identity lattice: phi of the lattice has
    # rank 1, which a closure answer never reads
    import io
    payload = json.loads((corpus_dir / "heisenberg.json").read_text())
    payload["N"] = 8
    payload["frobenius"] = [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert run(capsys, command) == (code, line)


@pytest.mark.parametrize("command, name, line", [
    ("lcs", "heisenberg.json", '{"dims":[3,1,0],"n_class":2}\n'),
    ("bch-mul", "bch_mul.json",
     '{"product":[{"unit":[1],"valuation":0},{"unit":[1],"valuation":0},'
     '{"unit":[76293945313],"valuation":0}]}\n'),
], ids=["lcs", "bch-mul"])
def test_bracket_commands_ignore_the_lattice(command, name, line, corpus_dir,
                                             capsys, monkeypatch):
    # neither answer reads the lattice, so a singular one changes nothing
    import io
    payload = json.loads((corpus_dir / name).read_text())
    payload.get("algebra", payload)["lattice"] = SINGULAR_LATTICE
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert run(capsys, command) == (0, line)


def test_lcs(corpus_dir, capsys):
    code, doc = run_json(capsys, "lcs", "--in",
                         str(corpus_dir / "heisenberg.json"))
    assert code == 0
    assert doc == {"dims": [3, 1, 0], "n_class": 2}


def test_bch_table(capsys):
    code, doc = run_json(capsys, "bch-table", "--class", "3")
    assert code == 0
    assert doc["denominator_primes"] == [2, 3]
    words = {t["word"]: t["coeff"] for t in doc["series"]}
    assert words == {"X": "1", "Y": "1", "XY": "1/2",
                     "XXY": "1/12", "XYY": "1/12"}


def test_bch_mul(corpus_dir, capsys):
    code, doc = run_json(capsys, "bch-mul", "--in",
                         str(corpus_dir / "bch_mul.json"))
    assert code == 0
    third = doc["product"][2]
    # 1/2 mod 5^16
    assert third["valuation"] == 0
    assert third["unit"][0] == (5 ** 16 + 1) // 2


def test_lattice_closure(corpus_dir, capsys):
    code, doc = run_json(capsys, "lattice-closure", "--in",
                         str(corpus_dir / "heisenberg.json"))
    assert code == 0
    assert doc == {"closed": True, "witness": None}


def test_lattice_closure_bracket_open_lattice(corpus_dir, capsys,
                                              monkeypatch):
    # lattice <e0, e1, 5*e2> at p = 5, above class 2: [e0, e1] = e2 leaves
    # it, so the group law need not close and the first failing pair is
    # the answer
    import io
    payload = json.loads((corpus_dir / "heisenberg.json").read_text())
    payload["lattice"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "5"]]
    text = json.dumps(payload)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, doc = run_json(capsys, "dla-check")
    assert (code, doc["lattice_bracket_closure"]) == (0, False)
    assert doc["witnesses"]["lattice_bracket_closure"] == [0, 1]
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, "lattice-closure") == (
        0, '{"closed":false,"witness":{"x":[1,0,0],"y":[0,1,0]}}\n')


def test_leafdim_flags(capsys):
    code, doc = run_json(capsys, "leafdim", "--type", "GSp", "--n", "4",
                         "--nu", "0,0,-1,-1")
    assert code == 0 and doc == {"dim": 3}


def test_leafdim_classical_nu(capsys):
    code, doc = run_json(capsys, "--classical", "leafdim", "--type", "GSp",
                         "--n", "4", "--nu", "1,1,0,0")
    assert code == 0 and doc == {"dim": 3}


def test_leafdim_file_input(corpus_dir, capsys):
    code, doc = run_json(capsys, "leafdim", "--in",
                         str(corpus_dir / "gsp4_ordinary.json"))
    assert code == 0 and doc == {"dim": 3}


def test_slope_roots(corpus_dir, capsys):
    code, doc = run_json(capsys, "slope-roots", "--in",
                         str(corpus_dir / "gsp4_ordinary.json"))
    assert code == 0
    assert doc == {"slopes": [["-1", 3]]}


def test_nilclass(corpus_dir, capsys):
    code, doc = run_json(capsys, "nilclass", "--in",
                         str(corpus_dir / "gsp4_ordinary.json"))
    assert code == 0 and doc == {"n_class": 1}


def test_coxeter_gate(corpus_dir, capsys):
    code, doc = run_json(capsys, "coxeter-gate", "--p", "5", "--in",
                         str(corpus_dir / "gsp4_ordinary.json"))
    assert code == 0
    assert doc == {"h": 4, "h_weyl": 4, "n_class": 1,
                   "p_ge_h": True, "p_gt_n": True}


def test_perf_member_badseries(corpus_dir, capsys):
    code, doc = run_json(capsys, "perf-member", "--params", "2,1,0", "--in",
                         str(corpus_dir / "badseries.json"))
    assert code == 0
    assert doc["member"] is False
    assert doc["witness"]["exp"] == [{"num": 25, "pexp": 3}]


def test_perf_member_ordinary(corpus_dir, capsys):
    code, doc = run_json(capsys, "perf-member", "--params", "2,1,0", "--in",
                         str(corpus_dir / "ordseries.json"))
    assert code == 0
    assert doc == {"member": True, "witness": None}


def test_perf_member_negative_arity_exit_1(monkeypatch, capsys):
    # answered {"member":true,"witness":null} with exit 0
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        '{"p":2,"nvars":-3,"field":{"p":2,"k":1},"D":4,"terms":[]}'))
    code, out = run(capsys, "perf-member", "--params", "2,1,0")
    assert code == 1
    assert json.loads(out) == {
        "error": "MalformedInput",
        "message": "arity must be a nonnegative integer",
        "witness": {"nvars": -3}}


def test_perf_ecd(corpus_dir, capsys):
    code, doc = run_json(capsys, "perf-ecd", "--E", "2", "--C", "1",
                         "--d", "1", "--in", str(corpus_dir / "ordseries.json"))
    assert code == 0 and doc["member"] is True


def test_rigidity(corpus_dir, capsys):
    code, doc = run_json(capsys, "rigidity", "--in",
                         str(corpus_dir / "rigidity_pos.json"))
    assert code == 0
    assert doc == {"congruences": [True, True, True],
                   "evaluation_zero": True, "ratio_ok": True}


def test_slope_exponents(capsys):
    code, doc = run_json(capsys, "slope-exponents", "--mu1", "1/2",
                         "--mu0", "1/3")
    assert code == 0 and doc == {"a": 1, "r": 2, "s": 3}


# ---- error contract ----

def test_malformed_json_exit_1(monkeypatch, capsys):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO("nonsense"))
    code, doc = run_json(capsys, "slopes")
    assert code == 1
    assert doc["error"] == "MalformedInput"


def test_missing_file_exit_1(capsys):
    code, doc = run_json(capsys, "slopes", "--in", "/nonexistent.json")
    assert code == 1
    assert doc["error"] == "MalformedInput"


def test_non_dominant_nu_exit_1(capsys):
    code, doc = run_json(capsys, "leafdim", "--type", "GL", "--n", "2",
                         "--nu=-1,0")
    assert code == 1
    assert doc["error"] == "MalformedInput"


def test_module_error_exit_2(capsys):
    code, doc = run_json(capsys, "slope-exponents", "--mu1", "1/3",
                         "--mu0", "1/2")
    assert code == 2
    assert doc["error"] == "SlopeOrderViolated"


def test_fine_split_error_surfaces(capsys, tmp_path, monkeypatch):
    import io
    payload = json.dumps({
        "p": 5, "f": 1, "N": 8,
        "frobenius": [["0", "0", "0", "1/25"], ["1", "0", "0", "0"],
                      ["0", "1", "0", "0"], ["0", "0", "1", "0"]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, doc = run_json(capsys, "split", "--fine")
    assert code == 2
    assert doc["error"] == "ResidueFieldTooSmall"
    assert doc["witness"]["required_degree"] == 2


_SPEC_ISO = {"spec": {"p": 5, "f": 1, "N": 8}, "rank": 1,
             "frobenius": [[{"valuation": 0, "unit": [1]}]]}


@pytest.mark.parametrize("command, base, override", [
    ("lcs", "heisenberg.json", {"lattice": []}),
    ("bch-mul", "bch_mul.json", {"x": []}),
    ("leafdim", "gsp4_ordinary.json", {"n": "x"}),
    ("bch-mul", "bch_mul.json", {"x": ["1", "0", "0", "0"]}),
    ("bch-mul", "bch_mul.json", {"x": 5}),
    ("rigidity", "rigidity_pos.json", {"r": -1}),
    ("dla-check", "heisenberg.json", {"frobenius": 1, "bracket": []}),
    ("lcs", "heisenberg.json", {"frobenius": 1, "bracket": []}),
    ("lattice-closure", "heisenberg.json", {"frobenius": 1, "bracket": []}),
    ("slopes", "ordinary2x2.json", {**_SPEC_ISO, "frobenius": 1}),
    ("dla-check", "heisenberg.json", {"iso": _SPEC_ISO, "bracket": 1}),
    ("dla-check", "heisenberg.json", {"iso": _SPEC_ISO, "bracket": [[[{}]]],
                                      "lattice": 1}),
    ("lattice-closure --samples -1", "heisenberg.json", {}),
    ("bch-table --class -1", "heisenberg.json", {}),
    ("bch-table --class 0", "heisenberg.json", {}),
], ids=["empty-lattice", "empty-vector", "non-integer-n", "long-vector",
        "non-list-vector", "negative-r", "short-algebra-dla-check",
        "short-algebra-lcs", "short-algebra-lattice-closure",
        "spec-isocrystal-frobenius", "full-algebra-bracket",
        "full-algebra-lattice", "negative-samples", "negative-class",
        "zero-class"])
def test_bad_shape_exit_1(command, base, override, corpus_dir, capsys,
                          monkeypatch):
    import io
    payload = json.loads((corpus_dir / base).read_text())
    payload.update(override)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    code, out = run(capsys, *command.split())
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == "MalformedInput"


_P_SLOPES = '{"p":%d,"frobenius":[["1"]]}'


@pytest.mark.parametrize("argv, env, stdin, message, witness", [
    (["slopes"], "nine", _P_SLOPES % 5, "bad ISOLAB_PRECISION", "nine"),
    (["leafdim", "--type", "GL", "--n", "3"], None, "", "need --type, --n "
     "and --nu together", None),
    (["perf-member", "--params", "2,1", "--in", "ordseries.json"], None, "",
     "params must be s,r,n0", "2,1"),
    (["slopes"], None, _P_SLOPES % 318665857834031151167461, "p must be "
     "prime", {"p": 318665857834031151167461}),
    (["slopes"], None, _P_SLOPES % (10 ** 4000 + 1), "p must be below the "
     "ceiling", {"ceiling": 3317044064679887385961981}),
], ids=["precision-env", "partial-datum-flags", "short-params", "psi12",
        "4000-digit-p"])
def test_argument_refusal_lines(argv, env, stdin, message, witness,
                                corpus_dir, monkeypatch, capsys):
    # a bad ISOLAB_PRECISION matters only without --precision; a p at or
    # above the ceiling is refused with the ceiling as witness, never p
    import io
    if env is None:
        monkeypatch.delenv("ISOLAB_PRECISION", raising=False)
    else:
        monkeypatch.setenv("ISOLAB_PRECISION", env)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    argv = [str(corpus_dir / a) if a.endswith(".json") else a for a in argv]
    code, out = run(capsys, *argv)
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out) == {"error": "MalformedInput", "message": message,
                               "witness": witness}


def test_nilclass_negative_nu_after_a_space(capsys):
    for nu in (["--nu", "-1,-2,-3"], ["--nu=-1,-2,-3"]):
        assert run(capsys, "nilclass", "--type", "GL", "--n", "3",
                   *nu) == (0, '{"n_class":2}\n')


@pytest.mark.parametrize("argv", [
    ["leafdim", "--type", "GL", "--n", "3", "--nu", "-1,-2,-3"],
    ["slope-roots", "--type", "GSp", "--n", "4", "--nu", "-1,-1,-2,-2"],
    ["--classical", "coxeter-gate", "--p", "5", "--type", "SO", "--n", "5",
     "--nu", "-1,-2"],
    ["slope-exponents", "--mu1", "-1/2", "--mu0", "-1/3"],
    ["perf-ecd", "--E", "-2", "--C", "-1/2", "--d", "-1", "--in",
     "ordseries.json"],
    ["perf-member", "--params", "-2,1,0", "--in", "ordseries.json"],
], ids=["nu", "nu-gsp", "nu-classical", "mu1-mu0", "E-C-d", "params"])
def test_leading_minus_value_after_a_space(argv, corpus_dir, capsys):
    argv = [str(corpus_dir / a) if a.endswith(".json") else a for a in argv]
    joined = []  # the same argv with every "--flag -value" as "--flag=-value"
    for a in argv:
        if a[:1] == "-" and a[1:2].isdigit():
            joined[-1] += "=" + a
        else:
            joined.append(a)
    assert joined != argv
    spaced = run(capsys, *argv)
    assert "expected one argument" not in spaced[1]
    assert spaced == run(capsys, *joined)


def test_datum_size_zero_message(capsys):
    code, doc = run_json(capsys, "leafdim", "--type", "GL", "--n", "0",
                         "--nu", "1")
    assert code == 1
    assert doc["message"] == "matrix size must be at least 2"


@pytest.mark.parametrize("p", ["-3", "4"])
def test_coxeter_gate_p_not_prime_exit_1(p, corpus_dir, capsys):
    code, doc = run_json(capsys, "coxeter-gate", "--p", p, "--in",
                         str(corpus_dir / "gsp4_ordinary.json"))
    assert code == 1
    assert (doc["error"], doc["message"]) == ("MalformedInput",
                                              "p must be prime")


@pytest.mark.parametrize("p, pexp", [(1, 0), (0, 0), (0, 1)],
                         ids=["p1", "p0", "p0-pexp1"])
def test_perf_member_bad_characteristic_exit_1(p, pexp, corpus_dir):
    # p = 1 used to loop forever; run in a child with a timeout
    payload = {"p": p, "nvars": 1, "field": {"p": p, "k": 1}, "D": 4,
               "terms": [{"exp": [{"num": 1, "pexp": pexp}],
                          "coeff": [1]}]}
    pkg_root = str(pathlib.Path(isolab.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "isolab.cli", "perf-member", "--params",
         "2,1,0"], input=json.dumps(payload), capture_output=True,
        text=True, timeout=10, env=dict(os.environ, PYTHONPATH=pkg_root))
    assert out.returncode == 1, out.stderr
    assert out.stdout.count("\n") == 1
    assert json.loads(out.stdout)["error"] == "MalformedInput"


def test_perf_member_large_pexp_answers():
    # reading the p-exponent by one division per step took 36 s at 200000
    payload = {"p": 2, "nvars": 1, "field": {"p": 2, "k": 1}, "D": 4,
               "terms": [{"exp": [{"num": 1, "pexp": 200000}],
                          "coeff": [1]}]}
    pkg_root = str(pathlib.Path(isolab.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "isolab.cli", "perf-member", "--params",
         "2,1,0"], input=json.dumps(payload), capture_output=True,
        text=True, timeout=10, env=dict(os.environ, PYTHONPATH=pkg_root))
    assert out.returncode == 0, out.stderr
    assert out.stdout == ('{"member":false,"witness":{"allowed":0,"exp":'
                          '[{"num":1,"pexp":200000}],"n":0,"ord":200000}}\n')


@pytest.mark.parametrize("command", ["leafdim", "slope-roots"])
def test_gsp_cocharacter_off_similitude_torus_exit_1(command, capsys):
    code, out = run(capsys, command, "--type", "GSp", "--n", "4",
                    "--nu=0,0,0,-1")
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == "MalformedInput"


@pytest.mark.parametrize("command", ["leafdim", "slope-roots"])
def test_so_cocharacter_not_antisymmetric_exit_1(command, capsys):
    code, out = run(capsys, command, "--type", "SO", "--n", "4",
                    "--nu=1,0,0,0")
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == "MalformedInput"


@pytest.mark.parametrize("argv", [
    ["definitely-not-a-command"],
    ["slopes", "--bogus"],
    ["bch-table"],
    ["coxeter-gate", "--p", "x"],
    [],
    ["--precision", "x", "slopes"],
    ["leafdim", "--n", "four"],
], ids=["unknown-subcommand", "unknown-flag", "missing-required", "bad-int",
        "no-arguments", "bad-global-int", "bad-subcommand-int"])
def test_unknown_subcommand_exit_1(argv, capsys):
    # every argument error is one MalformedInput line, with no usage text
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out)["error"] == "MalformedInput"
    assert captured.err == ""


@pytest.mark.parametrize("argv", [["--bogus"], ["--classical", "--bogus"]],
                         ids=["flag-alone", "after-a-global"])
def test_unknown_flag_is_named_before_a_missing_subcommand(argv, capsys):
    # a call with no subcommand keeps "arguments are required: command"
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "MalformedInput",
        "message": "unrecognized arguments: --bogus", "witness": None}


def test_help_exit_0(capsys):
    assert main(["--help"]) == 0
    assert main(["slopes", "--help"]) == 0
    assert "usage: isolab" in capsys.readouterr().out


def test_no_state_carries_between_calls(corpus_dir, capsys, monkeypatch):
    # the criterion-12 commands in one process, forwards then backwards,
    # each followed by a call that sets a global flag, fails or prints help
    import io
    monkeypatch.chdir(corpus_dir.parent)
    between = [
        (["--classical", "slopes", "--in", "corpus/ordinary2x2.json"], ""),
        (["--precision", "8", "split"],
         '{"p": 5, "frobenius": [["1", "0"], ["0", "1/5"]]}'),
        (["slopes", "--bogus"], ""),
        (["--help"], ""),
    ]
    calls = []
    for i, argv in enumerate(CLI_COMMANDS + CLI_COMMANDS[::-1]):
        calls.append((argv, ""))
        calls.append(between[i % len(between)])
    seen = {}
    for argv, stdin in calls:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(list(argv))
        captured = capsys.readouterr()
        if argv == ["slopes", "--bogus"]:
            assert code == 1 and captured.err == ""
        seen.setdefault(tuple(argv), set()).add((code, captured.out))
    assert len(seen) == len(CLI_COMMANDS) + len(between)
    for argv, results in seen.items():
        assert len(results) == 1, argv
    assert {code for code, _ in seen[("--help",)]} == {0}


def test_parser_is_built_once(monkeypatch):
    import argparse
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    main(["slope-exponents", "--mu1", "1/2", "--mu0", "1/3"])
    before = len(added)
    main(["slope-exponents", "--mu1", "1/2", "--mu0", "1/3"])
    assert added[before:] == []


#: every subcommand, in the order usage, --help and "invalid choice" list them
SUBCOMMANDS = ["slopes", "split", "hom", "dla-check", "lcs", "bch-table",
               "bch-mul", "lattice-closure", "leafdim", "slope-roots",
               "nilclass", "coxeter-gate", "perf-member", "perf-ecd",
               "rigidity", "slope-exponents"]


@pytest.fixture
def fresh_parser(monkeypatch):
    """The names passed to add_parser, from a parser not yet built."""
    import argparse
    from isolab.cli import _build_parser
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    _build_parser.cache_clear()
    yield added
    _build_parser.cache_clear()


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_a_call_builds_only_its_subcommand_parser(name, fresh_parser,
                                                  corpus_dir, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(corpus_dir.parent)
    argv = next(argv for argv in CLI_COMMANDS if name in argv)
    assert main(list(argv)) == 0
    assert fresh_parser == [name]
    assert json.loads(capsys.readouterr().out)


def test_help_and_bad_command_build_no_subcommand_parser(fresh_parser,
                                                         monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"]) == 0
    assert "{" + ",".join(SUBCOMMANDS) + "}" in capsys.readouterr().out
    assert main(["bogus"]) == 1
    message = json.loads(capsys.readouterr().out)["message"]
    assert message.endswith(
        "(choose from " + ", ".join(map(repr, SUBCOMMANDS)) + ")")
    assert fresh_parser == []


def test_every_subcommand_is_covered():
    # a new subcommand must join the contract test and criterion 12
    import argparse
    from isolab.cli import _build_parser
    names = set(next(a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)).choices)
    assert names <= {c[0] for c in _CONTRACT_CASES} | _FLAG_ONLY_COMMANDS
    assert names <= {next(a for a in argv if not a.startswith("-"))
                     for argv in CLI_COMMANDS}


def test_console_script_end_to_end(corpus_dir, tmp_path):
    # Run the `isolab` script declared in pyproject.toml the way a
    # pip-generated wrapper does, so no install is needed.  The child's
    # PYTHONPATH leads with the isolab package under test, and its cwd is
    # a fresh directory, so neither an installed copy nor the cwd is used.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(corpus_dir.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["isolab"]
    module, attr = target.split(":")
    pkg_root = str(pathlib.Path(isolab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.exit({attr}())",
         "slopes", "--in", str(corpus_dir / "ordinary2x2.json")],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert out.returncode == 0
    assert out.stdout == '{"slopes":[["-1",1],["0",1]]}\n'


def test_precision_env_default(monkeypatch, capsys):
    import io
    monkeypatch.setenv("ISOLAB_PRECISION", "9")
    payload = json.dumps({"p": 5, "frobenius": [["1/5"]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, doc = run_json(capsys, "slopes")
    assert code == 0 and doc == {"slopes": [["-1", 1]]}


def test_precision_flag_overrides_env(monkeypatch, capsys):
    import io
    monkeypatch.setenv("ISOLAB_PRECISION", "not-a-number")
    payload = json.dumps({"p": 5, "frobenius": [["1"]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, doc = run_json(capsys, "--precision", "10", "slopes")
    assert code == 0 and doc == {"slopes": [["0", 1]]}


# ---- JSON numbers: no float is truncated, no constant or overflow leaks ----

_FULL_SCHEMA = {"spec": {"p": 5, "f": 1, "N": 6}, "rank": 1,
                "frobenius": [[{"valuation": 0, "unit": [1]}]]}
_NUMBER_CASES = [
    # (command, flags, base input, path of the field, raw JSON text)
    ("slopes", [], "ordinary2x2.json", ["N"], "1e999"),
    ("slopes", [], "ordinary2x2.json", ["frobenius", 0, 0], "1e999"),
    ("slopes", [], "ordinary2x2.json", ["f"], "-Infinity"),
    ("slopes", [], "ordinary2x2.json", ["N"], "NaN"),
    ("slopes", [], "ordinary2x2.json", ["p"], "5.9"),
    ("slopes", [], "ordinary2x2.json", ["N"], "3.99"),
    ("slopes", [], "ordinary2x2.json", ["N"], "true"),
    ("slopes", [], _FULL_SCHEMA, ["spec", "N"], "6.5"),
    ("slopes", [], _FULL_SCHEMA, ["rank"], "1.5"),
    ("slopes", [], _FULL_SCHEMA, ["frobenius", 0, 0, "valuation"], "0.5"),
    ("slopes", [], _FULL_SCHEMA, ["frobenius", 0, 0, "unit", 0], "false"),
    ("leafdim", [], "gsp4_ordinary.json", ["n"], "Infinity"),
    ("leafdim", [], "gsp4_ordinary.json", ["n"], "4.5"),
    ("perf-member", ["--params", "2,1,0"], "ordseries.json",
     ["terms", 0, "exp", 0, "num"], "1.9"),
    ("perf-member", ["--params", "2,1,0"], "ordseries.json",
     ["terms", 0, "coeff", 0], "1.5"),
    ("perf-member", ["--params", "2,1,0"], "ordseries.json", ["D"], "4.7"),
    ("rigidity", [], "rigidity_pos.json", ["r"], "1.7"),
    ("rigidity", [], "rigidity_pos.json", ["d_seq", 0], "1.9"),
]


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def _run_text(command, flags, base, path, raw, corpus_dir, monkeypatch,
              capsys):
    """Exit status and stdout of command on base with the field at path
    replaced by the raw JSON text."""
    import io
    payload = (json.loads((corpus_dir / base).read_text())
               if isinstance(base, str) else json.loads(json.dumps(base)))
    at = payload
    for key in path[:-1]:
        at = at[key]
    at[path[-1]] = "@FIELD@"
    text = json.dumps(payload).replace('"@FIELD@"', raw)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    return run(capsys, command, *flags)


@pytest.mark.parametrize("command, flags, base, path, raw", _NUMBER_CASES,
                         ids=[f"{c[0]}-{c[3][-1]}-{c[4]}"
                              for c in _NUMBER_CASES])
def test_json_number_that_is_not_an_integer_exit_1(command, flags, base,
                                                   path, raw, corpus_dir,
                                                   monkeypatch, capsys):
    code, out = _run_text(command, flags, base, path, raw, corpus_dir,
                          monkeypatch, capsys)
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out, parse_constant=_reject_constant)["error"] == \
        "MalformedInput"


@pytest.mark.parametrize("command, flags, base, path, raw", [
    ("slopes", [], "ordinary2x2.json", ["p"], '"5"'),
    ("slopes", [], "ordinary2x2.json", ["p"], "5.0"),
    ("slopes", [], "ordinary2x2.json", ["N"], "16.0"),
    ("slopes", [], _FULL_SCHEMA, ["spec", "N"], "6.0"),
    ("leafdim", [], "gsp4_ordinary.json", ["n"], "4.0"),
    ("perf-member", ["--params", "2,1,0"], "ordseries.json", ["D"], "8.0"),
    ("rigidity", [], "rigidity_pos.json", ["r"], "1.0"),
])
def test_integral_json_number_keeps_the_answer(command, flags, base, path,
                                               raw, corpus_dir, monkeypatch,
                                               capsys):
    at = (json.loads((corpus_dir / base).read_text())
          if isinstance(base, str) else base)
    for key in path:
        at = at[key]
    want = _run_text(command, flags, base, path, json.dumps(at), corpus_dir,
                     monkeypatch, capsys)
    assert want[0] == 0
    assert _run_text(command, flags, base, path, raw, corpus_dir,
                     monkeypatch, capsys) == want


def test_unreadable_utf8_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_bytes(b'{"p": 5, "frobenius": [["\xff"]]}')
    code, out = run(capsys, "slopes", "--in", str(p))
    assert code == 1
    assert json.loads(out)["message"] == "unreadable input"


def _nested_slopes(depth, monkeypatch, capsys):
    """slopes on a frobenius of nested lists; the input nests depth deep."""
    import io
    text = ('{"p":5,"frobenius":' + "[" * (depth - 1) + "]" * (depth - 1)
            + "}")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    return run(capsys, "slopes")


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 500, 3000])
def test_deep_nesting_exit_1(depth, monkeypatch, capsys):
    # 500 levels ended in a RecursionError traceback and no JSON line; at
    # 3000, json.loads itself raises it
    code, out = _nested_slopes(depth, monkeypatch, capsys)
    assert code == 1
    assert out == ('{"error":"MalformedInput","message":"unreadable input",'
                   f'"witness":{{"depth":"over {MAX_DEPTH}"}}}}\n')


def test_nesting_at_the_limit_reaches_the_loader(monkeypatch, capsys):
    code, out = _nested_slopes(MAX_DEPTH, monkeypatch, capsys)
    assert code == 1
    assert json.loads(out)["message"] == "bad rational"


def test_full_schema_bch_mul_fits_the_depth_limit(corpus_dir, capsys,
                                                   monkeypatch):
    # the deepest valid input: the algebra in the schema DieudonneLie
    # writes nests a request 7 levels deep
    import io
    from isolab.cli import _load_dla
    obj = json.loads((corpus_dir / "bch_mul.json").read_text())
    full = {**obj, "algebra": _load_dla(obj["algebra"], None).to_json()}
    level, depth = [full], 0
    while any(isinstance(x, (list, dict)) for x in level):
        depth += 1
        level = [v for x in level if isinstance(x, (list, dict))
                 for v in (x.values() if isinstance(x, dict) else x)]
    assert depth == 7 < MAX_DEPTH
    want = run(capsys, "bch-mul", "--in", str(corpus_dir / "bch_mul.json"))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(full)))
    assert run(capsys, "bch-mul") == want
    assert want[0] == 0


# ---- contract: any one-field change of a corpus input gives one JSON line ----

_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.sampled_from(["", "x", "1/2", "-1", "GL", "SO", "g", "h"])
    | st.sampled_from([5.9, 0.5, 1e999, -math.inf, math.nan]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["p", "D", "k", "terms"]), inner,
                      max_size=2),
    max_leaves=6)

# every subcommand that reads JSON; bch-table and slope-exponents read flags
_FLAG_ONLY_COMMANDS = {"bch-table", "slope-exponents"}
_CONTRACT_CASES = [
    ("rigidity", "rigidity_pos.json", []),
    ("nilclass", "gsp4_ordinary.json", []),
    ("coxeter-gate", "gsp4_ordinary.json", ["--p", "5"]),
    ("split", "supersingular2x2.json", []),
    ("slopes", "ordinary2x2.json", []),
    ("hom", "hom_pair.json", []),
    ("dla-check", "heisenberg.json", []),
    ("lcs", "heisenberg.json", []),
    ("bch-mul", "bch_mul.json", []),
    ("lattice-closure", "heisenberg.json", []),
    ("leafdim", "gsp4_ordinary.json", []),
    ("slope-roots", "gsp4_ordinary.json", []),
    ("perf-member", "ordseries.json", ["--params", "2,1,0"]),
    ("perf-ecd", "ordseries.json", ["--E", "2", "--C", "1", "--d", "1"]),
]


@pytest.mark.parametrize("command, base, flags", _CONTRACT_CASES,
                         ids=[c[0] for c in _CONTRACT_CASES])
def test_one_field_change_keeps_json_contract(command, base, flags,
                                              corpus_dir):
    import contextlib
    import io
    payload = json.loads((corpus_dir / base).read_text())

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(field=st.sampled_from(sorted(payload)), value=_SMALL_JSON)
    def check(field, value):
        out, saved = io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(json.dumps({**payload, field: value}))
        try:
            with contextlib.redirect_stdout(out):
                code = main([command, *flags])
        finally:
            sys.stdin = saved
        assert code in (0, 1, 2)
        assert out.getvalue().count("\n") == 1
        json.loads(out.getvalue(), parse_constant=_reject_constant)

    check()
