"""Batch JSON frontend: one subcommand per library operation.

Inputs come from --in (file) or stdin; every result is a single line of
canonically serialized JSON, so identical inputs give byte-identical
outputs.  Exit codes: 0 success, 1 malformed input or arguments, 2 a
library error (the error object carries the error name and its witness).

A call builds the top parser and the parser of the one subcommand it runs,
not those of the other subcommands.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

from .errors import IsolabError, MalformedInput
from .padic import FieldSpec, PadicScalar, _json_int
from .isocrystal import (Isocrystal, internal_hom, newton_slopes, slope_split)
from .dieudonne import DieudonneLie, dla_validate, lower_central_series
from .bch import bch_series, denominator_profile, group_mul, \
    lattice_closure_check
from .roots import (RootDatumWithCochar, coxeter_gate, leaf_dimension,
                    slope_multiset_from_roots, unipotent_nilpotency)
from .perfseries import (PerfectedSeries, RestrictedParams, membership_ECd,
                         membership_restricted, rigidity_check,
                         slope_exponents)

DEFAULT_PRECISION = 32
#: the deepest nesting of lists and objects an input may have; a full-schema
#: bch-mul request, the deepest valid input, nests 7 levels
MAX_DEPTH = 32


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, PadicScalar):
        return x.to_json()
    return x


def _emit(obj):
    sys.stdout.write(json.dumps(_jsonable(obj), sort_keys=True,
                                separators=(",", ":")) + "\n")


def _finite(text):
    """A JSON float; NaN, +-Infinity or an overflow is a ValueError."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"number out of range: {text}")
    return x


def _read_input(args):
    deep = {"depth": f"over {MAX_DEPTH}"}
    try:
        if args.infile and args.infile != "-":
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        obj = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise MalformedInput("unreadable input", witness=str(exc)) from exc
    except RecursionError as exc:
        raise MalformedInput("unreadable input", witness=deep) from exc
    level = [obj]  # the values at each depth, walked without recursion
    for _ in range(MAX_DEPTH):
        level = [v for x in level if isinstance(x, (list, dict))
                 for v in (x.values() if isinstance(x, dict) else x)]
    if any(isinstance(x, (list, dict)) for x in level):
        raise MalformedInput("unreadable input", witness=deep)
    return obj


def _default_n(args):
    if args.precision is not None:
        return args.precision
    env = os.environ.get("ISOLAB_PRECISION")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise MalformedInput("bad ISOLAB_PRECISION", witness=env) from exc
    return DEFAULT_PRECISION


def _frac(v):
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput("bad rational", witness=v) from exc


def _load_spec(obj, args):
    try:
        p = _json_int(obj["p"])
        f = _json_int(obj.get("f", 1))
        N = _json_int(obj["N"]) if "N" in obj else _default_n(args)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput("bad ring parameters", witness=obj) from exc
    return FieldSpec(p, f, N)


def _frac_rows(rows, what):
    if not (isinstance(rows, list)
            and all(isinstance(row, list) for row in rows)):
        raise MalformedInput(f"{what} must be a list of rows", witness=rows)
    return [[_frac(c) for c in row] for row in rows]


def _load_isocrystal(obj, args):
    if not isinstance(obj, dict):
        raise MalformedInput("expected an object", witness=obj)
    if "spec" in obj:
        return Isocrystal.from_json(obj)
    spec = _load_spec(obj, args)
    try:
        rows = obj["frobenius"]
    except KeyError as exc:
        raise MalformedInput("missing frobenius", witness=obj) from exc
    return Isocrystal.from_rationals(spec, _frac_rows(rows, "frobenius"))


def _load_dla(obj, args):
    if not isinstance(obj, dict):
        raise MalformedInput("expected an object", witness=obj)
    if "iso" in obj:
        return DieudonneLie.from_json(obj)
    spec = _load_spec(obj, args)
    try:
        frob = obj["frobenius"]
        bracket = obj["bracket"]
    except KeyError as exc:
        raise MalformedInput("missing frobenius or bracket",
                             witness=sorted(obj)) from exc
    if not isinstance(bracket, list):
        raise MalformedInput("bracket must be a list of rows", witness=bracket)
    lat = obj.get("lattice")
    lat_cols = None
    if lat is not None:
        # row-major in JSON, columns generate (same as the full schema)
        try:
            lat_cols = [[_frac(lat[i][j]) for i in range(len(lat))]
                        for j in range(len(lat[0]))]
        except (IndexError, KeyError, TypeError) as exc:
            raise MalformedInput("bad lattice", witness=lat) from exc
    return DieudonneLie.from_rationals(
        spec, _frac_rows(frob, "frobenius"),
        [_frac_rows(row, "bracket") for row in bracket], lattice_cols=lat_cols)


def _load_vector(obj, spec):
    if not isinstance(obj, list):
        raise MalformedInput("expected a list of rationals", witness=obj)
    return [PadicScalar.from_fraction(spec, _frac(v)) for v in obj]


def _load_datum(args):
    flags = (args.type, args.n, args.nu)
    if all(v is None for v in flags):
        obj = _read_input(args)
        try:
            group_type, nu = obj["type"], [_frac(v) for v in obj["nu"]]
            n = _json_int(obj["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput("bad root datum", witness=obj) from exc
    elif any(v is None for v in flags):
        raise MalformedInput("need --type, --n and --nu together",
                             witness=None)
    else:
        group_type, n = args.type, args.n
        nu = [_frac(v) for v in args.nu.split(",")]
    if args.classical:
        nu = [-v for v in reversed(nu)]
    return RootDatumWithCochar(group_type, n, nu)


def _slope_str(v, classical):
    v = -v if classical else v
    return str(v)


def _slope_list(pairs, classical):
    out = [[_slope_str(s, classical), m] for s, m in pairs]
    out.sort(key=lambda t: Fraction(t[0]))
    return out


# --------------------------------------------------------------------------
# subcommand bodies
# --------------------------------------------------------------------------

def _cmd_slopes(args):
    iso = _load_isocrystal(_read_input(args), args)
    _emit({"slopes": _slope_list(newton_slopes(iso), args.classical)})


def _cmd_split(args):
    iso = _load_isocrystal(_read_input(args), args)
    blocks = slope_split(iso, fine=args.fine)
    out = []
    for lam, basis, sub in blocks:
        out.append({"slope": _slope_str(lam, args.classical),
                    "rank": sub.rank,
                    "basis": basis, "frobenius": sub.F})
    _emit({"blocks": out})


def _cmd_hom(args):
    obj = _read_input(args)
    try:
        y, z = obj["source"], obj["target"]
    except (KeyError, TypeError) as exc:
        raise MalformedInput("need source and target", witness=obj) from exc
    hom = internal_hom(_load_isocrystal(y, args), _load_isocrystal(z, args))
    _emit(hom.to_json())


def _cmd_dla_check(args):
    a = _load_dla(_read_input(args), args)
    _emit(dla_validate(a))


def _cmd_lcs(args):
    a = _load_dla(_read_input(args), args)
    chain, n_class = lower_central_series(a)
    _emit({"dims": [len(term) for term in chain], "n_class": n_class})


def _cmd_bch_table(args):
    fle = bch_series(args.nilpotency_class)
    primes = sorted(denominator_profile(args.nilpotency_class))
    _emit({"series": fle.to_json(), "denominator_primes": primes})


def _cmd_bch_mul(args):
    obj = _read_input(args)
    try:
        alg, xs, ys = obj["algebra"], obj["x"], obj["y"]
    except (KeyError, TypeError) as exc:
        raise MalformedInput("need algebra, x, y", witness=obj) from exc
    a = _load_dla(alg, args)
    x = _load_vector(xs, a.spec)
    y = _load_vector(ys, a.spec)
    _emit({"product": group_mul(a, x, y)})


def _cmd_lattice_closure(args):
    a = _load_dla(_read_input(args), args)
    ok, wit = lattice_closure_check(a, samples=args.samples, seed=args.seed)
    _emit({"closed": ok, "witness": wit})


def _cmd_leafdim(args):
    d = _load_datum(args)
    _emit({"dim": leaf_dimension(d)})


def _cmd_slope_roots(args):
    d = _load_datum(args)
    _emit({"slopes": _slope_list(slope_multiset_from_roots(d),
                                 args.classical)})


def _cmd_nilclass(args):
    d = _load_datum(args)
    _emit({"n_class": unipotent_nilpotency(d)})


def _cmd_coxeter_gate(args):
    d = _load_datum(args)
    _emit(coxeter_gate(d, args.p))


def _cmd_perf_member(args):
    series = PerfectedSeries.from_json(_read_input(args))
    try:
        s, r, n0 = (int(v) for v in args.params.split(","))
    except ValueError as exc:
        raise MalformedInput("params must be s,r,n0",
                             witness=args.params) from exc
    ok, wit = membership_restricted(series, RestrictedParams(r, s, n0),
                                    method=args.method)
    _emit({"member": ok, "witness": wit})


def _cmd_perf_ecd(args):
    series = PerfectedSeries.from_json(_read_input(args))
    ok, wit = membership_ECd(series, _frac(args.E), _frac(args.C),
                             _frac(args.d))
    _emit({"member": ok, "witness": wit})


def _cmd_rigidity(args):
    obj = _read_input(args)
    try:
        f = PerfectedSeries.from_json(obj["f"])
        g = [PerfectedSeries.from_json(o) for o in obj["g"]]
        h = [PerfectedSeries.from_json(o) for o in obj.get("h", [])]
        r = _json_int(obj["r"])
        d_seq = [_json_int(v) for v in obj["d_seq"]]
        block = obj.get("powered_block", "h")
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput("bad rigidity request", witness=obj) from exc
    _emit(rigidity_check(f, g, h, r, d_seq, powered_block=block))


def _cmd_slope_exponents(args):
    a, r, s = slope_exponents(_frac(args.mu1), _frac(args.mu0))
    _emit({"a": a, "r": r, "s": s})


# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument error is MalformedInput, so it too gives one JSON line.

    Subparsers are built with the class of their parent, so they inherit
    this.  Only --help still prints and exits (status 0).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # an argument that starts like a negative number (-1,-2,-3 or -1/2)
        # is a value, not an unknown flag: "--nu -1,-2" reads as "--nu=-1,-2"
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise MalformedInput(message)

    def parse_args(self, args=None, namespace=None):
        # argparse reports a missing subcommand before an unknown flag, so
        # "isolab --bogus" would not name the flag; the top parser's
        # subcommand is optional to argparse and required here
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            raise MalformedInput(f"unrecognized arguments: {' '.join(extras)}")
        if args.command is None:
            raise MalformedInput("the following arguments are required: "
                                 "command")
        return args


#: each subcommand's handler and the flags it adds to --in, --classical and
#: --precision, in the order usage, --help and "invalid choice" list them
_DATUM = {"--type": {}, "--n": {"type": int}, "--nu": {}}
_SUBCOMMANDS = {
    "slopes": (_cmd_slopes, {}),
    "split": (_cmd_split, {"--fine": {"action": "store_true"}}),
    "hom": (_cmd_hom, {}),
    "dla-check": (_cmd_dla_check, {}),
    "lcs": (_cmd_lcs, {}),
    "bch-table": (_cmd_bch_table, {"--class": {
        "dest": "nilpotency_class", "type": int, "required": True}}),
    "bch-mul": (_cmd_bch_mul, {}),
    "lattice-closure": (_cmd_lattice_closure, {
        "--samples": {"type": int, "default": 100},
        "--seed": {"type": int, "default": 0}}),
    "leafdim": (_cmd_leafdim, _DATUM),
    "slope-roots": (_cmd_slope_roots, _DATUM),
    "nilclass": (_cmd_nilclass, _DATUM),
    "coxeter-gate": (_cmd_coxeter_gate, {
        "--p": {"type": int, "required": True}, **_DATUM}),
    "perf-member": (_cmd_perf_member, {
        "--params": {"required": True}, "--method": {"default": "both"}}),
    "perf-ecd": (_cmd_perf_ecd, {"--E": {"required": True},
                                 "--C": {"required": True},
                                 "--d": {"required": True}}),
    "rigidity": (_cmd_rigidity, {}),
    "slope-exponents": (_cmd_slope_exponents, {"--mu1": {"required": True},
                                               "--mu0": {"required": True}}),
}


class _Subcommands(argparse._SubParsersAction):
    """The subcommand positional, building a subcommand's parser the first
    time it is dispatched to.

    Its choices are the whole _SUBCOMMANDS table, so the usage line, --help
    and "invalid choice" list every name; _name_parser_map holds only the
    parsers built so far.  argparse checks the name against the choices
    before it calls the action, and the "isolab" prefix of each parser's
    prog was fixed when the action was made, so a parser built late reads
    as one built up front.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.choices = _SUBCOMMANDS

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        if name not in self._name_parser_map:
            fn, flags = self.choices[name]
            p = self.add_parser(name)
            p.add_argument("--in", dest="infile", default=None)
            # SUPPRESS keeps a pre-subcommand --classical/--precision from
            # being clobbered by the subparser's defaults
            p.add_argument("--classical", action="store_true",
                           default=argparse.SUPPRESS)
            p.add_argument("--precision", type=int, default=argparse.SUPPRESS)
            for flag, kw in flags.items():
                p.add_argument(flag, **kw)
            p.set_defaults(fn=fn)
        super().__call__(parser, namespace, values, option_string)


@functools.cache
def _build_parser():
    """The one top parser of this process, built on the first call.  Each
    subcommand's parser is built the first time a call names it, and kept.

    Sharing them is safe: parse_args builds a fresh Namespace each time,
    _Parser.error keeps no state, no default is mutable, and the handlers
    look up the library functions by their module-global names at call time.
    """
    # --help shows the module docstring without its last paragraph
    top = _Parser(prog="isolab", description=__doc__.rsplit("\n\n", 1)[0])
    top.add_argument("--classical", action="store_true",
                     help="negate all slope signs in inputs and outputs")
    top.add_argument("--precision", type=int, default=None,
                     help="working precision N (default ISOLAB_PRECISION)")
    top.add_subparsers(dest="command", action=_Subcommands)
    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.fn(args)
        return 0
    except SystemExit as exc:  # --help
        return 0 if not exc.code else 1
    except MalformedInput as exc:
        _emit(exc.to_json())
        return 1
    except IsolabError as exc:
        _emit(exc.to_json())
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
