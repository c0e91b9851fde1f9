"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import isolab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    generate, _ = workloads.WORKLOADS[name]
    first = json.dumps(generate(7), sort_keys=True)
    assert json.dumps(generate(7), sort_keys=True) == first
    assert json.dumps(generate(8), sort_keys=True) != first


def _bump(pairs):
    return [(lam + 1, m) for lam, m in pairs]


#: op kind -> a deliberately wrong version of a correct answer
CORRUPT = {
    "newton_slopes": lambda r: _bump(r),
    "newton_slopes.edge": lambda r: _bump(r),
    "adjoint_slope_cross_check": lambda r: r[:-1],
    "slope_split": lambda r: [(lam + 1, b, s) for lam, b, s in r],
    # scaling F by p raises every slope by one
    "internal_hom": lambda r: isolab.Isocrystal(
        r.spec, [[c.scale_p(1) for c in row] for row in r.F]),
    "dla_validate": lambda r: dict(r, jacobi=False),
    "lower_central_series": lambda r: (r[0], r[1] + 1),
    "minimal_slope_center_check": lambda r: (False, {"witness_basis_index": 0}),
    "group_mul": lambda r: [r[0] + isolab.PadicScalar.from_int(r[0].spec, 1)]
    + r[1:],
    "lattice_closure_check": lambda r: (False, {"x": [1], "y": [1]}),
    "rho_defect": lambda r: (r[0], dict(r[1], member=None)),
    "coxeter_gate": lambda r: dict(r, n_class=r["h_weyl"]),
    "unipotent_nilpotency": lambda r: r + 99,
    "leaf_dimension": lambda r: r + 1,
    "membership_restricted": lambda r: (not r[0], r[1]),
    "membership_ECd": lambda r: (not r[0], r[1]),
    "rigidity_check": lambda r: dict(
        r, congruences=[not c for c in r["congruences"]]),
    "cli": lambda r: (2, r[1]),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_checker_rejects_a_corrupted_answer(name):
    generate, build = workloads.WORKLOADS[name]
    seen = set()
    for op in build(generate(3), isolab):
        kind = "cli" if op.kind.startswith("cli.") else op.kind
        if kind in seen:
            continue
        try:
            result = op.call()
        except isolab.IsolabError:
            assert op.probe  # only inputs beyond the precision limit may raise
            continue
        assert op.check(result), kind
        assert not op.check(CORRUPT[kind](result)), kind
        seen.add(kind)
    assert seen, name


def test_cli_checker_rejects_two_lines_and_non_json():
    assert workloads._cli_ok((0, '{"a":1}\n'))
    assert not workloads._cli_ok((0, '{"a":1}\n{"a":1}\n'))
    assert not workloads._cli_ok((0, "Traceback\n"))
    assert not workloads._cli_ok((0, '{"a":1}'))


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.child", 2.0, 3.0, 1, 0),
        ("b", 5.0, 7.0, 0, 0),
        ("c", 6.0, 8.0, 0, 0),   # overlaps b: covered time is a union
        ("other_op", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [10 - (3 + 3), 3 - 1, 1, 2, 2, 1])


def test_tracer_rebinds_everywhere_and_restores():
    from isolab import isocrystal, linalg

    orig = linalg.mat_mul
    spec = isolab.FieldSpec(3, 2, 16)
    M = isolab.Isocrystal.from_rationals(
        spec, [[0, Fraction(1, 3)], [1, 0]])
    tracer = tracing.Tracer()
    tracer.install(isolab)
    try:
        assert isocrystal.mat_mul is linalg.mat_mul is not orig
        with tracer.op(0, "newton_slopes"):
            isolab.newton_slopes(M)
        with tracer.excluded():
            isolab.newton_slopes(M)
    finally:
        tracer.uninstall()
    assert isocrystal.mat_mul is linalg.mat_mul is orig
    names = [s[0] for s in tracer.spans]
    assert names[0] == "op.newton_slopes"
    top = names.index("isocrystal.newton_slopes")
    assert tracer.spans[top][3] == 0
    assert any(s[0] == "linalg.charpoly" and s[3] == top for s in tracer.spans)
    m = tracer.metrics()
    assert m["isocrystal.newton_slopes.calls"] == 1
    assert m["padic.PadicScalar.__mul__.calls"] > 0
    assert m["padic.zq_mul.calls"] > 0


def test_benchmark_json_lists_every_metric_run_py_emits():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run

    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    layer = set(tracing.Tracer().metrics()) | {
        "cli.interp_start_ms", "cli.import_ms", "trace.overhead",
        "isocrystal.edge_probe.raised"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"])
