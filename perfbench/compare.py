"""Summarize one result set, or compare two, per workload and end-to-end metric.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory of ``<workload>-seed<n>-trace0.json`` files
written by run.py.  One set prints each metric's median, quartiles and
spread (the quartile distance as a share of the median), and the median
and spread of the unscaled figures.  Two sets are
paired by workload and seed, and each row gets a verdict:

* ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
* ``unresolved``: the parent's own spread is wider than the bound;
* ``same`` otherwise.

Two sets whose Python version or isolab backend differ are not compared.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: {seed: record}} for the untraced results in a directory."""
    out = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        st = rec["stamp"]
        out.setdefault(st["workload"], {})[st["seed"]] = rec
    if not out:
        raise SystemExit(f"compare: no *-trace0.json results in {directory}")
    return out


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def environment(results):
    return {(r["stamp"]["python"], r["stamp"]["backend"])
            for runs in results.values() for r in runs.values()}


def summarize(results, specs):
    print(f"{'workload':<13}{'metric':<15}{'n':>3}{'median':>13}"
          f"{'q1':>13}{'q3':>13}{'spread':>9}{'bound':>7}{'raw median':>13}"
          f"{'raw spread':>11}")
    for wl, runs in sorted(results.items()):
        for name, spec in specs.items():
            vals = [r["metrics"][name]["value"] for r in runs.values()]
            raw = [r["raw"][name] for r in runs.values()]
            q1, med, q3 = quartiles(vals)
            print(f"{wl:<13}{name:<15}{len(vals):>3}{med:>13.5g}{q1:>13.5g}"
                  f"{q3:>13.5g}{spread(vals):>9.3f}{spec['bound']:>7}"
                  f"{quartiles(raw)[1]:>13.5g}{spread(raw):>11.3f}")
        fails = [r["fail_frac"] for r in runs.values()]
        digests = {r["digest"] for r in runs.values()}
        print(f"{wl:<13}{'fail_frac':<15}{len(fails):>3}"
              f"{statistics.median(fails):>13.5g}   "
              f"correct {sum(r['correct'] for r in runs.values())}/{len(runs)}"
              f", {len(digests)} digests")


def verdict(a_vals, b_vals, pairs, spec):
    sign = 1 if spec["better"] == "higher" else -1
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    q1, med_a, q3 = quartiles(a_vals)
    med_b = quartiles(b_vals)[1]
    if sign * (med_a - med_b) > spec["bound"] * med_a:
        return wins, "regression"
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3 - q1:
        return wins, "gain"
    if spread(a_vals) > spec["bound"]:
        return wins, "unresolved"
    return wins, "same"


def _cell(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def compare(a, b, specs):
    env_a, env_b = environment(a), environment(b)
    if len(env_a | env_b) != 1:
        raise SystemExit("compare: refusing to compare results from different "
                         f"(python, backend): {sorted(env_a | env_b)}")
    print(f"{'workload':<13}{'metric':<15}{'parent median [q1, q3]':<34}"
          f"{'change median [q1, q3]':<34}{'wins':<8}verdict")
    for wl in sorted(set(a) & set(b)):
        seeds = sorted(set(a[wl]) & set(b[wl]))
        for name, spec in specs.items():
            av = [r["metrics"][name]["value"] for r in a[wl].values()]
            bv = [r["metrics"][name]["value"] for r in b[wl].values()]
            pairs = [(a[wl][s]["metrics"][name]["value"],
                      b[wl][s]["metrics"][name]["value"]) for s in seeds]
            wins, v = verdict(av, bv, pairs, spec)
            print(f"{wl:<13}{name:<15}{_cell(quartiles(av)):<34}"
                  f"{_cell(quartiles(bv)):<34}{f'{wins}/{len(pairs)}':<8}{v}")


def main(argv):
    if len(argv) not in (1, 2):
        raise SystemExit(__doc__)
    specs = metric_specs()
    sets = [load(d) for d in argv]
    if len(sets) == 1:
        summarize(sets[0], specs)
    else:
        compare(sets[0], sets[1], specs)


if __name__ == "__main__":
    main(sys.argv[1:])
