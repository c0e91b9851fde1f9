"""isolab benchmark: one workload per process, a closed loop, every answer checked.

    python3 perfbench/run.py --workload slopes --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1              # all four workloads

A single client in one fresh Python process runs one op at a time, each
started when the previous one ends.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the loop untraced and then traced (half the
seconds each) and reports the per-layer metrics and the trace overhead.
The last line of standard output is one JSON object; a stamped copy of
the result goes to ``--out`` (default ``perfbench/out``).

Timings are given at nominal machine speed.  On a shared 2-vCPU virtual
machine the interpreter's speed was seen to switch between two states about
1.7x apart every few seconds, so a fixed pure-Python calibration loop is
timed between ops every 50 ms, and each interval is scaled by NOMINAL_CAL_S
over the mean of the calibrations around it.  Set-up is scaled the same way,
lap by lap.  A cold-start launch is paired with a bare interpreter launch
made right after it and scaled by NOMINAL_BARE_S over that launch's time.
The unscaled figures are kept in the result file under "raw".
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: bytecode cache of every import the benchmark makes, in-process and in
#: launches, so that none of them compiles isolab from source again, however
#: PYTHONDONTWRITEBYTECODE is set and whatever src/ holds
PYCACHE = HERE / "out" / "pycache"

#: set-up is repeated this many times per run and its median reported
SETUP_REPS = 5
#: a run keeps going past --seconds until it has this many ops, so that at
#: least ten samples lie beyond p90, and until it ends on a whole pass, so
#: that every op has the same number of samples
MIN_OPS = 100
#: cold-start launches per run, one at a time; the median is reported
LAUNCHES = 40
COLD_ARGV = ["-m", "isolab.cli", "slopes", "--in", "corpus/ordinary2x2.json"]
COLD_STDOUT = b'{"slopes":[["-1",1],["0",1]]}\n'
BARE_ARGV = ["-c", "pass"]
#: a bare interpreter launch at nominal speed: the yardstick of cold start
NOMINAL_BARE_S = 40e-3
#: the calibration loop's duration at nominal speed, and how often the
#: timed loop recalibrates
NOMINAL_CAL_S = 1e-3
CAL_EVERY_S = 0.05

END_TO_END = {"ops_per_s": "1/s", "lat_p50_ms": "ms", "lat_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB", "cold_start_ms": "ms"}
WORKLOADS = ["slopes", "lie", "roots-series", "cli"]


class BenchError(Exception):
    """The benchmark cannot run here (no isolab source, bad arguments)."""


def calibration():
    """Seconds taken by a fixed piece of pure-Python work unrelated to
    isolab: big-int products and remainders, dict stores, str()."""
    t0 = time.perf_counter()
    d = {}
    x = 3 ** 200
    for i in range(3000):
        d[i % 97] = (x * (i + 1)) % 1000003 + len(str(i))
    return time.perf_counter() - t0


def scale(cal_before, cal_after):
    """Factor taking a raw interval between two calibrations to nominal speed."""
    return NOMINAL_CAL_S * 2 / (cal_before + cal_after)


class Stopwatch:
    """Wall time at nominal speed, scaled lap by lap.

    Each lap ends with a calibration; the lap's raw time is scaled by the
    calibrations at its two ends.  The calibrations themselves are not
    counted, except the first when the watch starts at an earlier time.
    """

    def __init__(self, start=None):
        self.raw = self.scaled = 0.0
        self._cal = calibration()
        self._t = time.perf_counter() if start is None else start

    def lap(self):
        dt = time.perf_counter() - self._t
        cal = calibration()
        self.raw += dt
        self.scaled += dt * scale(self._cal, cal)
        self._cal, self._t = cal, time.perf_counter()


def fresh_isolab():
    """Import isolab from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "isolab" or m.startswith("isolab.")]:
        del sys.modules[name]
    isolab = importlib.import_module("isolab")
    if SRC.resolve() not in Path(isolab.__file__).resolve().parents:
        raise BenchError(f"isolab imported from {isolab.__file__}, not {SRC}")
    return isolab


def canonical(op, outcome):
    """Canonical bytes of a result, or of the error it raised."""
    kind, value = outcome
    if kind == "error":
        return json.dumps({"error": getattr(value, "code",
                                            type(value).__name__)})
    return json.dumps(op.canon(value), sort_keys=True, separators=(",", ":"),
                      default=str)


def digest(canons):
    h = hashlib.sha256()
    for c in canons:
        h.update(c.encode())
        h.update(b"\n")
    return h.hexdigest()


def call(op):
    try:
        return "ok", op.call()
    except Exception as exc:  # counted as a failed op; the run goes on
        return "error", exc


def reference_pass(ops, lap=lambda: None):
    """The untimed first pass: answer checks, reference bytes, warm caches.

    lap() is called after each op.

    Returns one (status, bytes) per op, status "ok", "raised" (a probe op
    that raised) or "wrong" (a wrong answer, or any other op that raised).
    """
    out = []
    for op in ops:
        outcome = call(op)
        if outcome[0] == "error":
            status = "raised" if op.probe else "wrong"
        else:
            try:
                status = "ok" if op.check(outcome[1]) else "wrong"
            except Exception:  # a checker that cannot run rejects the answer
                status = "wrong"
        out.append((status, canonical(op, outcome)))
        lap()
    return out


class Timings:
    """Op times of one loop, raw and scaled segment by segment."""

    def __init__(self):
        self.lat, self.raw_lat, self.kinds = [], [], {}
        self.busy = self.raw_busy = 0.0
        self._segment = []
        self._cal = calibration()

    def add(self, kind, dt, ok):
        self._segment.append((kind, dt, ok))

    def recalibrate(self):
        cal = calibration()
        k = scale(self._cal, cal)
        for kind, dt, ok in self._segment:
            self.busy += dt * k
            self.raw_busy += dt
            if ok:
                self.lat.append(dt * k)
                self.raw_lat.append(dt)
                self.kinds.setdefault(kind, []).append(dt * k)
        self._segment, self._cal = [], cal

    @staticmethod
    def summary(lat, busy):
        lat = sorted(lat)
        return {"ops_per_s": len(lat) / busy,
                "lat_p50_ms": statistics.median(lat) * 1e3,
                "lat_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3}


def closed_loop(ops, ref, seconds, tracer=None, launches=None):
    """Run ops round-robin until --seconds and MIN_OPS, in whole passes.

    Only the call itself is timed.  Comparing its bytes with the reference,
    recalibrating and cold-start launches happen between ops, outside the
    timed intervals (and, when traced, outside the recorded spans).
    """
    clock = time.perf_counter
    times = Timings()
    attempted = failed = 0
    first = [None] * len(ops)
    last_cal = start = clock()
    deadline = start + seconds
    if launches:
        launches.spread_over(start, seconds)
    while True:
        k = attempted % len(ops)
        op = ops[k]
        with tracer.op(attempted, op.kind) if tracer else nullcontext():
            t0 = clock()
            outcome = call(op)
            dt = clock() - t0
        attempted += 1
        with tracer.excluded() if tracer else nullcontext():
            got = canonical(op, outcome)
        if first[k] is None:
            first[k] = got
        status, want = ref[k]
        ok = status == "ok" and outcome[0] == "ok" and got == want
        failed += not ok
        times.add(op.kind, dt, ok)
        now = clock()
        if now - last_cal >= CAL_EVERY_S:
            times.recalibrate()
            last_cal = now = clock()
        if launches:
            deadline += launches.due(now)
        if attempted % len(ops) == 0 and attempted >= MIN_OPS \
                and clock() >= deadline:
            break
    times.recalibrate()
    return {"times": times, "attempted": attempted, "failed": failed,
            "digest": digest(first)}


class Launches:
    """Sequential interpreter launches, spread over the timed loop.

    A launch happens between ops, outside any op's timed interval.  It is
    timed between two calibrations and scaled like an op or, when paired,
    followed by a bare interpreter launch and scaled by NOMINAL_BARE_S over
    that launch's time: process start-up tracks the machine's state more
    closely than the calibration loop does.
    """

    def __init__(self, argv, expect=None, n=LAUNCHES, paired=False):
        self.argv, self.expect, self.n, self.paired = argv, expect, n, paired
        self.times, self.raw, self.ok = [], [], True
        self.next_at = self.interval = None

    def spread_over(self, start, seconds):
        self.next_at, self.interval = start, seconds / self.n

    @staticmethod
    def _spawn(argv):
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   PYTHONPYCACHEPREFIX=str(PYCACHE))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        t0 = time.perf_counter()
        r = subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           check=False)
        return time.perf_counter() - t0, r

    def _launch(self):
        t0 = time.perf_counter()
        before = None if self.paired else calibration()
        dt, r = self._spawn(self.argv)
        if self.paired:
            bare, _ = self._spawn(BARE_ARGV)
            k = NOMINAL_BARE_S / bare
        else:
            k = scale(before, calibration())
        self.raw.append(dt)
        self.times.append(dt * k)
        if r.returncode != 0 or (self.expect is not None
                                 and r.stdout != self.expect):
            self.ok = False
        return time.perf_counter() - t0

    def due(self, now):
        """Launch if one is due; returns the wall time it took."""
        if len(self.times) < self.n and self.next_at is not None \
                and now >= self.next_at:
            self.next_at += self.interval
            return self._launch()
        return 0.0

    def median_ms(self, raw=False):
        while len(self.times) < self.n:
            self._launch()
        if not self.ok:
            return None
        return statistics.median(self.raw if raw else self.times) * 1e3


def stamp(isolab, args):
    git_sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, check=False)
        git_sha = r.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "isolab").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {"python": platform.python_version(),
            "backend": isolab._speedups.BACKEND, "git_sha": git_sha,
            "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def run_workload(args):
    if not (SRC / "isolab" / "__init__.py").is_file():
        raise BenchError(f"no isolab source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.pycache_prefix, sys.dont_write_bytecode = str(PYCACHE), False
    import tracing
    import workloads

    generate, build = workloads.WORKLOADS[args.workload]
    setups, raw_setups = [], []
    for rep in range(SETUP_REPS):
        # the first set-up counts from process start
        watch = Stopwatch(_T0 if rep == 0 else None)
        isolab = fresh_isolab()
        watch.lap()
        specs = generate(args.seed)
        watch.lap()
        ops = build(specs, isolab)
        watch.lap()
        ref = reference_pass(ops, watch.lap)
        setups.append(watch.scaled)
        raw_setups.append(watch.raw)
    checks_ok = all(status != "wrong" for status, _ in ref)
    # probe ops (known-defect inputs) ran once above; the loop times the rest
    probe_raised = sum(status == "raised" for status, _ in ref)
    probes = sum(op.probe for op in ops)
    ops, ref = zip(*[(op, r) for op, r in zip(ops, ref) if not op.probe])
    ref_digest = digest(c for _, c in ref)

    if args.trace:
        plain = closed_loop(ops, ref, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install(isolab)
        try:
            loop = closed_loop(ops, ref, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        rate = len(loop["times"].lat) / loop["times"].busy
        rate_plain = len(plain["times"].lat) / plain["times"].busy
        interp = Launches(BARE_ARGV).median_ms()
        imported = Launches(["-c", "import isolab.cli"]).median_ms()
        metrics = tracer.metrics()
        metrics["isocrystal.edge_probe.raised"] = probe_raised
        metrics["cli.interp_start_ms"] = interp
        metrics["cli.import_ms"] = None if None in (interp, imported) \
            else imported - interp
        metrics["trace.overhead"] = rate_plain / rate - 1
        checks_ok = checks_ok and plain["failed"] == 0 \
            and plain["digest"] == ref_digest and None not in (interp, imported)
        extra = {"spans": len(tracer.spans), "ops_per_s_untraced": rate_plain,
                 "ops_per_s_traced": rate}
        spans = tracer.spans
    else:
        cold = Launches(COLD_ARGV, COLD_STDOUT, paired=True)
        loop = closed_loop(ops, ref, args.seconds, launches=cold)
        t = loop["times"]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = dict(t.summary(t.lat, t.busy),
                       setup_s=statistics.median(setups), peak_rss_mb=rss,
                       cold_start_ms=cold.median_ms())
        raw = dict(t.summary(t.raw_lat, t.raw_busy),
                   setup_s=statistics.median(raw_setups), peak_rss_mb=rss,
                   cold_start_ms=cold.median_ms(raw=True))
        checks_ok = checks_ok and metrics["cold_start_ms"] is not None
        extra = {"raw": raw, "setup_runs_s": setups,
                 "kinds_n_median_ms": {
                     kind: [len(v), statistics.median(v) * 1e3]
                     for kind, v in sorted(t.kinds.items())}}
        spans = None

    correct = (checks_ok and loop["failed"] == 0
               and loop["digest"] == ref_digest and len(loop["times"].lat) > 0)
    result = {
        "correct": correct, "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    record = dict(result, stamp=stamp(isolab, args), digest=ref_digest,
                  fail_frac=loop["failed"] / loop["attempted"],
                  edge_probe={"ops": probes, "raised": probe_raised},
                  ops_per_pass=len(ops), **extra)
    write_result(args, record, spans)
    for name, m in result["metrics"].items():
        print(f"{args.workload:>12} {name:<45} {m['value']!s:>22} {m['unit']}")
    for name, value in extra.get("raw", {}).items():
        print(f"{args.workload:>12} {'raw ' + name:<45} {value!s:>22}")
    print(f"{args.workload:>12} {'fail_frac':<45} {record['fail_frac']!s:>22} "
          f"({loop['failed']}/{loop['attempted']})")
    if probes:
        print(f"{args.workload:>12} {'edge probe raised':<45} "
              f"{probe_raised!s:>22} ({probe_raised}/{probes})")
    print(f"{args.workload:>12} {'digest':<45} {ref_digest[:22]:>22}")
    print(json.dumps(result))
    return 0


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith((".calls", ".raised")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    return "ratio"


def write_result(args, record, spans):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / (base + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(out / (base + ".spans.jsonl"), "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")


def run_suite(args):
    """Each workload in its own fresh process; prints every metric."""
    rc = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(args.out)]
        r = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                           check=False)
        lines = r.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if r.returncode != 0 or not lines \
                or not json.loads(lines[-1])["correct"]:
            print(f"{name}: FAILED (exit {r.returncode})")
            rc = 1
    return rc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all four, one process each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(HERE / "out"))
    args = ap.parse_args(argv)
    try:
        return run_workload(args) if args.workload else run_suite(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
