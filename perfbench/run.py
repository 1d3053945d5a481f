"""pcflab benchmark: the three subcommands run the way a user runs them.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Every operation goes through ``pcflab.cli.main`` in-process (the iterate
audit calls ``projmap.iterate``), one after another, from one closed-loop
client.  A run repeats whole passes over its workload's operations while
another pass still fits in ``--seconds`` (at least one pass), then checks
every output against computations made by ``bench_oracle``.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` it wraps pcflab's public functions (``bench_trace``) and
reports the per-layer metrics.  Untraced times are scaled by the host's
speed, sampled while the operations run (``bench_speed``).  The last line
of standard output is the result object; the line before it carries
machine facts, per-operation times and the reason for every failed
operation.  README.md explains the workloads, the checks and the known
faults.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import bench_oracle as oracle
import bench_speed as speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SYM2_FILE = HERE / "maps" / "sym2.json"
PER_LAYER_UNITS = {m["name"]: m["unit"]
                   for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
WORKLOADS = ("analyze-sweep", "periodic-audit", "basin-scan")
SETUP_REPEATS = 8
RESIDUAL_TOL = 1e-9  # projective distance a reported point may move under f^l
POINT_TOL = 1e-9  # projective distance to the closed-form periodic point
SPECTRUM_TOL = 1e-8  # relative difference of conjugate multipliers
BASIN_MARGIN = 0.01  # pixels this far from a basin boundary must be labeled

# Fixed matrices for the periodic-audit conjugates, and the operations that
# fail on them every time because of a known fault (README, "Known faults").
MATRICES = {"A": [[3, 0, 0], [2, 3, 1], [0, -2, -1]], "B": [[1, -3, 3], [2, -2, 3], [1, -2, 2]]}
LEDGER = {
    "periodic conj(squaring-p2,A) --period 1": "(a) missed fixed points",
    "periodic conj(sym2,A) --period 1": "(a) missed fixed points",
    "periodic conj(squaring-p2,B) --period 1": "(b) overcounted multiplicities",
    "periodic conj(sym2,B) --period 1": "(b) overcounted multiplicities",
}


def _x(s):
    return oracle.parse_form(s, 3)


# The benchmark's own copies of its input maps and of their critical lines
# (the critical lines are checked against the Jacobian in oracle.closure).
BASE_FORMS = {
    "squaring-p1": [{(2, 0): Fraction(1)}, {(0, 2): Fraction(1)}],
    "squaring-p2": [_x("x^2"), _x("y^2"), _x("z^2")],
    "fs-1992-a": [_x("x^2 - 4*x*y + 4*y^2"), _x("x^2 - 4*x*z + 4*z^2"), _x("x^2")],
    "sym2": oracle.mapfile_forms(json.loads(SYM2_FILE.read_text())),
}
CRITICAL_LINES = {
    "squaring-p2": ["x", "y", "z"],
    "fs-1992-a": ["x", "x - 2*y", "x - 2*z"],
    "sym2": ["x", "y", "z"],
}
# Periodic points in closed form, for the squaring maps and Sym^2.
CLOSED_FORM = {
    "squaring-p1": lambda l: oracle.squaring_fixed_points(2, l),
    "squaring-p2": lambda l: oracle.squaring_fixed_points(3, l),
    "sym2": oracle.sym2_fixed_points,
}


@dataclass
class Sizes:
    iterate_max: int  # the iterate audit runs n = 1..iterate_max
    long_periods: bool  # period 2 on the plane maps, period 5 on squaring-p1
    grid: int  # basin scan resolution per side


FULL = Sizes(iterate_max=4, long_periods=True, grid=64)
SMOKE = Sizes(iterate_max=3, long_periods=False, grid=12)


@dataclass
class Op:
    label: str
    kind: str  # "analyze" | "periodic" | "fatou" | "iterate"
    argv: list = field(default_factory=list)
    map: str = ""  # key of BASE_FORMS
    matrix: list = None  # conjugating matrix, or None for a base map
    base: str = ""  # label of the base-map operation to compare with
    n: int = 0  # iterate count or period bound
    window: tuple = ()  # (center x, center y, radius) of a basin scan


@dataclass
class Outcome:
    start: tuple  # clock() readings: (perf_counter, perf_counter less sampling time)
    end: tuple
    rc: int = 0
    out: str = ""
    err: str = ""
    value: object = None  # iterate forms, or fatou grid bytes

    @property
    def seconds(self) -> float:
        return self.end[1] - self.start[1]


# -- inputs --------------------------------------------------------------------


def dense_matrix(rng):
    """A 3x3 matrix with entries in +-1..+-3, none zero, non-singular.

    Dense, so every conjugate is a full quadratic map of similar cost.
    """
    while True:
        a = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)] for _ in range(3)]
        if oracle.det(a):
            return a


def map_source(name: str) -> str:
    return str(SYM2_FILE) if name == "sym2" else f"catalog:{name}"


class Inputs:
    """Seeded inputs of one workload, written as map files under ``outdir``."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, outdir: Path):
        self.outdir = outdir
        self.rng = random.Random(f"{workload}/{seed}")
        outdir.mkdir(parents=True, exist_ok=True)
        self.ops = getattr(self, "_" + workload.replace("-", "_"))(sizes)

    def conj_file(self, name: str, tag: str, a) -> str:
        """Write adj(a) o f o a as a map file and read it back."""
        forms = oracle.conjugate(BASE_FORMS[name], a)
        path = self.outdir / f"conj-{name}-{tag}.json"
        path.write_text(json.dumps(oracle.to_mapfile(forms)), encoding="utf-8")
        back = oracle.mapfile_forms(json.loads(path.read_text(encoding="utf-8")))
        if back != forms:
            raise RuntimeError(f"{path} did not read back")
        return str(path)

    def _analyze_sweep(self, sizes: Sizes):
        ops = []
        bases = ("squaring-p2", "fs-1992-a", "sym2")
        for name in bases:
            ops.append(Op(f"analyze {name}", "analyze", ["analyze", map_source(name)], name))
        for name in bases:
            a = dense_matrix(self.rng)
            ops.append(Op(f"analyze conj({name})", "analyze",
                          ["analyze", self.conj_file(name, "seeded", a)], name, a,
                          base=f"analyze {name}"))
        self.rng.shuffle(ops)
        for name in ("squaring-p1", "squaring-p2", "fs-1992-a"):
            for n in range(1, sizes.iterate_max + 1):
                ops.append(Op(f"iterate {name} {n}", "iterate", map=name, n=n))
        return ops

    def _periodic_audit(self, sizes: Sizes):
        # Fixed inputs only: periodic fails on some seeded conjugates of every
        # plane map (faults (a) and (b)), which would make the failed share
        # depend on the seed.  The seed orders the operations.
        ops = []
        plane = ("squaring-p2", "fs-1992-a", "sym2")
        periods = (1, 2) if sizes.long_periods else (1,)
        for name in plane:
            for l in periods:
                ops.append(Op(f"periodic {name} --period {l}", "periodic",
                              ["periodic", map_source(name), "--period", str(l)], name, n=l))
        l = 5 if sizes.long_periods else 3
        ops.append(Op(f"periodic squaring-p1 --period {l}", "periodic",
                      ["periodic", map_source("squaring-p1"), "--period", str(l)],
                      "squaring-p1", n=l))
        for name in plane:
            for tag, a in MATRICES.items():
                ops.append(Op(f"periodic conj({name},{tag}) --period 1", "periodic",
                              ["periodic", self.conj_file(name, tag, a), "--period", "1"],
                              name, a, base=f"periodic {name} --period 1", n=1))
        self.rng.shuffle(ops)
        return ops

    def _basin_scan(self, sizes: Sizes):
        ops = []
        jitter = lambda: round(self.rng.uniform(-0.05, 0.05), 4)  # noqa: E731
        windows = {"inside": (jitter(), jitter(), 0.9),
                   "straddle": (1 + jitter(), 1 + jitter(), 0.5)}
        for name in ("squaring-p2", "sym2"):
            for wname, (cx, cy, r) in windows.items():
                prefix = self.outdir / f"grid-{name}-{wname}"
                argv = ["fatou", map_source(name), f"--center={cx},{cy}", "--radius", str(r),
                        "--grid", str(sizes.grid), "--out", str(prefix)]
                ops.append(Op(f"fatou {name} {wname}", "fatou", argv, name, window=(cx, cy, r)))
        self.rng.shuffle(ops)
        return ops


# -- running -------------------------------------------------------------------------


def setup(workload: str, seed: int, sizes: Sizes, outdir: Path):
    """Imports, seeded inputs, map files, warm-up: everything before the first timed op."""
    sys.path.insert(0, str(ROOT / "src"))
    import pcflab
    from pcflab import catalog, cli, projmap

    if Path(pcflab.__file__).resolve().parent != ROOT / "src" / "pcflab":
        raise RuntimeError(f"pcflab imported from {pcflab.__file__}, not from this checkout")
    inputs = Inputs(workload, seed, sizes, outdir)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["analyze", "catalog:squaring-p1"])
        cli.main(["periodic", "catalog:squaring-p1", "--period", "1"])
        cli.main(["fatou", "catalog:squaring-p1", "--grid", "4"])
    maps = {name: catalog.get(name).map for name in ("squaring-p1", "squaring-p2", "fs-1992-a")}
    return pcflab, cli, projmap, maps, inputs


def wall_clock():
    now = time.perf_counter()
    return now, now


def run_op(op: Op, cli, projmap, maps, clock) -> Outcome:
    if op.kind == "iterate":
        t0 = clock()
        it = projmap.iterate(maps[op.map], op.n)
        t1 = clock()
        return Outcome(t0, t1, value=[dict(c.terms) for c in it.comps])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        rc = cli.main(list(op.argv))
        t1 = clock()
    outcome = Outcome(t0, t1, rc, out.getvalue(), err.getvalue())
    if op.kind == "fatou" and rc == 0:
        prefix = op.argv[op.argv.index("--out") + 1]
        outcome.value = (Path(prefix + ".csv").read_bytes() + Path(prefix + ".pgm").read_bytes())
    return outcome


def run_pass(ops, cli, projmap, maps, clock):
    results = []
    for op in ops:
        t0 = clock()
        try:
            results.append(run_op(op, cli, projmap, maps, clock))
        except Exception:  # a crash is a failed operation, not the end of the run
            results.append(Outcome(t0, clock(), rc=-1, err=traceback.format_exc()))
    return results


def measure(ops, cli, projmap, maps, seconds: float, min_passes: int, clock, tracer=None):
    """At least min_passes whole passes, more while the next is expected to fit in ``seconds``."""
    passes, layer = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset_stats()
        t0 = time.perf_counter()
        passes.append(run_pass(ops, cli, projmap, maps, clock))
        wall = time.perf_counter() - t0
        if tracer is not None:
            layer.append({name: tracer.metric(name) for name in PER_LAYER_UNITS})
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + wall > seconds:
            return passes, layer


def median_op_seconds(passes, seconds):
    """Each operation's median over the run's passes of ``seconds(outcome)``."""
    return [statistics.median(seconds(p[i]) for p in passes) for i in range(len(passes[0]))]


# -- checks --------------------------------------------------------------------------


class Checker:
    """Checks every outcome; per-input oracle results are computed once."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"check/{seed}")
        self.closures = {}

    def forms(self, op: Op):
        if op.matrix is None:
            return BASE_FORMS[op.map]
        return oracle.conjugate(BASE_FORMS[op.map], op.matrix)

    def closure(self, op: Op):
        key = (op.map, str(op.matrix))
        if key not in self.closures:
            base = oracle.closure(BASE_FORMS[op.map], [_x(s) for s in CRITICAL_LINES[op.map]])
            self.closures[key] = base if op.matrix is None else base.conjugated(op.matrix)
        return self.closures[key]

    def check(self, op: Op, res: Outcome, same_pass: dict, first: dict):
        """Problems found in one outcome (empty when it is correct)."""
        if op.kind != "iterate" and res.rc != 0:
            return [f"exit {res.rc}: {res.err.strip()[-300:]}"]
        try:
            return getattr(self, "check_" + op.kind)(op, res, same_pass, first)
        except Exception:
            return ["check raised: " + traceback.format_exc()[-600:]]

    def check_analyze(self, op, res, same_pass, first):
        problems = []
        rep = json.loads(res.out)
        forms = self.forms(op)
        d = oracle.form_degree(forms[0])
        if oracle.mapfile_forms(rep["map"]["mapfile"]) != forms:
            problems.append("report echoes a different map")
        if rep["pcf"]["status"] != "PCF":
            return problems + [f"status {rep['pcf']['status']}"]
        ref = self.closure(op)
        seen = set()
        for comp in rep["pcf"]["components"]:
            form = _x(comp["form"])
            key = oracle.canonical(form)
            if key not in ref.nodes or key in seen:
                problems.append(f"component {comp['form']} is not in the closure")
                continue
            seen.add(key)
            want = (oracle.form_degree(form), ref.nodes[key][2], ref.period[key], ref.preperiod[key])
            got = (comp["degree"], comp["origin"], comp["period"], comp["preperiod"])
            if got != want:
                problems.append(f"{comp['form']}: (degree, origin, period, preperiod) {got} != {want}")
            image = _x(comp["image"])
            if oracle.canonical(image) != ref.successor[key]:
                problems.append(f"{comp['form']}: image {comp['image']} is not its successor")
            for p in oracle.param_points(ref.nodes[key][1], 4):
                if oracle.evaluate(image, oracle.apply_map(forms, p)) != 0:
                    problems.append(f"{comp['form']}: f{p} is off {comp['image']}")
        if seen != set(ref.nodes):
            problems.append(f"{len(ref.nodes) - len(seen)} closure components missing")
        for level in rep["tower"] or ():
            for entry in level["entries"]:
                for text in entry["map"] or ():
                    deg = oracle.form_degree(oracle.parse_form(text, 2))
                    if deg != d ** level["iterate_exponent"]:
                        problems.append(f"restriction to {entry['label']} has degree {deg}")
        for dc in rep["degree_checks"] or ():
            if not (dc["ok"] and dc["expected"] == dc["actual"]):
                problems.append(f"degree check {dc}")
        if op.base:
            base = same_pass.get(op.base)
            if base is None or base.rc != 0:
                return problems + ["base map report missing"]
            problems += [f"{what} differs from the base map's"
                         for what, fn in INVARIANTS if fn(rep) != fn(json.loads(base.out))]
        return problems

    def check_iterate(self, op, res, same_pass, first):
        forms = BASE_FORMS[op.map]
        d = oracle.form_degree(forms[0])
        it = res.value
        if any(oracle.form_degree(c) != d ** op.n for c in it if c):
            return [f"degree is not {d ** op.n}"]
        problems = []
        for _ in range(3):
            p = tuple(Fraction(self.rng.randint(-5, 5)) for _ in forms)
            if not any(p):
                p = (Fraction(1),) + p[1:]
            q = p
            for _ in range(op.n):
                q = oracle.apply_map(forms, q)
            if not oracle.parallel(oracle.apply_map(it, p), q):
                problems.append(f"f^{op.n}{p} disagrees with the orbit")
        return problems

    def check_periodic(self, op, res, same_pass, first):
        problems = []
        rep = json.loads(res.out)
        forms = self.forms(op)
        k, d = len(forms) - 1, oracle.form_degree(forms[0])
        rows = rep["periodic"]["bezout"]
        if [r["period"] for r in rows] != list(range(1, op.n + 1)):
            problems.append("count rows do not cover every period")
        for r in rows:
            want = sum((d ** r["period"]) ** j for j in range(k + 1))
            if (r["expected"], r["distinct"], r["weighted"]) != (want,) * 3:
                problems.append(f"period {r['period']}: expected/distinct/weighted "
                                f"{r['expected']}/{r['distinct']}/{r['weighted']}, want {want}")
        if rep["theorem_b"]["violations"]:
            problems.append(f"{len(rep['theorem_b']['violations'])} theorem B violations")
        ff = oracle.float_forms(forms)
        points = [(tuple(complex(float(re), float(im)) for re, im in p["point"]), p["period"],
                   [complex(float(re), float(im)) for re, im in p["spectrum"]])
                  for p in rep["periodic"]["points"]]
        for pt, per, _spec in points:
            res_ = oracle.orbit_residual(ff, pt, per)
            if not res_ < RESIDUAL_TOL:
                problems.append(f"point moved by {res_:.3g} under f^{per}")
        if op.map in CLOSED_FORM:
            expected = self.closed_form_points(op)
            if not oracle.match_points([p for p, _, _ in points], [p for p, _ in expected], POINT_TOL):
                problems.append(f"{len(points)} points differ from the {len(expected)} in closed form")
            else:
                for pt, per, _spec in points:
                    want = next(q for p, q in expected if oracle.proj_distance(p, pt) < POINT_TOL)
                    if per != want:
                        problems.append(f"minimal period {per}, closed form says {want}")
        if op.map.startswith("squaring"):
            if not all(oracle.is_power_of_two_or_zero(lam, 1e-8) for _, _, s in points for lam in s):
                problems.append("a multiplier is neither 0 nor a power of 2")
        elif op.base:
            base = same_pass.get(op.base)
            if base is None or base.rc != 0:
                return problems + ["base map report missing"]
            spectra = [(p["period"], [complex(float(re), float(im)) for re, im in p["spectrum"]])
                       for p in json.loads(base.out)["periodic"]["points"]]
            if not oracle.match_spectra([(per, s) for _, per, s in points], spectra, SPECTRUM_TOL):
                problems.append("multiplier multiset differs from the base map's")
        return problems

    def closed_form_points(self, op):
        """(point, minimal period) for every point of period dividing 1..op.n."""
        out = []
        for l in range(1, op.n + 1):
            for p in CLOSED_FORM[op.map](l):
                if op.matrix is not None:
                    p = oracle.mat_vec(oracle.adjugate(op.matrix), p)
                if all(oracle.proj_distance(p, q) >= POINT_TOL for q, _ in out):
                    out.append((p, l))
        return out

    def check_fatou(self, op, res, same_pass, first):
        if first[op.label] is not res:
            # Later passes only need to reproduce the first pass's grid,
            # whose own check covers its content.
            return [] if res.value == first[op.label].value else ["grid differs from the first pass"]
        problems = []
        rep = json.loads(res.out)["fatou"]
        cands = [tuple(Fraction(c) for c in p) for p in rep["candidates"]]
        unit = [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]
        if sorted(cands) != sorted(unit):
            return problems + [f"candidates {rep['candidates']} are not the three coordinate points"]
        which = {cands.index(u): i for i, u in enumerate(unit)}  # label -> coordinate index
        cx, cy, r = op.window
        csv = res.value.split(b"P5\n", 1)[0].decode("ascii").splitlines()[1:]
        n = int(op.argv[op.argv.index("--grid") + 1])
        wrong = missing = 0
        for line in csv:
            row, col, label, _iters = (int(v) for v in line.split(","))
            x = complex(cx - r + 2.0 * r * col / (n - 1))
            y = complex(cy - r + 2.0 * r * row / (n - 1))
            if op.map == "squaring-p2":
                want, clear = oracle.squaring_basin((x, y, 1 + 0j), BASIN_MARGIN)
            else:
                inside, clear = oracle.sym2_inside_count((x, y, 1 + 0j), BASIN_MARGIN)
                want = {2: 0, 1: 1, 0: 2}[inside]  # both roots -> 0: (1:0:0), ...
            if label >= 0 and which[label] != want:
                wrong += 1
            elif label < 0 and clear:
                missing += 1
        if len(csv) != n * n:
            problems.append(f"{len(csv)} pixels, want {n * n}")
        if wrong:
            problems.append(f"{wrong} pixels labeled with the wrong basin")
        if missing:
            problems.append(f"{missing} pixels off every basin boundary left unlabeled")
        return problems


def _tower_verdicts(rep):
    return sorted((lv["codimension"], e["verdict"]) for lv in rep["tower"] or () for e in lv["entries"])


INVARIANTS = (
    ("transversality verdict", lambda r: r["transversality"] and r["transversality"]["verdict"]),
    ("containment verdicts", lambda r: r["containment"] and (
        r["containment"]["ok"], sorted(e["verdict"] for e in r["containment"]["entries"]))),
    ("tower verdicts", _tower_verdicts),
)


def check_all(ops, passes, checker):
    """Label -> problems of the operation's first failing pass, for every failing op."""
    failures, failed = {}, 0
    first = dict(zip((op.label for op in ops), passes[0]))
    for results in passes:
        same_pass = dict(zip((op.label for op in ops), results))
        for op, res in zip(ops, results):
            problems = checker.check(op, res, same_pass, first)
            if problems:
                failed += 1
                failures.setdefault(op.label, problems)
    return failures, failed


# -- reporting -----------------------------------------------------------------------


def machine_facts(mpmath) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def setup_samples(workload: str, seed: int, outdir: Path, count: int):
    """(wall, scaled) seconds from spawning a fresh interpreter to the end of its set-up.

    The child samples the kernel while it sets up and reports the time it
    spent sampling and the mean speed (``setup_child``).
    """
    out = []
    for i in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed), "--outdir", str(outdir / f"setup{i}")]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - t0
            child.stdout.read()
            words = line.split()
            if child.wait() != 0 or len(words) != 3 or words[0] != b"ready":
                raise RuntimeError(f"set-up child failed: {line!r}")
        spent, factor = float(words[1]), float(words[2])
        out.append((wall - spent, (wall - spent) * factor))
    return out


def setup_child(workload: str, seed: int, outdir: Path) -> str:
    """Set up under the speedometer, with a sample at each end; the line to report."""
    with speed.Speedometer() as meter:
        meter.sample()
        setup(workload, seed, FULL, outdir)
        meter.sample()
    factor = speed.speed_factor([dt for _, dt in meter.samples])
    return f"ready {meter.spent!r} {factor!r}"


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL,
        outdir: Path = None, min_passes: int = 1):
    """One benchmark run; returns (result line dict, detail dict)."""
    outdir = outdir or ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    if outdir.exists():
        shutil.rmtree(outdir)
    # Half the set-up samples are taken before the passes and half after, so
    # that they meet more of the machine's slow and fast phases.
    samples = [] if trace or sizes is SMOKE else setup_samples(
        workload, seed, outdir / "before", SETUP_REPEATS // 2)
    pcflab, cli, projmap, maps, inputs = setup(workload, seed, sizes, outdir)
    import mpmath

    tracer = meter = None
    if trace:
        from bench_trace import Tracer
        tracer = Tracer()
        tracer.install(pcflab)
        try:
            passes, layer = measure(inputs.ops, cli, projmap, maps, seconds, min_passes,
                                    wall_clock, tracer)
        finally:
            tracer.uninstall()
    else:
        with speed.Speedometer() as meter:
            passes, layer = measure(inputs.ops, cli, projmap, maps, seconds, min_passes,
                                    meter.clock)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if samples:
        samples += setup_samples(workload, seed, outdir / "after", SETUP_REPEATS - len(samples))
    failures, failed = check_all(inputs.ops, passes, Checker(seed))
    correct = set(failures) <= set(LEDGER)
    wall = median_op_seconds(passes, lambda r: r.seconds)
    scaled = wall if meter is None else median_op_seconds(
        passes, lambda r: meter.scaled(r.start, r.end))
    if trace:
        tracer.write(outdir / "spans.jsonl")
        metrics = {name: {"value": statistics.median(v[name] for v in layer), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in samples) if samples else 0.0,
                        "unit": "s"},
            "run_s": {"value": sum(scaled), "unit": "s"},
            "slowest_op_s": {"value": max(scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": len(inputs.ops) * len(passes),
              "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_facts(mpmath),
        "passes": len(passes), "run_wall_s": sum(wall), "run_scaled_s": sum(scaled),
        "setup_wall_s": [w for w, _ in samples], "setup_scaled_s": [s for _, s in samples],
        "kernel_s": [dt for _, dt in meter.samples] if meter else [],
        "op_wall_s": {op.label: t for op, t in zip(inputs.ops, wall)},
        "op_scaled_s": {op.label: t for op, t in zip(inputs.ops, scaled)},
        "pass_op_wall_s": [[r.seconds for r in p] for p in passes],
        "matrices": {op.label: op.matrix for op in inputs.ops if op.matrix is not None},
        "failures": {label: {"problems": probs, "ledger": LEDGER.get(label)}
                     for label, probs in failures.items()},
    }
    (outdir / "result.json").write_text(json.dumps({"result": result, "detail": detail}, indent=1))
    return result, detail


def smoke(outdir: Path, seed: int = 1):
    """Every workload once at reduced size with every check on.

    basin-scan runs twice, since its check that every pass yields the same
    grid needs a second pass.
    """
    return {w: run(w, seed, 0.0, False, SMOKE, outdir / w, 2 if w == "basin-scan" else 1)
            for w in WORKLOADS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run every workload once, reduced")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--outdir", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("PCFLAB_PRECISION", None)
    if args.setup_only:
        print(setup_child(args.workload, args.seed, args.outdir), flush=True)
        shutil.rmtree(args.outdir, ignore_errors=True)
        return 0
    if args.smoke:
        results = smoke(ROOT / ".perfbench_out" / f"smoke-{os.getpid()}", args.seed)
        for workload, (result, detail) in results.items():
            print(json.dumps({"workload": workload, **result, "failures": detail["failures"]}))
        return 0 if all(r["correct"] for r, _ in results.values()) else 1
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
