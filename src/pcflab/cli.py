"""Command-line front door: ingestion, pipelines, structured reports.

Input maps come from JSON map files or from the built-in catalog (the
``catalog:NAME`` syntax).  Every subcommand emits a JSON report with a
fixed top-level key order; sections that a subcommand does not compute
stay null so downstream tooling can rely on the shape.  Exit codes:

    0  analysis completed (findings, if any, are data in the report)
    2  parse error (a map of P^k for k other than 1 or 2 among them), bad
       flag value, or unknown catalog name
    3  degenerate map (the report's map section carries the witness)
    4  resource-bound abort (degree cap, elimination budget, closure
       bound); a partial report is still written
    5  fatou scan with no candidates derived and none supplied
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath.libmp import mpf_pos, round_nearest, to_str

from . import catalog, fatou, numeric, pcf, periodic, poly, projmap

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_RESOURCE = 4
EXIT_NO_CANDIDATES = 5

# Each part of a complex value in a report is rounded to this many bits,
# then printed to 17 digits: a double's digits, whatever the working
# precision.  Residuals are printed from their full precision.
REPORT_PRECISION = 53

REPORT_KEYS = (
    "map", "pcf", "tower", "transversality", "containment",
    "degree_checks", "periodic", "theorem_b", "fatou", "bounds",
)


class MapFileError(ValueError):
    """A map file that does not match the schema, with a precise location."""


# -- map file ingestion -------------------------------------------------------


def _int_string(s, what: str, where: str) -> int:
    if not isinstance(s, str):
        raise MapFileError(f"{where}: {what} must be a decimal string, got {type(s).__name__}")
    body = s[1:] if s[:1] == "-" else s
    if not body.isdigit():
        raise MapFileError(f"{where}: {what} {s!r} is not a decimal integer")
    try:
        return int(s)
    except ValueError as exc:  # more digits than int() converts
        raise MapFileError(f"{where}: {what} is too long to read ({exc})") from exc


def _is_int(v) -> bool:
    """A JSON integer; JSON booleans load as Python bools, which are ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_keys(obj: dict, keys: tuple, where: str) -> None:
    """Every key of the schema is present in ``obj``, and no other."""
    for key in obj:
        if key not in keys:
            raise MapFileError(f"{where}: unknown key {key!r}")
    for key in keys:
        if key not in obj:
            raise MapFileError(f"{where}: missing key {key!r}")


def parse_mapfile(obj) -> projmap.ProjectiveMap:
    """Build the exact map described by a MapFile dict, or raise MapFileError."""
    if not isinstance(obj, dict):
        raise MapFileError("top level must be a JSON object")
    _check_keys(obj, ("k", "degree", "components"), "top level")
    k, degree, components = obj["k"], obj["degree"], obj["components"]
    if not _is_int(k) or k not in (1, 2):
        raise MapFileError(f"k must be 1 or 2, got {k!r}")
    if not _is_int(degree) or degree < 1:
        raise MapFileError(f"degree must be a positive integer, got {degree!r}")
    if not isinstance(components, list) or len(components) != k + 1:
        raise MapFileError(
            f"components must be a list of k+1 = {k + 1} term sequences, "
            f"got {len(components) if isinstance(components, list) else type(components).__name__}"
        )
    forms = []
    for i, terms in enumerate(components):
        if not isinstance(terms, list):
            raise MapFileError(f"component {i}: expected a list of terms")
        acc = {}
        for j, term in enumerate(terms):
            where = f"component {i} term {j}"
            if not isinstance(term, dict):
                raise MapFileError(f"{where}: expected an object")
            _check_keys(term, ("num", "den", "exps"), where)
            num = _int_string(term["num"], "num", where)
            den = _int_string(term["den"], "den", where)
            if den <= 0:
                raise MapFileError(f"{where}: den must be positive, got {den}")
            exps = term["exps"]
            if (not isinstance(exps, list)
                    or len(exps) != k + 1
                    or any(not _is_int(e) or e < 0 for e in exps)):
                raise MapFileError(
                    f"{where}: exps must be {k + 1} non-negative integers, got {exps!r}"
                )
            if sum(exps) != degree:
                raise MapFileError(
                    f"{where}: exponents sum to {sum(exps)}, expected degree {degree}"
                )
            key = tuple(exps)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(num, den)
        forms.append(poly.HomPoly(k + 1, degree, acc))
    try:
        return projmap.ProjectiveMap(forms)
    except (projmap.MapError, poly.PolynomialError) as exc:
        raise MapFileError(str(exc)) from exc


def load_input(arg: str):
    """Resolve a path or ``catalog:NAME`` to (map, mapfile dict, source label)."""
    if arg.startswith("catalog:"):
        name = arg[len("catalog:"):]
        try:
            entry = catalog.get(name)
        except KeyError:
            raise MapFileError(
                f"unknown catalog entry {name!r}; available: "
                + ", ".join(catalog.names())
            ) from None
        return entry.map, catalog.to_mapfile(entry.map), arg
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise MapFileError(f"cannot read {arg}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MapFileError(f"{arg}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    m = parse_mapfile(obj)
    return m, obj, arg


# -- serialization helpers ----------------------------------------------------


def _nstr(v) -> str:
    return mpmath.nstr(mpmath.mpf(v) if not isinstance(v, (mpmath.mpf, mpmath.mpc)) else v, 17)


def _parts_json(parts) -> list:
    """A pair of libmp parts as [re, im] decimal strings, each part rounded
    to REPORT_PRECISION bits and printed to 17 digits."""
    return [to_str(mpf_pos(x, REPORT_PRECISION, round_nearest), 17) for x in parts]


def _cnum(v):
    """A complex value as a [re, im] pair of decimal strings (:func:`_parts_json`)."""
    parts = getattr(v, "_mpc_", None)
    if parts is None:
        with mpmath.workprec(REPORT_PRECISION):
            parts = mpmath.mpc(v)._mpc_
    return _parts_json(parts)


def _point_json(coords):
    if isinstance(coords, numeric.Point):
        return [_parts_json(pair) for pair in coords.parts]
    exact = all(isinstance(c, (int, Fraction)) for c in coords)
    return [str(Fraction(c)) if exact else _cnum(c) for c in coords]


def _map_json(source: str, mapfile: dict, vr: projmap.ValidationResult):
    return {"source": source, "k": mapfile["k"], "degree": mapfile["degree"],
            "mapfile": mapfile,
            "validation": {"verdict": vr.verdict, "witness": vr.witness,
                           "reduced": vr.reduced},
            "note": None, "components": [poly.format_poly(c) for c in vr.map.comps]}


def _pcf_json(graph: pcf.PostCriticalGraph, verdict: pcf.PcfVerdict):
    comps = []
    for node in graph.nodes:
        succ = graph.successor.get(node)
        comps.append({
            "form": poly.format_poly(node.form),
            "degree": node.form.degree,
            "linear": node.linear,
            "irreducible_status": node.irreducible_status,
            "origin": graph.origin(node),
            "period": graph.period.get(node),
            "preperiod": graph.preperiod.get(node),
            "image": poly.format_poly(succ.form) if succ is not None else None,
        })
    return {
        "status": verdict.status,
        "reason": verdict.reason,
        "component_count": len(graph.nodes),
        "components": comps,
        "max_iter": verdict.max_iter,
        "max_degree": verdict.max_degree,
    }


def _tower_json(levels):
    out = []
    for level in levels:
        entries = []
        for e in level.entries:
            entries.append({
                "label": e.label,
                "verdict": e.verdict,
                "period": e.period,
                "map": ([poly.format_poly(c) for c in e.restricted_map.comps]
                        if e.restricted_map is not None else None),
            })
        out.append({"codimension": level.m, "iterate_exponent": level.k_m,
                    "entries": entries})
    return out


def _transversality_json(rep: pcf.TransversalityReport):
    return {
        "verdict": rep.verdict,
        "witness": rep.witness,
        "intersections": [
            {"point": ev.point, "members": list(ev.members),
             "rank_at_point": ev.rank_at_point, "generic_rank": ev.generic_rank,
             "exact": ev.exact}
            for ev in rep.evidence
        ],
    }


def _containment_json(rep: pcf.ContainmentReport):
    return {
        "ok": rep.ok,
        "entries": [
            {"label": label, "verdict": verdict,
             "points": [{"point": p.point, "matched": p.matched, "ok": p.ok, "step": p.step}
                        for p in points]}
            for label, verdict, points in rep.entries
        ],
    }


def _degree_json(checks):
    return [{"label": c.label, "expected": c.expected, "actual": c.actual,
             "ok": c.ok} for c in checks]


def _periodic_json(max_period: int, rows, audit: periodic.AuditReport):
    points = []
    for v in audit.verdicts:
        # classify keeps each spectrum value, so a class prints as its entry
        spectrum = [_cnum(lam) for lam in v.spectrum]
        points.append({
            "point": _point_json(v.point.point),
            "period": v.point.period,
            "residual": _nstr(v.point.residual),
            "multiplicity": v.point.multiplicity,
            "spectrum": spectrum,
            "classes": [{"kind": c.kind, "value": text, "root_order": c.root_order}
                        for c, text in zip(v.classes, spectrum)],
            "violations": list(v.violations),
            "findings": list(v.findings),
        })
    return {
        "max_period": max_period,
        "bezout": [{"period": b.period, "expected": b.expected,
                    "distinct": b.distinct, "weighted": b.weighted,
                    "ok": b.ok} for b in rows],
        "points": points,
    }


def _theorem_b_json(audit: periodic.AuditReport, chart_findings):
    return {
        "ok": audit.ok,
        "violations": list(audit.violations),
        "findings": chart_findings + list(audit.findings),
    }


def _fatou_json(candidates, config: Optional[fatou.ScanConfig],
                summary: Optional[fatou.BasinSummary], files: dict):
    out = {"candidates": [_point_json(c) for c in candidates],
           "config": None, "summary": None, "files": files}
    if config is not None:
        out["config"] = {
            "chart": config.chart,
            "center": [_cnum(c) for c in config.center],
            "radius": config.radius,
            "resolution": config.resolution,
            "max_iters": config.max_iters,
            "tol": config.tol,
            "derivative_check": True,  # every scan tracks the chain
        }
    if summary is not None:
        out["summary"] = {
            "fractions": list(summary.fractions),
            "nonconverged_fraction": summary.nonconverged_fraction,
            "decay_fraction": summary.decay_fraction,
            "consistency": summary.consistency,
            "finding_pixels": summary.finding_pixels,
            "failures": summary.failures,
        }
    return out


def _bounds_json(precision: int, args) -> dict:
    tol = numeric.tolerances(precision).serialize()
    return {
        "precision_bits": precision,
        "closure": {
            "max_iter": getattr(args, "max_iter", pcf.DEFAULT_MAX_ITER),
            "max_degree": getattr(args, "max_degree", pcf.DEFAULT_MAX_DEGREE),
            "max_coeff_bits": pcf.MAX_COEFF_BITS,
            "degree_cap": projmap.DEFAULT_DEGREE_CAP,
        },
        "periodic": {
            "elimination_budget": periodic.ELIMINATION_BUDGET,
            "dedup_tol": tol["dedup"],
            "verify_tol": tol["verify"],
            "refine_target": tol["refine_target"],
            "zero_floor": tol["zero_floor"],
        },
        "classify": {
            "eps_zero": periodic.EPS_ZERO,
            "eps_neutral": periodic.EPS_NEUTRAL,
            "eps_root": periodic.EPS_ROOT,
            "root_order_max": periodic.Q_MAX,
        },
        "scan": {
            "tol": getattr(args, "tol", fatou.DEFAULT_TOL),
            "consecutive_hits": fatou.CONSECUTIVE_HITS,
            "derivative_decay_threshold": fatou.DERIVATIVE_DECAY_THRESHOLD,
        },
    }


def _skeleton() -> dict:
    return {key: None for key in REPORT_KEYS}


def _emit(report: dict, path: Optional[str]) -> None:
    text = json.dumps(report, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {path}", file=sys.stderr)
    else:
        print(text)


# -- subcommands ---------------------------------------------------------------


def _abort(report, args, exc) -> int:
    """Note a resource-bound abort in the report, emit it, and exit 4."""
    report["map"]["note"] = f"aborted: {exc}"
    print(f"error: {exc}", file=sys.stderr)
    _emit(report, args.report)
    return EXIT_RESOURCE


def _load_and_validate(args, report):
    """Shared ingestion: (work map, precision, None) or (None, None, exit code).

    A failure after the input parsed emits the report here.
    """
    try:
        m, mapfile, source = load_input(args.input)
        precision = numeric.resolve_precision(args.precision)
    except (MapFileError, numeric.NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, None, EXIT_PARSE
    report["bounds"] = _bounds_json(precision, args)
    vr = projmap.validate(m, precision)
    report["map"] = _map_json(source, mapfile, vr)
    if not vr.ok:
        print(f"degenerate map: {vr.witness}", file=sys.stderr)
        _emit(report, args.report)
        return None, None, EXIT_DEGENERATE
    return vr.map, precision, None


def cmd_analyze(args) -> int:
    report = _skeleton()
    work, precision, code = _load_and_validate(args, report)
    if work is None:
        return code
    try:
        graph, verdict = pcf.postcritical_graph(
            work, args.max_iter, args.max_degree)
        crit = tuple(n for n in graph.nodes if n in graph.critical)
        report["pcf"] = _pcf_json(graph, verdict)
        if not verdict.ok:
            print(f"post-critical closure did not certify: {verdict.status}"
                  f" ({verdict.reason})", file=sys.stderr)
            _emit(report, args.report)
            return EXIT_RESOURCE
        levels = pcf.build_tower(work, graph, args.max_iter, args.max_degree)
        report["tower"] = _tower_json(levels)
        if work.k == 2 and crit:
            report["transversality"] = _transversality_json(
                pcf.weak_transversality(crit, precision))
        if levels:
            report["containment"] = _containment_json(
                pcf.restricted_critical_containment(work, levels[0], crit))
            report["degree_checks"] = _degree_json(
                pcf.topdeg_check(levels[0], work.d))
    except (projmap.DegreeCapError, pcf.PcfError, numeric.NumericalError) as exc:
        return _abort(report, args, exc)
    _emit(report, args.report)
    return EXIT_OK


def cmd_periodic(args) -> int:
    if args.period < 1:
        print("error: --period must be >= 1", file=sys.stderr)
        return EXIT_PARSE
    report = _skeleton()
    work, precision, code = _load_and_validate(args, report)
    if work is None:
        return code
    failed = [[] for _ in range(args.period)]  # (chart, error) per solved period
    try:
        found = periodic.find_periods(work, args.period, precision, failed)
        audit = periodic.eigenvalue_audit(work, args.period, precision, found)
        rows = [periodic.bezout_audit(work, q, pts, precision)
                for q, pts in enumerate(found, 1)]
    except (periodic.BudgetError, periodic.PeriodicError, numeric.NumericalError) as exc:
        return _abort(report, args, exc)
    chart_findings = [f"period {q}: the solve in chart {chart} (x{chart} = 1)"
                      f" failed and was skipped: {error}"
                      for q, errors in enumerate(failed, 1) for chart, error in errors]
    report["periodic"] = _periodic_json(args.period, rows, audit)
    report["theorem_b"] = _theorem_b_json(audit, chart_findings)
    for line in audit.violations:
        print(f"VIOLATION: {line}", file=sys.stderr)
    for line in report["theorem_b"]["findings"]:
        print(f"FINDING: {line}", file=sys.stderr)
    _emit(report, args.report)
    return EXIT_OK


def _parse_candidates(text: str, k: int):
    points = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        coords = part.split(":")
        if len(coords) != k + 1:
            raise MapFileError(
                f"candidate {part!r}: expected {k + 1} colon-separated coordinates")
        try:
            vec = tuple(Fraction(c.strip()) for c in coords)
        except (ValueError, ZeroDivisionError) as exc:
            raise MapFileError(f"candidate {part!r}: {exc}") from exc
        if all(c == 0 for c in vec):
            raise MapFileError(f"candidate {part!r}: all coordinates are zero")
        points.append(vec)
    if not points:
        raise MapFileError("no candidate points supplied")
    return points


def _parse_center(text: str, k: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != k:
        raise MapFileError(f"--center needs {k} comma-separated values, got {len(parts)}")
    try:
        return tuple(complex(p) for p in parts)
    except ValueError as exc:
        raise MapFileError(f"--center: {exc}") from exc


def _write_csv(path: str, grid: fatou.BasinGrid) -> None:
    lines = ["row,col,label,iters\n"]
    for row, (labels, iters) in enumerate(zip(grid.labels, grid.iters)):
        lines += [f"{row},{col},{label},{it}\n"
                  for col, (label, it) in enumerate(zip(labels, iters))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def _write_pgm(path: str, grid: fatou.BasinGrid) -> None:
    n = grid.config.resolution
    ncand = max(1, len(grid.config.candidates))
    gray = [round(255 * (c + 1) / ncand) for c in range(ncand)] + [0]  # [-1]: unlabeled
    data = bytes(gray[label] for labels in grid.labels for label in labels)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n255\n".encode("ascii") + data)


def cmd_fatou(args) -> int:
    report = _skeleton()
    work, precision, code = _load_and_validate(args, report)
    if work is None:
        return code
    try:  # settings are checked before any candidate is derived
        center_text = args.center if args.center is not None else ",".join("0" * work.k)
        center = _parse_center(center_text, work.k)
        chart = args.chart if args.chart is not None else work.k
        config = fatou.ScanConfig(chart, center, args.radius, args.grid,
                                  args.iters, args.tol)
        fatou.check_chart(config, work.k)
    except (MapFileError, fatou.FatouError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.candidates:
            cands = _parse_candidates(args.candidates, work.k)
        else:
            graph, verdict = pcf.postcritical_graph(
                work, args.max_iter, args.max_degree)
            report["pcf"] = _pcf_json(graph, verdict)
            if not verdict.ok:
                print(f"error: cannot derive candidates, closure ended "
                      f"{verdict.status}; pass --candidates", file=sys.stderr)
                _emit(report, args.report)
                return EXIT_RESOURCE
            levels = pcf.build_tower(work, graph, args.max_iter, args.max_degree)
            cands = fatou.superattracting_candidates(work, graph, levels,
                                                     precision)
            if not cands:
                report["fatou"] = _fatou_json((), None, None,
                                              {"csv": None, "pgm": None})
                print("error: no super-attracting candidates were derived; "
                      "supply --candidates \"a:b:c;...\" to scan anyway",
                      file=sys.stderr)
                _emit(report, args.report)
                return EXIT_NO_CANDIDATES
    except MapFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (projmap.DegreeCapError, pcf.PcfError, periodic.BudgetError,
            numeric.NumericalError, fatou.FatouError) as exc:
        return _abort(report, args, exc)
    try:
        config = dataclasses.replace(config, candidates=tuple(cands))
        grid = fatou.scan(work, config)
    except fatou.FatouError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    summary = fatou.basin_summary(grid)
    files = {"csv": None, "pgm": None}
    if args.out:
        files["csv"] = args.out + ".csv"
        files["pgm"] = args.out + ".pgm"
        _write_csv(files["csv"], grid)
        _write_pgm(files["pgm"], grid)
    report["fatou"] = _fatou_json(cands, config, summary, files)
    if summary.consistency != "CONSISTENT":
        print(f"FINDING: {summary.finding_pixels} settled pixels with decayed "
              f"derivatives matched no candidate", file=sys.stderr)
    _emit(report, args.report)
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        for entry in catalog.entries():
            print(f"{entry.name}  P^{entry.k} degree {entry.degree}  "
                  f"{entry.description}  [{entry.provenance}]")
        return EXIT_OK
    if not args.name:
        print("error: catalog show needs a NAME", file=sys.stderr)
        return EXIT_PARSE
    try:
        entry = catalog.get(args.name)
    except KeyError:
        print(f"error: unknown catalog entry {args.name!r}; available: "
              + ", ".join(catalog.names()), file=sys.stderr)
        return EXIT_PARSE
    print(json.dumps(catalog.to_mapfile(entry.map), indent=2))
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def _add_common(sub) -> None:
    sub.add_argument("input", help="map file path or catalog:NAME")
    sub.add_argument("--precision", type=int, default=None,
                     help="working precision in bits (default 256)")
    sub.add_argument("--report", default=None, metavar="PATH",
                     help="write the JSON report to PATH instead of stdout")


def _add_closure_flags(sub) -> None:
    sub.add_argument("--max-iter", type=int, default=pcf.DEFAULT_MAX_ITER,
                     help="post-critical closure image budget")
    sub.add_argument("--max-degree", type=int, default=pcf.DEFAULT_MAX_DEGREE,
                     help="post-critical closure total degree budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcflab",
        description="Post-critical finiteness analysis for endomorphisms "
                    "of P^1 and P^2 given by exact rational forms.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="full pipeline: validation, "
                        "post-critical closure, tower, structural audits")
    _add_common(p)
    _add_closure_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("periodic", help="periodic points, multipliers, "
                        "eigenvalue audit, count audit")
    _add_common(p)
    p.add_argument("--period", type=int, required=True,
                   help="audit all periods up to this bound")
    p.set_defaults(func=cmd_periodic)

    p = subs.add_parser("fatou", help="basin scan against super-attracting "
                        "candidate cycles")
    _add_common(p)
    _add_closure_flags(p)
    p.add_argument("--chart", type=int, default=None,
                   help="affine chart index (default: last coordinate)")
    p.add_argument("--center", default=None,
                   help="window center, k comma-separated complex values "
                        "(default: origin)")
    p.add_argument("--radius", type=float, default=1.0,
                   help="window half-width")
    p.add_argument("--grid", type=int, default=64,
                   help="resolution per side")
    p.add_argument("--iters", type=int, default=fatou.DEFAULT_MAX_ITERS,
                   help="orbit iteration budget")
    p.add_argument("--tol", type=float, default=fatou.DEFAULT_TOL,
                   help="settling tolerance")
    p.add_argument("--candidates", default=None,
                   help="explicit cycle points, e.g. \"1:0:0;0:0:1\"")
    p.add_argument("--out", default=None, metavar="PREFIX",
                   help="write PREFIX.csv and PREFIX.pgm grid files")
    p.set_defaults(func=cmd_fatou)

    p = subs.add_parser("catalog", help="list built-in maps or dump one")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
