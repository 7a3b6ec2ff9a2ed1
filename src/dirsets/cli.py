"""Command-line entry point.

Verbs: directions, invariants, redei, verify, realize, search, hunt,
complete, examples.  Exit codes: 0 success / all checks passed, 1 usage
or I/O error, 2 at least one applicable verdict failed (counterexample
found), 3 internal soundness alarm.

Every run echoes its resolved configuration, the tool version and the
field modulus into the output header.  Identical invocations produce
byte-identical output; wall-clock timing is only included on request
(--timing), since it would break that guarantee.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from . import __version__
from .field import SoundnessError, make_field
from .geometry import AffinePointSet, directions_of, format_direction
from .redei import SlopeTable, redei_system
from .linsets import (ProjectiveLinearSpec, direction_code_of_projective,
                      plane_set, project_subgeometry, realize_direction_set)
from .analysis import (CONJECTURES, STATEMENTS, section5_reports,
                       verify_statement)
from .search import (CompletionQuery, SearchConfig, complete_set, hunt, sweep,
                     _CSV_COLUMNS)

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_COUNTEREXAMPLE = 2
_EXIT_ALARM = 3


def _emit(out, verb, config, field, result, lines):
    """Write a verb's output in config["format"]: the JSON document around
    result, or (text and csv) the comment header followed by lines."""
    if config["format"] == "json":
        doc = {"tool": "dirsets", "version": __version__, "verb": verb,
               "config": config, "result": result}
        if field is not None:
            doc["field"] = {"p": field.p, "h": field.h, "q": field.q,
                            "modulus": list(field.modulus)}
        out.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        return
    out.write(f"# dirsets {__version__} :: {verb}\n")
    if field is not None:
        out.write(f"# field {field} modulus {list(field.modulus)}\n")
    out.write(f"# config {json.dumps(config, sort_keys=True)}\n")
    for line in lines:
        out.write(line + "\n")


# -- verbs ---------------------------------------------------------------------

def _cmd_directions(args, out):
    U = AffinePointSet.from_file(args.set)
    dirs = directions_of(U)
    config = {"set": args.set, "format": args.format}
    result = {"directions": list(dirs.tokens()), "count": len(dirs),
              "points": len(U)}
    _emit(out, "directions", config, U.field, result,
          [f"D = {{{', '.join(result['directions'])}}}",
           f"|D| = {result['count']}"])
    return _EXIT_OK


def _cmd_invariants(args, out):
    U = AffinePointSet.from_file(args.set)
    F = U.field
    slopes = SlopeTable.of(U)
    dirs = slopes.dirs
    config = {"set": args.set, "format": args.format}
    result = {"points": len(U), "direction_count": len(dirs),
              "directions": list(dirs.tokens())}
    table = []
    if dirs.determined:
        geo = slopes.geo
        result["s"] = geo.modulus
        tails = {}
        if len(U) <= F.q:
            alg = slopes.alg
            result["t"] = alg.modulus
            result["degXH"] = slopes.deg_x_tail
            tails = alg.per_direction
        else:
            result["t"] = None
            result["note"] = "tail system needs at most q points"
        for y in sorted(geo.per_direction):
            row = {"direction": format_direction(F, y),
                   "s_y": geo.per_direction[y]}
            data = tails.get(y)
            if data is not None:
                row["t_y"] = data.modulus
                row["deg_f"] = (len(data.root) - 1
                                if data.root is not None else "")
                row["kappa"] = slopes.kappa(y)
            table.append(row)
    else:
        result["s"] = None
        result["t"] = None
        result["note"] = "no determined direction: moduli undefined"
    result["per_direction"] = table
    lines = [f"|U| = {result['points']}, |D| = {result['direction_count']}",
             f"s = {result.get('s')}, t = {result.get('t')}, "
             f"degXH = {result.get('degXH', '')}"]
    lines += [f"  dir {row['direction']}: s(y)={row['s_y']}"
              f" t(y)={row.get('t_y', '')} deg_f={row.get('deg_f', '')}"
              f" kappa={row.get('kappa', '')}" for row in table]
    if "note" in result:
        lines.append(f"note: {result['note']}")
    _emit(out, "invariants", config, F, result, lines)
    return _EXIT_OK


def _cmd_redei(args, out):
    U = AffinePointSet.from_file(args.set)
    sys_ = redei_system(U)
    config = {"set": args.set, "format": args.format}
    result = {"redei": [list(t) for t in sys_.redei.terms()],
              "quotient": [list(t) for t in sys_.quotient.terms()],
              "tail": [list(t) for t in sys_.tail.terms()],
              "degXH": sys_.deg_x_tail()}
    _emit(out, "redei", config, U.field, result,
          [f"R = {sys_.redei.render()}", f"Q = {sys_.quotient.render()}",
           f"T = {sys_.tail.render()}   (R*Q = X^q + T)"])
    return _EXIT_OK


def _cmd_verify(args, out):
    U = AffinePointSet.from_file(args.set)
    verdict = verify_statement(args.statement, U)
    config = {"set": args.set, "statement": args.statement, "format": args.format}
    if not verdict.applicable:
        lines = [f"{args.statement}: not applicable ({'; '.join(verdict.notes)})"]
    else:
        case = f" case {verdict.case}" if verdict.case is not None else ""
        lines = [f"{args.statement}:{case} "
                 f"{'holds' if verdict.holds else 'FAILED'}"]
        lines += [f"  [{'ok' if c.holds else 'FAIL'}] {c.label}: "
                  f"{c.lhs} {c.rel} {c.rhs}" for c in verdict.checks]
        lines += [f"  note: {note}" for note in verdict.notes]
    _emit(out, "verify", config, U.field, verdict.as_dict(), lines)
    if verdict.applicable and not verdict.holds:
        return _EXIT_COUNTEREXAMPLE
    return _EXIT_OK


def _cmd_realize(args, out):
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec_doc = json.load(fh)
    if not isinstance(spec_doc, dict):
        raise ValueError(f"{args.spec}: a spec is a JSON object")
    for key in ("p", "h", "s", "projection_matrix"):
        if key not in spec_doc:
            raise ValueError(f"{args.spec}: spec field {key!r} is missing")
    rows = spec_doc["projection_matrix"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError(f"{args.spec}: projection_matrix is a list of rows, "
                         f"each a list of codes")
    field = make_field(spec_doc["p"], spec_doc["h"])
    pspec = ProjectiveLinearSpec(field, spec_doc["s"], tuple(map(tuple, rows)))
    if pspec.d != spec_doc.get("d", pspec.d) or pspec.n != spec_doc.get("n", pspec.n):
        raise ValueError("spec dimensions disagree with the projection matrix")
    if args.out_set and pspec.n != 1:
        raise ValueError("--out-set needs a plane target (n = 1)")
    image = project_subgeometry(pspec)
    pts = realize_direction_set(pspec)
    config = {"spec": args.spec, "format": args.format}
    result = {
        "points": [list(p) for p in sorted(pts)],
        "support": [list(p) for p in image.support()],
        "weights": {str(list(p)): w for p, w in sorted(image.weights.items())},
        "total_weight": image.total_weight,
    }
    if pspec.n == 1:
        U = plane_set(field, pts)
        dirs = directions_of(U)
        result["directions"] = list(dirs.tokens())
        support_codes = sorted(direction_code_of_projective(field, p)
                               for p in image.support())
        result["round_trip"] = sorted(dirs.determined) == support_codes
    _emit(out, "realize", config, field, result,
          [f"{field.p} {field.h}"]
          + [" ".join(str(c) for c in p) for p in sorted(pts)])
    if args.out_set:
        U.to_file(args.out_set)
    return _EXIT_OK


def _search_config(args) -> SearchConfig:
    base = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError(f"{args.config}: a search config is a JSON object")
        if not isinstance(base.get("statements", []), list):
            raise ValueError(f"{args.config}: statements must be a JSON list "
                             f"of statement ids")
        unknown = sorted(set(base) - set(SearchConfig.__dataclass_fields__))
        if unknown:
            raise ValueError(f"{args.config}: unknown config fields "
                             f"{', '.join(unknown)}")
    merged = dict(base)
    for key in ("q", "n_min", "n_max", "mode", "seed", "budget", "workers"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if args.symmetry is not None:
        merged["symmetry"] = args.symmetry == "on"
    if getattr(args, "statements", None):
        merged["statements"] = args.statements.split(",")
    merged["statements"] = tuple(merged.get("statements", ()))
    if "q" not in merged:
        raise ValueError("q is required (flag --q or config file)")
    return SearchConfig(**merged)


def _emit_report(out, verb, config, report, timing: bool) -> int:
    """Write a search or hunt report; the exit code says whether it failed."""
    if config["format"] == "csv":
        lines = itertools.chain([",".join(_CSV_COLUMNS)],
                                (",".join(map(str, row)) for row in report.rows))
    else:
        lines = [f"sets examined: {report.sets_examined}"]
        lines += [f"  {stmt}: pass={counts['pass']} fail={counts['fail']} "
                  f"inapplicable={counts['inapplicable']}"
                  for stmt, counts in sorted(report.tallies.items())]
        lines.append(f"counterexamples: {len(report.counterexamples)}")
        if timing:
            lines.append(f"wall_ms: {report.wall_ms:.1f}")
    _emit(out, verb, config, report.config.field(),
          report.as_dict(include_timing=timing), lines)
    return _EXIT_COUNTEREXAMPLE if report.failed else _EXIT_OK


def _cmd_search(args, out):
    cfg = _search_config(args)
    report = sweep(cfg, replay_dir=args.replay_dir,
                   collect_rows=args.format == "csv")
    config = {**cfg.as_dict(), "format": args.format}
    return _emit_report(out, "search", config, report, args.timing)


def _cmd_hunt(args, out):
    cfg = _search_config(args)
    report = hunt(cfg, args.conjecture, replay_dir=args.replay_dir)
    config = {**cfg.as_dict(), "format": args.format,
              "conjecture": args.conjecture}
    return _emit_report(out, "hunt", config, report, args.timing)


def _cmd_complete(args, out):
    U = AffinePointSet.from_file(args.set)
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--alpha {args.alpha!r} is not a fraction") from None
    query = CompletionQuery(U, alpha=alpha, cap=args.cap,
                            enforce=not args.attempt)
    result = complete_set(query)
    config = {"set": args.set, "alpha": str(alpha), "cap": args.cap,
              "attempt": args.attempt, "format": args.format}
    doc = {"extensions": [[list(p) for p in ext] for ext in result.extensions],
           "hypotheses_hold": result.hypotheses_hold,
           "alarm": result.alarm}
    lines = [f"hypotheses hold: {result.hypotheses_hold}",
             f"extensions found: {len(result.extensions)}"]
    lines += ["  " + " ".join(f"({a},{b})" for a, b in ext)
              for ext in result.extensions]
    if result.alarm:
        lines.append("ALARM: hypotheses hold but no completion exists")
    _emit(out, "complete", config, U.field, doc, lines)
    return _EXIT_ALARM if result.alarm else _EXIT_OK


def _cmd_examples(args, out):
    report = section5_reports()
    config = {"format": args.format}
    ok = True
    for rep in report["nonlinear_maximal"].values():
        ok &= rep["maximal_in_big_plane"] and not rep["linear_for_some_subfield"]
    nm = report["nonmaximal_linear"]
    ok &= (nm["same_directions"] and not nm["linear_set_maximal"]
           and nm["linear_set_is_subfield_linear"]
           and nm["minimal_subset_same_directions"])
    doc = {"reports": report, "all_expected_properties": ok}
    _emit(out, "examples", config, None, doc,
          [json.dumps(doc["reports"], sort_keys=True, indent=1),
           f"all expected properties: {ok}"])
    return _EXIT_OK if ok else _EXIT_COUNTEREXAMPLE


# -- parser ----------------------------------------------------------------------

def _add_format(sub, choices=("text", "json")):
    sub.add_argument("--format", choices=choices, default="text")


def _add_search_flags(sub):
    sub.add_argument("--q", type=int)
    sub.add_argument("--n-min", dest="n_min", type=int)
    sub.add_argument("--n-max", dest="n_max", type=int)
    sub.add_argument("--mode", choices=("exhaustive", "random"))
    sub.add_argument("--seed", type=int)
    sub.add_argument("--budget", type=int)
    sub.add_argument("--symmetry", choices=("on", "off"))
    sub.add_argument("--workers", type=int)
    sub.add_argument("--config", help="JSON file with search configuration")
    sub.add_argument("--replay-dir", dest="replay_dir",
                     help="write counterexample replay files here")
    sub.add_argument("--timing", action="store_true",
                     help="include wall-clock time (breaks byte determinism)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirsets",
        description="direction sets of affine point sets: invariants, "
                    "constructions, verification")
    parser.add_argument("--version", action="version",
                        version=f"dirsets {__version__}")
    subs = parser.add_subparsers(dest="verb", required=True)

    s = subs.add_parser("directions", help="directions determined by a point set")
    s.add_argument("--set", required=True)
    _add_format(s)
    s.set_defaults(fn=_cmd_directions)

    s = subs.add_parser("invariants", help="geometric and algebraic moduli")
    s.add_argument("--set", required=True)
    _add_format(s)
    s.set_defaults(fn=_cmd_invariants)

    s = subs.add_parser("redei", help="division system R, Q, tail")
    s.add_argument("--set", required=True)
    _add_format(s)
    s.set_defaults(fn=_cmd_redei)

    s = subs.add_parser("verify", help="check one statement on a point set")
    s.add_argument("--set", required=True)
    s.add_argument("--statement", required=True, choices=sorted(STATEMENTS))
    _add_format(s)
    s.set_defaults(fn=_cmd_verify)

    s = subs.add_parser("realize", help="realize a projected subgeometry as a direction set")
    s.add_argument("--spec", required=True, help="JSON projection spec")
    s.add_argument("--out-set", dest="out_set", help="write realized set here")
    _add_format(s)
    s.set_defaults(fn=_cmd_realize)

    s = subs.add_parser("search", help="sweep statements over a set stream")
    s.add_argument("--statements", help="comma-separated statement ids")
    _add_search_flags(s)
    _add_format(s, choices=("text", "json", "csv"))
    s.set_defaults(fn=_cmd_search)

    s = subs.add_parser("hunt", help="conjecture counterexample hunt over maximal sets")
    s.add_argument("--conjecture", required=True, choices=CONJECTURES)
    _add_search_flags(s)
    _add_format(s)
    s.set_defaults(fn=_cmd_hunt)

    s = subs.add_parser("complete", help="extend a set to q points with the same directions")
    s.add_argument("--set", required=True)
    s.add_argument("--alpha", default="3/4",
                   help="stability parameter in (1/2, 1), as a fraction")
    s.add_argument("--cap", type=int, default=100)
    s.add_argument("--attempt", action="store_true",
                   help="attempt the completion with hypotheses unchecked")
    _add_format(s)
    s.set_defaults(fn=_cmd_complete)

    s = subs.add_parser("examples", help="reproduce the worked examples")
    _add_format(s)
    s.set_defaults(fn=_cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return _EXIT_OK if exc.code == 0 else _EXIT_USAGE
    try:
        return args.fn(args, sys.stdout)
    except SoundnessError as exc:
        print(f"soundness alarm: {exc}", file=sys.stderr)
        return _EXIT_ALARM
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
