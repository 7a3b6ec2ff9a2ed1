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
import json
import sys
from fractions import Fraction

from . import __version__
from .field import SoundnessError, make_field
from .geometry import AffinePointSet, directions_of, format_direction
from .redei import SlopeTable, redei_system
from .linsets import (ProjectiveLinearSpec, direction_code_of_projective,
                      plane_set, project_subgeometry, realize_direction_set)
from .analysis import STATEMENTS, section5_reports, verify_statement
from .search import (CompletionQuery, SearchConfig, complete_set, hunt, sweep,
                     _CSV_COLUMNS)

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_COUNTEREXAMPLE = 2
_EXIT_ALARM = 3


def _field_header(field):
    return {"p": field.p, "h": field.h, "q": field.q,
            "modulus": list(field.modulus)}


def _emit_json(out, verb, config, field, result):
    doc = {"tool": "dirsets", "version": __version__, "verb": verb,
           "config": config, "result": result}
    if field is not None:
        doc["field"] = _field_header(field)
    out.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _emit_text_header(out, verb, config, field):
    out.write(f"# dirsets {__version__} :: {verb}\n")
    if field is not None:
        out.write(f"# field {field} modulus {list(field.modulus)}\n")
    out.write(f"# config {json.dumps(config, sort_keys=True)}\n")


def _emit_csv(out, verb, config, field, columns, rows):
    _emit_text_header(out, verb, config, field)
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(str(row.get(c, "")) for c in columns) + "\n")


def _load_set(path) -> AffinePointSet:
    return AffinePointSet.from_file(path)


# -- verbs ---------------------------------------------------------------------

def _cmd_directions(args, out):
    U = _load_set(args.set)
    dirs = directions_of(U)
    config = {"set": args.set, "format": args.format}
    result = {"directions": list(dirs.tokens()), "count": len(dirs),
              "points": len(U)}
    if args.format == "json":
        _emit_json(out, "directions", config, U.field, result)
    else:
        _emit_text_header(out, "directions", config, U.field)
        out.write(f"D = {{{', '.join(result['directions'])}}}\n")
        out.write(f"|D| = {result['count']}\n")
    return _EXIT_OK


def _cmd_invariants(args, out):
    U = _load_set(args.set)
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
        if len(U) <= F.q:
            alg = slopes.alg
            result["t"] = alg.modulus
            result["degXH"] = slopes.deg_x_tail
            if alg.infinity_determined:
                result["note"] = ("algebraic modulus taken over non-vertical "
                                  "determined slopes")
            for y in sorted(geo.per_direction):
                row = {"direction": format_direction(F, y),
                       "s_y": geo.per_direction[y]}
                data = alg.per_direction.get(y)
                if data is not None:
                    row["t_y"] = data.modulus
                    row["deg_f"] = (len(data.root) - 1
                                    if data.root is not None else "")
                    row["kappa"] = slopes.kappa(y)
                table.append(row)
        else:
            result["t"] = None
            result["note"] = "tail system needs at most q points"
    else:
        result["s"] = None
        result["t"] = None
        result["note"] = "no determined direction: moduli undefined"
    result["per_direction"] = table
    if args.format == "json":
        _emit_json(out, "invariants", config, F, result)
    else:
        _emit_text_header(out, "invariants", config, F)
        out.write(f"|U| = {result['points']}, |D| = {result['direction_count']}\n")
        out.write(f"s = {result.get('s')}, t = {result.get('t')}, "
                  f"degXH = {result.get('degXH', '')}\n")
        for row in table:
            out.write(f"  dir {row['direction']}: s(y)={row['s_y']}"
                      f" t(y)={row.get('t_y', '')} deg_f={row.get('deg_f', '')}"
                      f" kappa={row.get('kappa', '')}\n")
    return _EXIT_OK


def _cmd_redei(args, out):
    U = _load_set(args.set)
    sys_ = redei_system(U)
    config = {"set": args.set, "format": args.format}
    result = {"redei": [list(t) for t in sys_.redei.terms()],
              "quotient": [list(t) for t in sys_.quotient.terms()],
              "tail": [list(t) for t in sys_.tail.terms()],
              "degXH": sys_.deg_x_tail()}
    if args.format == "json":
        _emit_json(out, "redei", config, U.field, result)
    else:
        _emit_text_header(out, "redei", config, U.field)
        out.write(f"R = {sys_.redei.render()}\n")
        out.write(f"Q = {sys_.quotient.render()}\n")
        out.write(f"T = {sys_.tail.render()}   (R*Q = X^q + T)\n")
    return _EXIT_OK


def _cmd_verify(args, out):
    U = _load_set(args.set)
    verdict = verify_statement(args.statement, U)
    config = {"set": args.set, "statement": args.statement, "format": args.format}
    if args.format == "json":
        _emit_json(out, "verify", config, U.field, verdict.as_dict())
    else:
        _emit_text_header(out, "verify", config, U.field)
        if not verdict.applicable:
            out.write(f"{args.statement}: not applicable ({'; '.join(verdict.notes)})\n")
        else:
            case = f" case {verdict.case}" if verdict.case is not None else ""
            out.write(f"{args.statement}:{case} "
                      f"{'holds' if verdict.holds else 'FAILED'}\n")
            for c in verdict.checks:
                mark = "ok" if c.holds else "FAIL"
                out.write(f"  [{mark}] {c.label}: {c.lhs} {c.rel} {c.rhs}\n")
            for note in verdict.notes:
                out.write(f"  note: {note}\n")
    if verdict.applicable and not verdict.holds:
        return _EXIT_COUNTEREXAMPLE
    return _EXIT_OK


def _cmd_realize(args, out):
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec_doc = json.load(fh)
    field = make_field(spec_doc["p"], spec_doc["h"])
    matrix = tuple(tuple(row) for row in spec_doc["projection_matrix"])
    pspec = ProjectiveLinearSpec(field, spec_doc["s"], matrix)
    if pspec.d != spec_doc.get("d", pspec.d) or pspec.n != spec_doc.get("n", pspec.n):
        raise ValueError("spec dimensions disagree with the projection matrix")
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
    if args.format == "json":
        _emit_json(out, "realize", config, field, result)
    else:
        _emit_text_header(out, "realize", config, field)
        out.write(f"{field.p} {field.h}\n")
        for p in sorted(pts):
            out.write(" ".join(str(c) for c in p) + "\n")
    if args.out_set:
        if pspec.n != 1:
            raise ValueError("--out-set needs a plane target (n = 1)")
        plane_set(field, pts).to_file(args.out_set)
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


def _report_exit(report) -> int:
    return _EXIT_COUNTEREXAMPLE if report.failed else _EXIT_OK


def _cmd_search(args, out):
    cfg = _search_config(args)
    report = sweep(cfg, replay_dir=args.replay_dir,
                   collect_rows=args.format == "csv")
    config = cfg.as_dict()
    config["format"] = args.format
    if args.format == "csv":
        _emit_csv(out, "search", config, cfg.field(), _CSV_COLUMNS, report.rows)
    elif args.format == "json":
        _emit_json(out, "search", config, cfg.field(),
                   report.as_dict(include_timing=args.timing))
    else:
        _emit_text_header(out, "search", config, cfg.field())
        out.write(f"sets examined: {report.sets_examined}\n")
        for stmt, counts in sorted(report.tallies.items()):
            out.write(f"  {stmt}: pass={counts['pass']} fail={counts['fail']} "
                      f"inapplicable={counts['inapplicable']}\n")
        out.write(f"counterexamples: {len(report.counterexamples)}\n")
        if args.timing:
            out.write(f"wall_ms: {report.wall_ms:.1f}\n")
    return _report_exit(report)


def _cmd_hunt(args, out):
    cfg = _search_config(args)
    report = hunt(cfg, args.conjecture, replay_dir=args.replay_dir)
    config = cfg.as_dict()
    config.update({"format": args.format, "conjecture": args.conjecture})
    if args.format == "json":
        _emit_json(out, "hunt", config, cfg.field(),
                   report.as_dict(include_timing=args.timing))
    else:
        _emit_text_header(out, "hunt", config, cfg.field())
        counts = report.tallies[args.conjecture]
        out.write(f"sets examined: {report.sets_examined}\n")
        out.write(f"{args.conjecture}: pass={counts['pass']} fail={counts['fail']} "
                  f"inapplicable={counts['inapplicable']}\n")
        out.write(f"counterexamples: {len(report.counterexamples)}\n")
    return _report_exit(report)


def _cmd_complete(args, out):
    U = _load_set(args.set)
    alpha = Fraction(args.alpha)
    query = CompletionQuery(U, alpha=alpha, cap=args.cap,
                            enforce=not args.attempt)
    result = complete_set(query)
    config = {"set": args.set, "alpha": str(alpha), "cap": args.cap,
              "attempt": args.attempt, "format": args.format}
    doc = {"extensions": [[list(p) for p in ext] for ext in result.extensions],
           "hypotheses_hold": result.hypotheses_hold,
           "alarm": result.alarm}
    if args.format == "json":
        _emit_json(out, "complete", config, U.field, doc)
    else:
        _emit_text_header(out, "complete", config, U.field)
        out.write(f"hypotheses hold: {result.hypotheses_hold}\n")
        out.write(f"extensions found: {len(result.extensions)}\n")
        for ext in result.extensions:
            out.write("  " + " ".join(f"({a},{b})" for a, b in ext) + "\n")
        if result.alarm:
            out.write("ALARM: hypotheses hold but no completion exists\n")
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
    doc = {"reports": _plain(report), "all_expected_properties": ok}
    if args.format == "json":
        _emit_json(out, "examples", config, None, doc)
    else:
        _emit_text_header(out, "examples", config, None)
        out.write(json.dumps(_plain(report), sort_keys=True, indent=1) + "\n")
        out.write(f"all expected properties: {ok}\n")
    return _EXIT_OK if ok else _EXIT_COUNTEREXAMPLE


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


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
    s.add_argument("--conjecture", required=True, choices=("conj-moduli-match", "conj-maximal-linear"))
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
