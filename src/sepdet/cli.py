"""Command-line front end over JSON space and function descriptors.

Verbs: validate, reduce, check, slope, lip, suite.  Exit codes: 0 when the
requested run succeeds with zero failed checks, 1 when a check fails or a
closure stops short of its fixed point (the report is still written), 2 on
malformed input with a diagnostic naming the offending field.  Reports are
emitted as sorted-key JSON so identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from .errors import IsolatedPoint, SepdetError
from .extreal import fmt, parse
from .functionals import (
    BUILTIN_FUNCTIONS,
    FunctionOracle,
    builtin_function,
    default_radius_grid,
    lip_local_sup,
    lip_modulus,
    problem_from_descriptor,
    slope_at,
)
from .scheme import check_reduction, check_sweep, closure_iterate, sort_points, validate_selection
from .spaces import space_from_descriptor

PROG = "sepdet"


def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SepdetError(f"cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # a decode error, or an int past the digit bound
        raise SepdetError(f"malformed JSON in {path!r}: {exc}") from exc


def _load_space(path: Optional[str]):
    if not path:
        raise SepdetError("--space is required for this verb")
    return space_from_descriptor(_read_json(path))


def _load_function(name_or_path: Optional[str]) -> FunctionOracle:
    if not name_or_path:
        raise SepdetError("--fn is required for this verb")
    if name_or_path in BUILTIN_FUNCTIONS:
        return builtin_function(name_or_path)
    if Path(name_or_path).exists():
        return FunctionOracle.from_descriptor(_read_json(name_or_path))
    raise SepdetError(
        f"--fn: {name_or_path!r} is neither a readable file nor one of "
        f"{sorted(BUILTIN_FUNCTIONS)}")


def _problem_descriptor(name: Optional[str], q_density: Optional[int]) -> dict:
    """Decode --name family[:mode[:t_mode]] into a problem descriptor."""
    parts = (name or "punctured-ball").split(":")
    if len(parts) > 3:
        raise SepdetError(f"--name: expected family[:mode[:t_mode]], got {name!r}")
    desc: dict = {"family": parts[0]}
    if len(parts) > 1:
        desc["mode"] = parts[1]
    if len(parts) > 2:
        desc["t_mode"] = parts[2]
    if q_density is not None:
        desc["q_density"] = q_density
    return desc


def _parse_param(raw: str, shell: bool = False):
    """A t,r,s triple for shell families, else a single radius."""
    try:
        value = tuple(parse(tok) for tok in raw.split(",")) if "," in raw else parse(raw)
    except ValueError as exc:
        raise SepdetError(f"--param: {exc}") from exc
    if shell and (not isinstance(value, tuple) or len(value) != 3):
        raise SepdetError(f"--param must be a t,r,s triple, got {raw!r}")
    if not shell and isinstance(value, tuple):
        raise SepdetError(f"--param must be a single radius, got {raw!r}")
    return value


def _emit(obj: dict, out: Optional[str]) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:  # a missing directory, a directory, no permission
            raise SepdetError(f"cannot write {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _seed_points(space, x_id: Optional[str]) -> list:
    if x_id:
        return [space.point(x_id)]
    return [sort_points(space.points)[0]]


# ---------------------------------------------------------------------------
# Verb handlers


def _cmd_validate(args) -> int:
    space = _load_space(args.space)
    out = {"verb": "validate", "ok": True, "points": len(space),
           "metric": space.metric_name}
    if args.fn:
        f = _load_function(args.fn)
        try:
            f.check_proper(space)
        except ValueError as exc:
            raise SepdetError(str(exc)) from exc
        out["function"] = f.name
    _emit(out, args.out)
    return 0


def _closed(args) -> tuple:
    """The space, problem descriptor, problem, seed and closure of reduce and check."""
    space = _load_space(args.space)
    f = _load_function(args.fn)
    desc = _problem_descriptor(args.name, args.q_density)
    problem = problem_from_descriptor(space, f, desc)
    seed = _seed_points(space, args.x)
    return space, desc, problem, seed, closure_iterate(
        problem, seed, eps=_parse_eps(args.eps), cap=args.cap, max_depth=args.depth)


def _cmd_reduce(args) -> int:
    _, _, problem, seed, gen = _closed(args)
    out = {"verb": "reduce", "problem": problem.name,
           "seed": [p.id for p in seed]} | gen.to_json()
    _emit(out, args.out)
    return 0 if gen.fixed_point else 1


def _cmd_check(args) -> int:
    if args.param is not None and not args.x:
        raise SepdetError("--param needs --x: a single check is at (x, param)")
    space, desc, problem, _, gen = _closed(args)
    Y = gen.union
    tol = None if args.tolerance is None else parse(args.tolerance)
    if args.param is not None:
        z = (space.point(args.x), _parse_param(args.param, desc["family"] == "torus-slope"))
        checks = [check_reduction(problem, Y, z, tol=tol)]
    else:
        checks = check_sweep(problem, Y, tol)
    results = []
    failed = skipped = 0
    for chk in checks:
        if chk.verdict == "fail":
            failed += 1
        elif chk.verdict != "pass":
            skipped += 1
        results.append(chk.to_json())
    out = {
        "verb": "check", "problem": problem.name,
        "fixed_point": gen.fixed_point,
        "Y": [p.id for p in Y],
        "passed": len(results) - failed - skipped,
        "failed": failed, "skipped": skipped,
        "results": results,
    }
    _emit(out, args.out)
    return 0 if failed == 0 and gen.fixed_point else 1


def _at_point(args) -> tuple:
    """The space, function and point --x of slope and lip."""
    space = _load_space(args.space)
    f = _load_function(args.fn)
    if not args.x:
        raise SepdetError(f"--x is required for {args.verb}")
    return space, f, space.point(args.x)


def _cmd_slope(args) -> int:
    space, f, x = _at_point(args)
    value = slope_at(f, space, x)
    _emit({"verb": "slope", "x": x.id, "value": fmt(value)}, args.out)
    return 0


def _cmd_lip(args) -> int:
    space, f, x = _at_point(args)
    if args.param:
        r = _parse_param(args.param)
        got = lip_local_sup(f, space, x, r)
        out = {"verb": "lip", "x": x.id, "radius": fmt(r),
               "value": fmt(got.value), "pairs": got.pairs}
    else:
        radii = default_radius_grid(space, x)
        if not radii:
            raise IsolatedPoint(f"no radii realized at {x.id!r}")
        value = lip_modulus(f, space, x, radii)
        out = {"verb": "lip", "x": x.id, "value": fmt(value),
               "radii": [fmt(r) for r in radii]}
    _emit(out, args.out)
    return 0


def _cmd_suite(args) -> int:
    from .harness import SuiteConfig, run_suite

    config = SuiteConfig(
        instances=args.instances,
        sizes=None if args.n is None else (args.n,),
        seed=args.seed if args.seed is not None else 0,
        eps=_parse_eps(args.eps),
        cap=args.cap,
        max_depth=args.depth,
        tolerance=None if args.tolerance is None else parse(args.tolerance),
        q_density=args.q_density,
    )
    report = run_suite(args.name, config)
    print(report.summary())
    _emit(report.to_json(), args.out)
    return 0 if report.ok else 1


def _parse_eps(raw: str):
    try:
        v = parse(raw)
        validate_selection(v, 1)
    except ValueError as exc:
        raise SepdetError(f"--eps: {exc}") from exc
    return v


# ---------------------------------------------------------------------------
# Argument grammar


@functools.cache  # built on first use and kept: parsing leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Witness closures and restriction checks on finite metric spaces.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser, *, space=False, fn=False) -> None:
        if space:
            p.add_argument("--space", help="path to a space descriptor JSON")
        if fn:
            p.add_argument("--fn", help="path to a function descriptor JSON, "
                           f"or one of {sorted(BUILTIN_FUNCTIONS)}")
        p.add_argument("--x", help="point id: closure seed / query center")
        p.add_argument("--param", help="parameter: radius or t,r,s triple")
        p.add_argument("--eps", default="0", help="witness slack (rational string)")
        p.add_argument("--cap", type=int, default=1, help="witnesses kept per (x, param)")
        p.add_argument("--depth", type=int, default=None, help="closure round limit")
        p.add_argument("--q-density", dest="q_density", type=int, default=None,
                       help="subsample truncations to about this many radii")
        p.add_argument("--seed", type=int, default=None, help="suite RNG seed")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--name", help="problem family[:mode[:t_mode]] or suite name")
        p.add_argument("--n", type=int, default=None, help="suite space size override")
        p.add_argument("--instances", type=int, default=None,
                       help="suite instance count override")
        p.add_argument("--tolerance", default=None,
                       help="comparison tolerance (default: exact for rationals)")

    p_validate = sub.add_parser("validate", help="check a space (and function) descriptor")
    common(p_validate, space=True, fn=True)
    p_validate.set_defaults(handler=_cmd_validate)

    p_reduce = sub.add_parser("reduce", help="close a seed under optimal witnesses")
    common(p_reduce, space=True, fn=True)
    p_reduce.set_defaults(handler=_cmd_reduce)

    p_check = sub.add_parser("check", help="full vs restricted optimum over a closure")
    common(p_check, space=True, fn=True)
    p_check.set_defaults(handler=_cmd_check)

    p_slope = sub.add_parser("slope", help="descent slope at a point")
    common(p_slope, space=True, fn=True)
    p_slope.set_defaults(handler=_cmd_slope)

    p_lip = sub.add_parser("lip", help="local Lipschitz sup / modulus at a point")
    common(p_lip, space=True, fn=True)
    p_lip.set_defaults(handler=_cmd_lip)

    p_suite = sub.add_parser("suite", help="run a named verification suite")
    common(p_suite)
    p_suite.set_defaults(handler=_cmd_suite)

    return parser


def run_cli(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        if args.verb == "suite" and not args.name:
            raise SepdetError("--name is required for suite")
        out = args.out and Path(args.out)  # checked before any work; _emit maps what a write shows
        if out and (out.is_dir() or not out.parent.is_dir()):
            what = "is a directory" if out.is_dir() else "no such directory"
            raise SepdetError(f"cannot write {args.out!r}: {what}")
        return args.handler(args)
    except (SepdetError, ValueError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
