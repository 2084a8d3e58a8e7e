"""Command-line entry point: config ingestion, subcommand dispatch, and
machine-readable JSON reports.

Reports are canonical JSON (sorted keys, fixed separators) so repeated runs
with the same config and seed are byte-identical; wall time goes to stderr
and enters the payload only under --timing.

Exit codes: 0 success, 1 domain error, 2 config error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .bounds import PresentationConstants, bcp_epsilon, theorem_bound
from .cayley import (
    CyclicSubgroup,
    FactorSubgroup,
    ball,
    cayley_graph,
    coned_off,
    estimate_delta_4point,
    exhaustive_fits,
)
from .config import DEFAULT_BALL_CAP, DEFAULT_BASIS_CAP
from .conjugacy import (
    CONJUGACY,
    brute_force_conjugator,
    choose_solver,
    conjugacy_entry,
    profile_conjugacy_bound,
)
from .errors import ConfigError, DomainError, GgtError, ResourceCapError
from .groups import FreeProduct, model_from_dict
from .homology import (
    centralizer_slices,
    chain_identities,
    homology_dims,
    require_finite,
)
# Not used here: perfbench's tracer test wraps and restores this alias.
from .homology import hochschild_boundary  # noqa: F401
from .rdalgebra import SupportedVector, check_product_estimate, parse_bounding_function

SCHEMA_VERSION = 1
SOLVERS = ["auto", "brute", *(e.solver for e in CONJUGACY.values() if e.solver)]


def _load_group(spec: str):
    text = spec.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"inline group spec is not valid JSON: {exc}") from exc
        return model_from_dict(data)
    if text.endswith(".json"):
        try:
            with open(text) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read group file {text!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"group file {text!r} is not valid JSON: {exc}") from exc
        return model_from_dict(data)
    return model_from_dict(text)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _report(subcommand: str, inputs: dict, results: dict, constants=None, warnings=()) -> dict:
    report = {
        "schema": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "subcommand": subcommand,
        "inputs": _jsonable(inputs),
        "results": _jsonable(results),
        "warnings": list(warnings),
    }
    if constants is not None:
        report["constants"] = _jsonable(constants)
    return report


def _parse_cone(model, text: str):
    kind, _, arg = text.partition(":")
    if kind == "cyclic":
        return CyclicSubgroup(model.parse_element(arg), label=f"<{arg}>")
    if kind == "factor":
        if not isinstance(model, FreeProduct):
            raise ConfigError("factor cones need a free product group")
        if not (arg.isdecimal() and int(arg) < len(model.factors)):
            raise ConfigError(
                f"factor index {arg!r} must be an integer in [0, {len(model.factors)})"
            )
        return FactorSubgroup(int(arg))
    raise ConfigError(f"unknown cone spec {text!r}; use cyclic:<element> or factor:<index>")


def _rational(flag: str, text: str) -> Fraction:
    """The value of ``--flag``; text that is not a finite rational (``x``,
    ``1/0``, ``inf``, ``nan``) is a config error.  Reports echo the text."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"--{flag} {text!r} is not a rational number") from None


# (PresentationConstants field, flag), the flags that `bounds eval` and `bounds theorem` share
_CONSTANT_FLAGS = [
    ("delta", "delta"),
    ("L_pres", "L"),
    ("M_pres", "M"),
    ("C_ds", "C"),
    ("M_ballcard", "Mball"),
    ("K_axis", "Kaxis"),
    ("K_h", "Kh"),
    ("d_trans", "dtrans"),
]


def _constants_from_args(args) -> PresentationConstants:
    kwargs = {}
    for field, flag in _CONSTANT_FLAGS:
        val = getattr(args, flag)
        if val is not None:
            kwargs[field] = _rational(flag, val)
    return PresentationConstants(**kwargs)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_ball(args):
    model = _load_group(args.group)
    b = ball(model, args.radius, cap=args.cap_ball)
    by_length = [0] * (args.radius + 1)
    for length in b.lengths:
        by_length[length] += 1
    return _report(
        "ball",
        {"group": model.to_dict(), "radius": args.radius},
        {
            "size": len(b.elements),
            "sizes_by_length": by_length,
            "sample": [model.element_str(e) for e in b.elements[: min(8, len(b.elements))]],
        },
    )


def _put_delta(results: dict, key: str, graph, seed: int, exhaustive=False, sample_vertices=64) -> bool:
    """Store delta of ``graph`` under ``key``: swept when asked or when its
    blocks fit the cap, otherwise over a vertex sample and labelled a lower
    bound.  True when swept."""
    exhaustive = exhaustive or exhaustive_fits(graph)
    delta = estimate_delta_4point(graph, exhaustive=exhaustive, sample_vertices=sample_vertices, seed=seed)
    results[key] = str(delta)
    if not exhaustive:
        results["lower_bound"] = True  # a vertex sample only bounds delta from below
    return exhaustive


def _cmd_graph(args):
    model = _load_group(args.group)
    b = ball(model, args.radius, cap=args.cap_ball)
    graph = cayley_graph(b)
    summary = graph.summary()
    summary["delta_estimate"] = None
    if not args.no_delta:
        _put_delta(summary, "delta_estimate", graph, args.seed)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["vertex_a", "vertex_b", "weight"])
            writer.writerows(graph.edges)
    return _report("graph", {"group": model.to_dict(), "radius": args.radius}, summary)


def _cmd_delta(args):
    model = _load_group(args.group)
    b = ball(model, args.radius, cap=args.cap_ball)
    graph = cayley_graph(b)
    results = {"vertices": graph.n}
    exhaustive = _put_delta(results, "delta", graph, args.seed, args.exhaustive, args.sample_vertices)
    return _report(
        "delta",
        {
            "group": model.to_dict(),
            "radius": args.radius,
            "mode": "exhaustive" if exhaustive else "sampled",
        },
        results,
    )


def _cmd_coned(args):
    model = _load_group(args.group)
    b = ball(model, args.radius, cap=args.cap_ball)
    oracles = [_parse_cone(model, spec) for spec in args.cone]
    coned = coned_off(b, oracles)
    results = coned.summary()
    if args.pair:
        u = model.parse_element(args.pair[0])
        v = model.parse_element(args.pair[1])
        results["pair_distance"] = str(coned.distance(b.element_index(u), b.element_index(v)))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["vertex_a", "vertex_b", "weight"])
            writer.writerows(coned.graph.edges)
    return _report(
        "coned",
        {"group": model.to_dict(), "radius": args.radius, "cones": args.cone},
        results,
    )


def _cmd_bounds(args):
    consts = _constants_from_args(args)
    if args.bounds_action == "eval":
        k = _rational("k", args.k)
        chain = bcp_epsilon(k, consts)
        return _report(
            "bounds",
            {"action": "eval", "k": str(k)},
            chain.as_dict(),
            constants=consts.as_dict(),
            warnings=[chain.note],
        )
    c_of_k = parse_bounding_function(args.c)
    qs = [parse_bounding_function(q) for q in args.q]
    rep = theorem_bound(_rational("lu", args.lu), _rational("lv", args.lv), consts, c_of_k, qs)
    return _report(
        "bounds",
        {"action": "theorem", "lu": args.lu, "lv": args.lv, "c": args.c, "q": args.q},
        rep.as_dict(),
        constants=consts.as_dict(),
    )


def _cmd_conj_solve(args):
    model = _load_group(args.group)
    u = model.parse_element(args.u)
    v = model.parse_element(args.v)
    solver = choose_solver(model, args.solver)
    if args.radius < 0:  # for every solver and pair, as in `profile`
        raise DomainError("radius must be >= 0")
    if solver is None:
        solver = "brute"
        result = brute_force_conjugator(model, u, v, args.radius, ball_cap=args.cap_ball)
    else:
        result = conjugacy_entry(model).decide(model, u, v)
    return _report(
        "conj",
        {
            "group": model.to_dict(),
            "u": model.element_str(u),
            "v": model.element_str(v),
            "solver": solver,
            "radius": args.radius,
        },
        result.as_dict(model),
    )


def _cmd_profile(args):
    model = _load_group(args.group)
    result = profile_conjugacy_bound(
        model,
        args.radius,
        args.solver,
        slack=args.slack,
        ball_cap=args.cap_ball,
    )
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows(result.csv_rows())
    fit = result.fit
    return _report(
        "profile",
        {"group": model.to_dict(), "radius": args.radius, "solver": args.solver, "slack": args.slack},
        {
            "records": len(result.records),
            "fit_degree": fit.degree,
            "fit_constant": str(fit.constant) if fit.constant is not None else None,
            "per_degree_constant": {str(d): str(a) for d, a in fit.per_degree.items()},
            "dominated": fit.dominated,
            "unknown_pairs": len(result.unknown_pairs),
            "max_min_conjugator_length": max(
                (r.min_conjugator_length for r in result.records), default=0
            ),
        },
    )


def _cmd_rd(args):
    import random as _random

    model = _load_group(args.group)
    f = parse_bounding_function(args.f)
    b = ball(model, args.radius, cap=args.cap_ball)
    rng = _random.Random(args.seed)
    failures = 0
    first_failure = None
    for trial in range(args.trials):
        vecs = []
        for _ in range(2):
            support_size = rng.randint(1, min(6, len(b.elements)))
            vec = SupportedVector(model)
            for _ in range(support_size):
                elem = b.elements[rng.randrange(len(b.elements))]
                vec.add_term(elem, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            vecs.append(vec)
        rep = check_product_estimate(vecs[0], vecs[1], f)
        if not rep.holds:
            failures += 1
            if first_failure is None:
                first_failure = trial
    return _report(
        "rd",
        {"group": model.to_dict(), "trials": args.trials, "f": args.f, "radius": args.radius},
        {
            "trials": args.trials,
            "failures": failures,
            "first_failure": first_failure,
        },
    )


def _cmd_homology(args):
    model = _load_group(args.group)
    require_finite(model)  # before the --nmax default reads the order
    n_max = args.nmax
    if n_max is None:
        n_max = 3 if model.order <= 6 else 2
    if n_max < 1:  # H_n needs b_(n+1), so degree 0 needs n_max = 1
        raise DomainError(f"--nmax must be >= 1, got {n_max}")
    sx, hh_slice, hc_slice = centralizer_slices(model, n_max, basis_cap=args.cap_basis)
    hh, hc = homology_dims(hh_slice), homology_dims(hc_slice)
    results = {
        "n_max": n_max,
        "hochschild": hh.as_dict(),
        "cyclic": hc.as_dict(),
        "identities": chain_identities(sx, hh_slice, hc_slice),
    }
    if not args.split:
        for kind in ("hochschild", "cyclic"):
            del results[kind]["per_class"]
    return _report(
        "homology",
        {"group": model.to_dict(), "nmax": n_max, "split": bool(args.split)},
        results,
    )


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


@functools.cache  # parse_args leaves the parser unchanged, so one serves every run
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggtkit",
        description="Exact computational toolkit for conjugacy bounds, coned-off "
        "Cayley geometry, rapid-decay seminorms, and group-algebra homology.",
    )
    parser.add_argument("--version", action="version", version=f"ggtkit {__version__}")

    # Each subcommand takes only the flags its handler reads.
    timed = argparse.ArgumentParser(add_help=False)
    timed.add_argument("--timing", action="store_true", help="include wall time in the report")
    grouped = argparse.ArgumentParser(add_help=False, parents=[timed])
    grouped.add_argument(
        "--group", required=True, help="builtin name, inline JSON, or path to a .json file"
    )
    balled = argparse.ArgumentParser(add_help=False, parents=[grouped])
    balled.add_argument("--cap-ball", type=_positive_int, default=DEFAULT_BALL_CAP, help="ball size cap")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="seed for sampled scans")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ball", parents=[balled], help="enumerate a Cayley ball")
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("graph", parents=[balled, seeded], help="Cayley graph of a ball")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--csv", help="write the edge list to this CSV file")
    p.add_argument("--no-delta", action="store_true", help="skip the delta estimate")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("delta", parents=[balled, seeded], help="four-point hyperbolicity defect")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--sample-vertices", type=_positive_int, default=64)
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("coned", parents=[balled], help="coned-off Cayley graph")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument(
        "--cone",
        action="append",
        required=True,
        help="subgroup to cone off: cyclic:<element> or factor:<index> (repeatable)",
    )
    p.add_argument("--pair", nargs=2, metavar=("U", "V"), help="report the coned distance")
    p.add_argument("--csv", help="write the coned edge list to this CSV file")
    p.set_defaults(func=_cmd_coned)

    p = sub.add_parser("bounds", help="bound-formula evaluators")
    bounds_sub = p.add_subparsers(dest="bounds_action", required=True)
    constants = argparse.ArgumentParser(add_help=False, parents=[timed])
    for _, flag in _CONSTANT_FLAGS:
        constants.add_argument(f"--{flag}")
    pe = bounds_sub.add_parser("eval", parents=[constants], help="coset-penetration constant chain")
    pe.add_argument("--k", required=True)
    pe.set_defaults(func=_cmd_bounds)
    pt = bounds_sub.add_parser("theorem", parents=[constants], help="composite conjugator-length bound")
    pt.add_argument("--lu", required=True)
    pt.add_argument("--lv", required=True)
    pt.add_argument("--c", default="(1+x)", help="coset-penetration bound function")
    pt.add_argument("--q", action="append", default=[], help="subgroup polynomial bound (repeatable)")
    pt.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("conj", help="conjugacy solvers")
    conj_sub = p.add_subparsers(dest="conj_action", required=True)
    ps = conj_sub.add_parser("solve", parents=[balled])
    ps.add_argument("--u", required=True)
    ps.add_argument("--v", required=True)
    ps.add_argument("--solver", default="auto", choices=SOLVERS)
    ps.add_argument("--radius", type=int, default=6)
    ps.set_defaults(func=_cmd_conj_solve)

    p = sub.add_parser("rd", help="rapid-decay seminorm checks")
    rd_sub = p.add_subparsers(dest="rd_action", required=True)
    pc = rd_sub.add_parser("check", parents=[balled, seeded])
    pc.add_argument("--trials", type=_positive_int, default=100)
    pc.add_argument("--f", default="(1+x)^2")
    pc.add_argument("--radius", type=int, default=3)
    pc.set_defaults(func=_cmd_rd)

    p = sub.add_parser("homology", parents=[grouped], help="group-algebra homology")
    p.add_argument("--cap-basis", type=_positive_int, default=DEFAULT_BASIS_CAP, help="tuple basis cap")
    p.add_argument("--nmax", type=int)
    p.add_argument("--split", action="store_true", help="print the dimensions per conjugacy class")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("profile", parents=[balled], help="conjugacy-bound profiler")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--solver", default="auto", choices=SOLVERS)
    p.add_argument("--slack", type=int, default=2)
    p.add_argument("--csv", help="write profile records to this CSV file")
    p.set_defaults(func=_cmd_profile)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        report = args.func(args)
    except ConfigError as exc:
        print(f"ggtkit: config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"ggtkit: resource cap: {exc}", file=sys.stderr)
        return 3
    except GgtError as exc:
        print(f"ggtkit: error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - started
    if args.timing:
        report["wall_time_s"] = round(elapsed, 6)
    print(f"ggtkit: wall_time_s={elapsed:.6f}", file=sys.stderr)
    sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
