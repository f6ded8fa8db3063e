"""Command-line front end: reproducible experiments with JSON reports.

Every subcommand emits one self-describing JSON document (schema_version,
command and config echo, results, verdict).  Reports are
byte-identical across runs for fixed inputs and seed; wall-clock timing is
opt-in via --timing because it would break that guarantee.  A failing
verdict exits with code 1; usage and parse problems (an --out path that
cannot be written, or a closed standard output, among them), measures
that do not live on the given space or dimension, and inputs over a size
cap or budget, or past the memory at hand, exit with code 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import cuntz, fixed_point, ifs, metric_core, rho, rng, sampling, transport
from .errors import InputParseError, InputTooLarge, MetricAxiomError, MismatchedMeasures, PvmkError
from .schemas import (
    SCHEMA_VERSION,
    canonical_json,
    ifs_from_obj,
    load_json,
    measure_from_obj,
    ovm_from_obj,
    space_from_obj,
    vector_from_obj,
    write_text,
)


def _report(args, results, passed: bool, started: float) -> dict:
    """The report of one command, which returns (results, passed) and, for
    phi-iterate, its CSV trace."""
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "timing", "command") and v is not None
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": config,
        "results": results,
        "verdict": "pass" if passed else "fail",
    }
    if args.timing:
        report["duration_s"] = time.monotonic() - started
    return report


def _emit(args, report: dict, csv_text: str | None = None) -> None:
    text = canonical_json(report) + "\n"
    if args.out:
        # the trace first, so that a failed write leaves no report behind
        if csv_text is not None:
            write_text(Path(args.out).with_suffix(".csv"), csv_text)
        write_text(args.out, text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed stdout fails here, inside run


def _load_space(args):
    return space_from_obj(load_json(args.space))


def _load_tower(args):
    return ifs.build_tower(ifs_from_obj(load_json(args.ifs)), args.depth)


def _cmd_space(args):
    doc = load_json(args.space)
    try:
        space = space_from_obj(doc)
    except MetricAxiomError:
        # the fields parsed above, so this only lists every violation
        violations = metric_core.audit_space(doc["dist"], [str(p["id"]) for p in doc["points"]])
        results = {
            "valid": False,
            "violations": [
                {"axiom": type(v).__name__, "witness": list(v.witness)} for v in violations
            ],
        }
        return results, False
    return {"valid": True, "points": space.n, "diam": space.diam, "violations": []}, True


def _cmd_kantorovich(args):
    space = _load_space(args)
    mu = measure_from_obj(load_json(args.mu), space)
    nu = measure_from_obj(load_json(args.nu), space)
    res = transport.kantorovich(space, mu, nu)
    gap = sum(
        p * (a - b) for p, a, b in zip(res.potential.values, mu.weights, nu.weights)
    ) - res.value
    results = {
        "value": res.value,
        "plan": res.plan,
        "potential": res.potential,
        "gap": int(gap) if gap == 0 else gap,
    }
    return results, gap == 0


def _cmd_hutchinson(args):
    if args.depth < 1:
        raise InputParseError("the invariant measure lives at level >= 1")
    tower = _load_tower(args)
    measure, cert = ifs.hutchinson_fixed(tower)
    results = {
        "weights": measure.weights,
        "certificate": cert,
        "contraction": tower.contraction,
    }
    return results, bool(cert["invariant"])


def _cmd_cuntz_verify(args):
    tower = _load_tower(args)
    levels = [cuntz.cuntz_verify(tower, k) for k in range(1, args.depth + 1)]
    return {"levels": levels}, all(rep.passed for rep in levels)


def _cmd_rho(args):
    space = _load_space(args)
    E = ovm_from_obj(load_json(args.e), space)
    F = ovm_from_obj(load_json(args.f), space)
    if args.method == "vertex":
        res = rho.rho_exact(space, E, F, metric_core.lip1_vertices(space))
    elif args.method == "sphere":
        res = rho.rho_lower_sphere(
            space, E, F, args.restarts, seed=args.seed, vertices=metric_core.lip1_vertices(space)
        )
    else:
        res = rho.rho_lower_grid(space, E, F, args.trials, seed=args.seed)
    witness = res.witness_vector
    results = {
        "value": res.value,
        "exact": res.exact,
        "method": res.method,
        "witness_phi": {
            "values": [float(x) for x in res.witness_phi.values],
            "constant": float(res.witness_phi.constant),
        },
        "witness_vector": None if witness is None else {"re": witness.real, "im": witness.imag},
    }
    return results, True


def _seed_ovm(args, tower, level):
    """The --seed-kind measure at the level; argparse admits only its choices."""
    if args.seed_kind == "truth":
        return cuntz.multiplication_pvm(tower, level)
    if args.seed_kind == "swapped":
        return fixed_point.swapped_diagonal_pvm(tower, level)
    sample = sampling.random_pvm if args.seed_kind == "random-pvm" else sampling.random_povm
    return sample(tower.level(level).space, tower.dim(level), rng.SplitMix64(args.seed))


def _cmd_phi_iterate(args):
    if args.steps < 0:
        raise InputParseError("steps must be non-negative")
    tower = _load_tower(args)
    start_level = args.depth - args.steps
    if start_level < 0:
        raise InputParseError("steps exceed the tower depth")
    seed_ovm = _seed_ovm(args, tower, start_level)
    trace = fixed_point.phi_iterate(tower, seed_ovm, args.steps, seed_desc=args.seed_kind)
    rows = ["step,level,rho_to_truth,ratio"]
    for rec in trace.records:
        rho_txt = "" if rec.rho_to_truth is None else format(rec.rho_to_truth, ".17g")
        ratio_txt = "" if rec.ratio is None else format(rec.ratio, ".17g")
        rows.append(f"{rec.step},{rec.level},{rho_txt},{ratio_txt}")
    csv_text = "\n".join(rows) + "\n"
    results = {
        "seed_desc": trace.seed_desc,
        "records": trace.records,
        "contraction_bound": trace.contraction_bound,
        "prefix_depth_verified": trace.prefix_depth_verified,
        "trace_csv": csv_text,
    }
    return results, trace.prefix_depth_verified >= args.steps, csv_text


def _cmd_verify_fixed_point(args):
    tower = _load_tower(args)
    candidate = None
    if args.e:
        candidate = ovm_from_obj(load_json(args.e), tower.level(args.depth).space)
    rep = fixed_point.verify_fixed_point(tower, candidate)
    return rep, rep.passed


def _cmd_relate_verify(args):
    tower = _load_tower(args)
    rep = fixed_point.relate_verify(tower, vector_from_obj(load_json(args.h), tower.dim(args.depth)))
    return rep, rep.passed


def _cmd_suite(args):
    # imported here, so that no other command pays for loading the sweep
    from . import acceptance

    if args.depth is not None and not args.ifs:
        raise InputParseError("--depth is the depth of the --ifs tower and needs --ifs")
    # the user's tower first, so that a bad document or depth exits 2 before the sweep
    tower = None
    if args.ifs:
        depth = 3 if args.depth is None else args.depth
        tower = ifs.build_tower(ifs_from_obj(load_json(args.ifs)), depth)
    results = acceptance.run_all(seed=args.seed)
    ok = all(r.passed for r in results)
    payload = {
        "criteria": [
            {
                "index": r.index,
                "name": r.name,
                "verdict": "pass" if r.passed else "fail",
                "details": r.details,
            }
            for r in results
        ]
    }
    if tower is not None:
        smoke = {
            "depth": depth,
            "cuntz": all(cuntz.cuntz_verify(tower, k).passed for k in range(1, depth + 1)),
            "fixed_point": fixed_point.verify_fixed_point(tower).passed,
        }
        payload["user_system"] = smoke
        ok = ok and smoke["cuntz"] and smoke["fixed_point"]
    return payload, ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvmk",
        description="Kantorovich metrics on measures and operator valued measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed=False):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--timing", action="store_true")

    p = sub.add_parser("space", help="validate a metric space document")
    p.add_argument("--space", required=True)
    common(p)
    p.set_defaults(func=_cmd_space)

    p = sub.add_parser("kantorovich", help="exact transport distance with certificates")
    p.add_argument("--space", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    common(p)
    p.set_defaults(func=_cmd_kantorovich)

    p = sub.add_parser("hutchinson", help="invariant tower measure with certificate")
    p.add_argument("--ifs", required=True)
    p.add_argument("--depth", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_hutchinson)

    p = sub.add_parser("cuntz-verify", help="exact isometry relations per level")
    p.add_argument("--ifs", required=True)
    p.add_argument("--depth", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_cuntz_verify)

    p = sub.add_parser("rho", help="metric between operator valued measures")
    p.add_argument("--space", required=True)
    p.add_argument("--e", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--method", choices=("vertex", "sphere", "grid"), default="vertex")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--trials", type=int, default=200)
    common(p, seed=True)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("phi-iterate", help="iterate the measure contraction")
    p.add_argument("--ifs", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--seed-kind",
        choices=("truth", "swapped", "random-pvm", "random-povm"),
        default="swapped",
    )
    common(p, seed=True)
    p.set_defaults(func=_cmd_phi_iterate)

    p = sub.add_parser("verify-fixed-point", help="cylinder identities of the fixed point")
    p.add_argument("--ifs", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--e", default=None, help="optional candidate measure to check")
    common(p)
    p.set_defaults(func=_cmd_verify_fixed_point)

    p = sub.add_parser("relate-verify", help="weighted-space model on a vector")
    p.add_argument("--ifs", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--h", required=True)
    common(p)
    p.set_defaults(func=_cmd_relate_verify)

    p = sub.add_parser("suite", help="run the full acceptance sweep")
    p.add_argument("--ifs", default=None)
    p.add_argument("--depth", type=int, default=None)
    common(p, seed=True)
    p.set_defaults(func=_cmd_suite)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        results, passed, *csv_text = args.func(args)
        report = _report(args, results, passed, started)
        _emit(args, report, *csv_text)
    except (InputParseError, InputTooLarge, MismatchedMeasures) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except PvmkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:
        sys.stderr.write("error: cannot write the report: standard output is closed\n")
        return 2
    except MemoryError:
        sys.stderr.write("error: out of memory: the input is too large for this machine\n")
        return 2
    return 0 if report["verdict"] == "pass" else 1


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is left to devnull, so that the
        # interpreter's final flush of stdout prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
