"""Command-line front end: reproducible experiments with JSON reports.

Every subcommand emits one self-describing JSON document (schema_version,
command and config echo, results, verdict, tolerances).  Reports are
byte-identical across runs for fixed inputs and seed; wall-clock timing is
opt-in via --timing because it would break that guarantee.  A failing
verdict exits with code 1; usage and parse problems, and inputs over a
size cap, exit with code 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import acceptance
from .cuntz import build_cuntz_tower, cuntz_verify, multiplication_pvm
from .errors import InputParseError, PvmkError, SpaceTooLarge, TowerTooLarge
from .fixed_point import (
    phi_iterate,
    relate_verify,
    swapped_diagonal_pvm,
    verify_fixed_point,
)
from .ifs import build_tower, hutchinson_fixed
from .metric_core import audit_space, lip1_vertices, DEFAULT_VERTEX_CAP
from .rho import rho_exact, rho_lower_grid, rho_lower_sphere
from .rng import SplitMix64
from .sampling import random_povm, random_pvm
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
from .transport import kantorovich

DEFAULT_TOL = 1e-9


def _report(args, command: str, results: dict, verdict: bool, started: float) -> dict:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "timing", "command") and v is not None
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": results,
        "verdict": "pass" if verdict else "fail",
        "tolerances": {"compare": args.tol, "eigensolver": 1e-13},
    }
    if getattr(args, "timing", False):
        report["duration_s"] = time.monotonic() - started
    return report


def _emit(args, report: dict, csv_text: str | None = None) -> None:
    text = canonical_json(report) + "\n"
    if args.out:
        write_text(args.out, text)
        if csv_text is not None:
            write_text(Path(args.out).with_suffix(".csv"), csv_text)
    else:
        sys.stdout.write(text)
        if csv_text is not None:
            sys.stdout.write(csv_text)


def _load_space(args):
    return space_from_obj(load_json(args.space))


def _cmd_space(args, started):
    doc = load_json(args.space)
    try:
        ids = [str(p["id"]) for p in doc["points"]]
        violations = audit_space(doc["dist"], ids)
    except (KeyError, TypeError) as exc:
        raise InputParseError(f"space document missing field: {exc}") from exc
    try:
        space = _load_space(args)
        results = {
            "valid": True,
            "points": space.n,
            "diam": space.diam,
            "violations": [],
        }
        verdict = True
    except PvmkError:
        results = {
            "valid": False,
            "violations": [
                {"axiom": type(v).__name__, "witness": list(v.witness)} for v in violations
            ],
        }
        verdict = False
    return _report(args, "space", results, verdict, started), None


def _cmd_kantorovich(args, started):
    space = _load_space(args)
    mu = measure_from_obj(load_json(args.mu), space)
    nu = measure_from_obj(load_json(args.nu), space)
    res = kantorovich(space, mu, nu)
    gap = sum(
        p * (a - b) for p, a, b in zip(res.potential.values, mu.weights, nu.weights)
    ) - res.value
    results = {
        "value": res.value,
        "plan": [list(row) for row in res.plan],
        "potential": {
            "values": list(res.potential.values),
            "constant": res.potential.constant,
        },
        "gap": int(gap) if gap == 0 else gap,
    }
    return _report(args, "kantorovich", results, gap == 0, started), None


def _cmd_hutchinson(args, started):
    ifs = ifs_from_obj(load_json(args.ifs))
    tower = build_tower(ifs, args.depth)
    measure, cert = hutchinson_fixed(tower)
    results = {
        "weights": list(measure.weights),
        "certificate": cert,
        "contraction": tower.contraction,
    }
    return _report(args, "hutchinson", results, bool(cert["invariant"]), started), None


def _cmd_cuntz_verify(args, started):
    ifs = ifs_from_obj(load_json(args.ifs))
    ct = build_cuntz_tower(build_tower(ifs, args.depth))
    levels = []
    ok = True
    for k in range(1, args.depth + 1):
        rep = cuntz_verify(ct, k)
        levels.append(
            {"level": k, "sum_defect": rep.sum_defect, "ortho_defect": rep.ortho_defect}
        )
        ok = ok and rep.passed
    return _report(args, "cuntz-verify", {"levels": levels}, ok, started), None


def _cmd_rho(args, started):
    space = _load_space(args)
    E = ovm_from_obj(load_json(args.e), space)
    F = ovm_from_obj(load_json(args.f), space)
    if args.method == "vertex":
        res = rho_exact(space, E, F, lip1_vertices(space, cap=args.vertex_cap))
    elif args.method == "sphere":
        res = rho_lower_sphere(
            space,
            E,
            F,
            args.restarts,
            seed=args.seed,
            vertices=lip1_vertices(space, cap=args.vertex_cap),
        )
    else:
        res = rho_lower_grid(space, E, F, args.trials, seed=args.seed)
    witness = res.witness_vector
    results = {
        "value": res.value,
        "exact": res.exact,
        "method": res.method,
        "witness_phi": {
            "values": [float(x) for x in res.witness_phi.values],
            "constant": float(res.witness_phi.constant),
        },
        "witness_vector": None
        if witness is None
        else {
            "re": [float(x) for x in np.asarray(witness).real],
            "im": [float(x) for x in np.asarray(witness).imag],
        },
    }
    return _report(args, "rho", results, True, started), None


def _seed_ovm(args, ct, level):
    kind = args.seed_kind
    if kind == "truth":
        return multiplication_pvm(ct, level), "truth"
    if kind == "swapped":
        return swapped_diagonal_pvm(ct, level), "swapped"
    rng = SplitMix64(args.seed)
    space = ct.tower.level(level).space
    if kind == "random-pvm":
        return random_pvm(space, ct.dim(level), rng), "random-pvm"
    if kind == "random-povm":
        return random_povm(space, ct.dim(level), rng), "random-povm"
    raise InputParseError(f"unknown seed kind {kind!r}")


def _cmd_phi_iterate(args, started):
    ifs = ifs_from_obj(load_json(args.ifs))
    ct = build_cuntz_tower(build_tower(ifs, args.depth))
    start_level = args.depth - args.steps
    if start_level < 0:
        raise InputParseError("steps exceed the tower depth")
    seed_ovm, desc = _seed_ovm(args, ct, start_level)
    trace = phi_iterate(ct, seed_ovm, args.steps, seed_desc=desc)
    rows = ["step,level,rho_to_truth,ratio"]
    records = []
    for rec in trace.records:
        rho_txt = "" if rec.rho_to_truth is None else format(rec.rho_to_truth, ".17g")
        ratio_txt = "" if rec.ratio is None else format(rec.ratio, ".17g")
        rows.append(f"{rec.step},{rec.level},{rho_txt},{ratio_txt}")
        records.append(
            {
                "step": rec.step,
                "level": rec.level,
                "rho_to_truth": rec.rho_to_truth,
                "ratio": rec.ratio,
            }
        )
    csv_text = "\n".join(rows) + "\n"
    ok = trace.prefix_depth_verified >= args.steps
    results = {
        "seed_desc": trace.seed_desc,
        "records": records,
        "contraction_bound": trace.contraction_bound,
        "prefix_depth_verified": trace.prefix_depth_verified,
        "trace_csv": csv_text,
    }
    return _report(args, "phi-iterate", results, ok, started), csv_text


def _cmd_verify_fixed_point(args, started):
    ifs = ifs_from_obj(load_json(args.ifs))
    ct = build_cuntz_tower(build_tower(ifs, args.depth))
    candidate = None
    if args.e:
        candidate = ovm_from_obj(load_json(args.e), ct.tower.level(args.depth).space)
    rep = verify_fixed_point(ct, candidate)
    results = {
        "depth": rep.depth,
        "words_checked": rep.words_checked,
        "offending_words": list(rep.offending_words),
        "rederived_match": rep.rederived_match,
    }
    return _report(args, "verify-fixed-point", results, rep.passed, started), None


def _cmd_relate_verify(args, started):
    ifs = ifs_from_obj(load_json(args.ifs))
    ct = build_cuntz_tower(build_tower(ifs, args.depth))
    h = vector_from_obj(load_json(args.h), ct.dim(args.depth))
    rep = relate_verify(ct, h)
    results = {
        "positive_atoms": rep.positive_atoms,
        "isometry_defect": rep.isometry_defect,
        "intertwine_defect": rep.intertwine_defect,
        "range_rank": rep.range_rank,
        "span_rank": rep.span_rank,
    }
    return _report(args, "relate-verify", results, rep.passed, started), None


def _cmd_suite(args, started):
    results = acceptance.run_all(seed=args.seed)
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
    if args.ifs:
        ifs = ifs_from_obj(load_json(args.ifs))
        depth = args.depth if args.depth is not None else 3
        ct = build_cuntz_tower(build_tower(ifs, depth))
        smoke = {
            "depth": depth,
            "cuntz": all(cuntz_verify(ct, k).passed for k in range(1, depth + 1)),
            "fixed_point": verify_fixed_point(ct).passed,
        }
        payload["user_system"] = smoke
    ok = all(r.passed for r in results) and all(
        bool(v) for v in payload.get("user_system", {}).values() if isinstance(v, bool)
    )
    return _report(args, "suite", payload, ok, started), None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvmk",
        description="Kantorovich metrics on measures and operator valued measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed=False, tol=True, out=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        if out:
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
    p.add_argument("--vertex-cap", type=int, default=DEFAULT_VERTEX_CAP)
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
        report, csv_text = args.func(args, started)
    except (InputParseError, SpaceTooLarge, TowerTooLarge) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except PvmkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(args, report, csv_text)
    return 0 if report["verdict"] == "pass" else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
