"""The four benchmark workloads: seeded inputs, one operation, its checks.

A workload is built from the seed in set-up: every input an operation
needs is generated there with ``pvmk.rng``/``pvmk.sampling`` (or written
to disk, for the CLI).  Operations run in a fixed cycle of ``kinds``; the
i-th operation uses kind ``i % len(kinds)`` and the ``i // len(kinds)``-th
input of that kind, wrapping round the pool, so consecutive cycles see
fresh inputs of the same shapes.

``op(i)`` returns a JSON-able record of the exact results (Fractions as
"p/q", verdicts, integer counts, floats rounded to 8 significant digits)
and raises ``CheckFailed`` when an answer breaks a check.  Library calls go
through module attributes (``ifs.build_tower``) so that a traced run sees
them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from pvmk import cuntz, fixed_point, ifs, metric_core, ovm, rho, sampling, transport
from pvmk.rng import SplitMix64

FLOAT_TOL = 1e-9


class CheckFailed(Exception):
    """An operation returned an answer that fails the benchmark's checks."""


def check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def q(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def f8(x: float) -> str:
    """A float for the digest: 8 significant digits, and 0 below 1e-9, so
    that last-bit differences between BLAS builds do not change it."""
    x = float(x)
    return "0" if abs(x) < 1e-9 else format(x, ".7e")


def canonical(value):
    """A JSON report with every float passed through ``f8``."""
    if isinstance(value, float):
        return f8(value)
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [canonical(v) for v in value]
    return value


def _child(seed: int, tag: int) -> SplitMix64:
    """Independent stream per (seed, purpose)."""
    return SplitMix64(SplitMix64(seed).next_u64() ^ (tag * 0x9E3779B97F4A7C15))


class Workload:
    kinds: tuple[str, ...] = ()
    pool: int = 1  # inputs generated per kind
    # Fewest cycles a timed phase runs: enough that the slowest kind gives
    # the eleven samples the op tail is taken from.
    min_cycles: int = 1
    # True when op() itself sets ``speed`` and ``reference_s`` (the
    # kernel's scale factor and the wall time the kernel took) for the
    # operation it just ran; otherwise child.py times the kernel around it.
    own_speed: bool = False

    def input_index(self, i: int) -> tuple[str, int]:
        k = len(self.kinds)
        return self.kinds[i % k], (i // k) % self.pool

    def op(self, i: int, tracer=None):
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------- tower-certify

# kind: (system, depth, phi steps or None for the Cuntz check only).  The
# dyadic pipeline runs twice a cycle so that the median operation and the
# ten slowest but one sit among the three ~1 s kinds for 3 to 10 cycles a
# run, rather than on the edge between two kinds.
TOWER_KINDS = {
    "dyadic-d5": ("dyadic", 5, 4),
    "triadic-d3": ("triadic", 3, 2),
    "theta-d6": ("theta", 6, 2),
    "cuntz-d6": ("dyadic", 6, None),
    "dyadic-d5b": ("dyadic", 5, 4),
}


def _tower_system(system: str, rng: SplitMix64):
    base = Fraction(rng.randint(0, 15), 16)
    half = Fraction(1, 2)
    if system == "dyadic":
        return ifs.make_ifs([(half, 0), (half, half)], base)
    if system == "theta":
        return ifs.make_ifs([(half, 0), (half, half)], base, theta=Fraction(1, 3))
    quarter = Fraction(1, 4)
    middle = Fraction(rng.randint(4, 8), 16)  # cell [middle, middle + 1/4) stays disjoint
    return ifs.make_ifs([(quarter, 0), (quarter, middle), (quarter, Fraction(3, 4))], base)


def certify_tower(system, depth: int, steps: int | None) -> list:
    """The CLI certification pipeline as library calls, with its checks."""
    tower = ifs.build_tower(system, depth)
    n = system.n_branches
    check([len(lv.words) for lv in tower.levels] == [n**k for k in range(depth + 1)], "cells")
    ct = cuntz.build_cuntz_tower(tower)
    defects = []
    for k in range(1, depth + 1):
        rep = cuntz.cuntz_verify(ct, k)
        check(rep.passed, f"Cuntz relations fail at level {k}")
        defects.append(rep.sum_defect + rep.ortho_defect)
    record = [depth, n, q(system.base_point), defects]
    if steps is None:
        return record
    _measure, cert = ifs.hutchinson_fixed(tower)
    check(cert["invariant"] and cert["cells"] == n**depth, "invariant measure certificate")
    fp = fixed_point.verify_fixed_point(ct)
    check(fp.passed, f"fixed point fails on {fp.offending_words[:3]}")
    check(fp.words_checked == sum(n**t for t in range(depth + 1)), "words checked")
    seed = fixed_point.swapped_diagonal_pvm(ct, depth - steps)
    trace = fixed_point.phi_iterate(ct, seed, steps, seed_desc="swapped")
    check(trace.prefix_depth_verified == steps, "prefix depth verified")
    bound = float(system.contraction)
    rhos = [rec.rho_to_truth for rec in trace.records]
    for a, b in zip(rhos, rhos[1:]):
        if a is not None and b is not None:
            check(b <= bound * a + 1e-12, "phi contraction ratio above the bound")
    record += [
        cert["cells"],
        fp.words_checked,
        trace.prefix_depth_verified,
        [None if r is None else f8(r) for r in rhos],
    ]
    return record


class TowerCertify(Workload):
    kinds = tuple(TOWER_KINDS)
    pool = 64
    min_cycles = 3

    def __init__(self, seed: int):
        self.systems = {}
        for t, kind in enumerate(self.kinds):
            rng = _child(seed, t)
            self.systems[kind] = [_tower_system(TOWER_KINDS[kind][0], rng) for _ in range(self.pool)]

    def warm_up(self) -> None:
        certify_tower(self.systems["triadic-d3"][0], 2, 1)

    def op(self, i: int, tracer=None):
        kind, j = self.input_index(i)
        _system, depth, steps = TOWER_KINDS[kind]
        return [kind] + certify_tower(self.systems[kind][j], depth, steps)


# ---------------------------------------------------------------- operator-rho

# kind: points.  Seven points run four times a cycle, so that the median
# operation and the ten slowest sit well inside that size for any run of
# three cycles or more, rather than on the edge between two sizes.
RHO_KINDS = {"n5": 5, "n6": 6, "n7": 7, "n7b": 7, "n7c": 7, "n7d": 7}
RHO_DIMS = {"real-pvm": 6, "complex-pvm": 3, "povm": 4}  # the conjugated pair is complex-pvm's
SPHERE_RESTARTS = 6
GRID_SAMPLES = 48


def strict_metric_space(n: int, rng: SplitMix64):
    """Random n-point metric with every distance in [3/2, 2].

    Every triangle inequality holds strictly, so no distance collapses to
    a path and the Lip-1 vertex count, which sets the cost of rho, varies
    little from space to space (about 60, 200 and 650 vertices at 5, 6
    and 7 points).
    """
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(12, 16), 8)
    return metric_core.validate_space(d)


class OperatorRho(Workload):
    kinds = tuple(RHO_KINDS)
    pool = 12
    min_cycles = 3

    def __init__(self, seed: int):
        self.inputs = {}
        self.sphere_gaps: list[float] = []
        self.grid_gaps: list[float] = []
        for t, (kind, n) in enumerate(RHO_KINDS.items()):
            rng = _child(seed, 100 + t)
            self.inputs[kind] = [self._make(n, rng) for _ in range(self.pool)]

    @staticmethod
    def _make(n: int, rng: SplitMix64):
        space = strict_metric_space(n, rng)
        pairs = {}
        for name, dim in RHO_DIMS.items():
            if name == "povm":
                pairs[name] = (sampling.random_povm(space, dim, rng), sampling.random_povm(space, dim, rng))
            else:
                cplx = name == "complex-pvm"
                pairs[name] = tuple(sampling.random_pvm(space, dim, rng, complex_=cplx) for _ in range(2))
        u = sampling.random_unitary(RHO_DIMS["complex-pvm"], rng)
        return space, pairs, u, rng.next_u64() >> 33

    def warm_up(self) -> None:
        self._run(*self._make(3, _child(0, 99)))

    def _score(self, space, E, F, verts, seed):
        exact = rho.rho_exact(space, E, F, verts)
        back = rho.rho_exact(space, F, E, verts)
        check(exact.value == back.value, "rho(E,F) differs from rho(F,E)")
        sphere = rho.rho_lower_sphere(space, E, F, SPHERE_RESTARTS, seed=seed, vertices=verts)
        grid = rho.rho_lower_grid(space, E, F, GRID_SAMPLES, seed=seed)
        check(sphere.value <= exact.value + FLOAT_TOL, "sphere bound above rho_exact")
        check(grid.value <= exact.value + FLOAT_TOL, "grid bound above rho_exact")
        if exact.value > 1e-12:
            self.sphere_gaps.append(sphere.value / exact.value)
            self.grid_gaps.append(grid.value / exact.value)
        # The sphere ascent's path, and so its value, can change with the
        # last bits of an eigenvector; it is checked but kept out of the digest.
        return exact.value, [f8(exact.value), f8(grid.value)]

    def _run(self, space, pairs, u, seed):
        verts = metric_core.lip1_vertices(space)
        record = [space.n, len(verts), metric_core_digest(verts)]
        values = {}
        for name, (E, F) in pairs.items():
            values[name], rec = self._score(space, E, F, verts, seed)
            record.append([name, E.dim] + rec)
        E, F = pairs["complex-pvm"]
        moved, rec = self._score(space, ovm.conjugate(E, u), ovm.conjugate(F, u), verts, seed)
        check(abs(moved - values["complex-pvm"]) <= FLOAT_TOL, "unitary conjugation moved rho")
        record.append(["conjugate"] + rec)
        return record

    def op(self, i: int, tracer=None):
        kind, j = self.input_index(i)
        return [kind] + self._run(*self.inputs[kind][j])


def metric_core_digest(verts) -> str:
    text = ";".join(",".join(q(x) for x in v) for v in verts.vertices)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- transport-exact

# kind: (tower, level, support cap or None for full support).  Tower kinds
# transport at ``level`` and push forward to ``level + 1``.  Degenerate
# pivots make full-support ultrametric transport ten times slower than the
# line at the same size, and its cost swings by half from input to input;
# at level 4 it set the op tail and moved it by 19% from seed to seed.  At
# level 3 the steadier line kinds bound the tail instead.
TRANSPORT_KINDS = {
    "generic": (None, None, None),
    "dyadic-sparse": ("dyadic", 5, 8),
    "dyadic-full": ("dyadic", 5, None),
    "theta-sparse": ("theta", 5, 8),
    "theta-full": ("theta", 3, None),
}
TOWER_DEPTH = 6
GENERIC_SPACES = 6


def _full_measure(n: int, rng: SplitMix64) -> transport.ProbMeasure:
    raw = [rng.randint(1, 16) for _ in range(n)]
    total = sum(raw)
    return transport.ProbMeasure(tuple(Fraction(w, total) for w in raw))


def certify_transport(space, mu, nu, res) -> None:
    """Primal and dual certificates of a transport result, checked here."""
    n = space.n
    plan = res.plan
    check(all(x >= 0 for row in plan for x in row), "negative plan entry")
    check(all(sum(plan[i]) == mu.weights[i] for i in range(n)), "plan rows")
    check(all(sum(plan[i][j] for i in range(n)) == nu.weights[j] for j in range(n)), "plan columns")
    cost = sum(plan[i][j] * space.dist[i][j] for i in range(n) for j in range(n) if plan[i][j])
    check(cost == res.value, "plan cost differs from the value")
    phi = res.potential.values
    check(phi[0] == 0, "potential not anchored")
    check(
        all(abs(phi[i] - phi[j]) <= space.dist[i][j] for i in range(n) for j in range(i + 1, n)),
        "potential is not 1-Lipschitz",
    )
    dual = sum(p * (a - b) for p, a, b in zip(phi, mu.weights, nu.weights))
    check(dual == res.value, "duality gap is not zero")


class TransportExact(Workload):
    kinds = tuple(TRANSPORT_KINDS)
    pool = 96  # about 60 cycles fit in a 15 s run
    min_cycles = 11

    def __init__(self, seed: int):
        half = Fraction(1, 2)
        branches = [(half, 0), (half, half)]
        self.towers = {
            "dyadic": ifs.build_tower(ifs.make_ifs(branches, 0), TOWER_DEPTH),
            "theta": ifs.build_tower(ifs.make_ifs(branches, 0, theta=Fraction(1, 3)), TOWER_DEPTH),
        }
        rng = _child(seed, 200)
        self.generic = []
        for j in range(GENERIC_SPACES):
            space = sampling.random_metric_space(5 + j % 3, rng)
            self.generic.append((space, metric_core.lip1_vertices(space)))
        self.inputs = {}
        for t, kind in enumerate(self.kinds):
            rng = _child(seed, 201 + t)
            pairs = []
            for j in range(self.pool):
                _tower, level, cap = TRANSPORT_KINDS[kind]
                if kind == "generic":
                    n = self.generic[j % GENERIC_SPACES][0].n
                    make = lambda: sampling.random_rational_measure(n, rng)  # noqa: E731
                elif cap is not None:
                    make = lambda: sampling.random_rational_measure(2**level, rng, max_support=cap)  # noqa: E731
                else:
                    make = lambda: _full_measure(2**level, rng)  # noqa: E731
                mu, nu = make(), make()
                while nu.weights == mu.weights:
                    nu = make()
                pairs.append((mu, nu))
            self.inputs[kind] = pairs

    def warm_up(self) -> None:
        space, verts = self.generic[0]
        mu, nu = self.inputs["generic"][0]
        certify_transport(space, mu, nu, transport.kantorovich(space, mu, nu))

    def op(self, i: int, tracer=None):
        kind, j = self.input_index(i)
        mu, nu = self.inputs[kind][j]
        if kind == "generic":
            space, verts = self.generic[j % GENERIC_SPACES]
            res = transport.kantorovich(space, mu, nu)
            certify_transport(space, mu, nu, res)
            oracle = transport.kantorovich_dual_oracle(space, mu, nu, verts)
            check(oracle == res.value, "primal differs from the dual oracle")
            return [kind, space.n, q(res.value)]
        name, k, _cap = TRANSPORT_KINDS[kind]
        tower = self.towers[name]
        res = transport.kantorovich(tower.level(k).space, mu, nu)
        certify_transport(tower.level(k).space, mu, nu, res)
        t_mu = ifs.hutchinson_step(tower, k, mu)
        t_nu = ifs.hutchinson_step(tower, k, nu)
        pushed = transport.kantorovich(tower.level(k + 1).space, t_mu, t_nu)
        certify_transport(tower.level(k + 1).space, t_mu, t_nu, pushed)
        check(pushed.value <= tower.contraction * res.value, "pushforward ratio above the bound")
        return [kind, len(mu.support()), len(nu.support()), q(res.value), q(pushed.value)]


# ---------------------------------------------------------------- cli-small

# argv[1] is the trace file ("" when untraced), the rest the pvmk command.
CLI_CODE = "import sys; sys.path.insert(0, 'perfbench'); import reference; reference.run_cli(sys.argv[2:], sys.argv[1])"


class CliSmall(Workload):
    pool = 1
    min_cycles = 4
    # Each operation is a fresh process.  The kernel timed in this process
    # did not follow those processes' speed, while the kernel timed inside
    # each one does, so each CLI process times it itself.
    own_speed = True

    def __init__(self, seed: int, root: Path, scratch: Path):
        self.root = root
        rng = _child(seed, 300)
        scratch.mkdir(parents=True, exist_ok=True)
        two = "sample_inputs/two_point_space.json"
        mu = sampling.random_rational_measure(2, rng)
        nu = sampling.random_rational_measure(2, rng)
        mu_path = scratch / f"mu-{seed}.json"
        nu_path = scratch / f"nu-{seed}.json"
        mu_path.write_text(json.dumps({"weights": [q(w) for w in mu.weights]}))
        nu_path.write_text(json.dumps({"weights": [q(w) for w in nu.weights]}))
        rho_seed = str(rng.next_u64() >> 40)
        dyadic = "sample_inputs/dyadic_ifs.json"
        rho_args = ["rho", "--space", two, "--e", "sample_inputs/pvm_truth.json",
                    "--f", "sample_inputs/pvm_swapped.json"]
        self.commands = {
            "space": ["space", "--space", two],
            "kantorovich": ["kantorovich", "--space", two,
                            "--mu", str(mu_path.relative_to(root)), "--nu", str(nu_path.relative_to(root))],
            "hutchinson": ["hutchinson", "--ifs", dyadic, "--depth", "4"],
            "cuntz-verify": ["cuntz-verify", "--ifs", dyadic, "--depth", "5"],
            "rho-vertex": rho_args + ["--method", "vertex"],
            "rho-sphere": rho_args + ["--method", "sphere", "--seed", rho_seed],
            "rho-grid": rho_args + ["--method", "grid", "--seed", rho_seed],
            "verify-fixed-point": ["verify-fixed-point", "--ifs", dyadic, "--depth", "4"],
            "relate-verify": ["relate-verify", "--ifs", dyadic, "--depth", "3",
                              "--h", "sample_inputs/h_uniform.json"],
        }
        # phi-iterate, the slowest command, runs three times a cycle: the ten
        # slowest operations of a run, which bound the op tail, are then its own.
        for copy in ("phi-iterate", "phi-iterate-2", "phi-iterate-3"):
            self.commands[copy] = ["phi-iterate", "--ifs", dyadic, "--depth", "3", "--steps", "2"]
        self.kinds = tuple(self.commands)
        self.trace_path = scratch / f"cli-trace-{os.getpid()}.json"
        self.first: dict[tuple, bytes] = {}
        self.speed = 1.0
        self.reference_s = 0.0

    def _launch(self, argv, tracer):
        trace = "" if tracer is None else str(self.trace_path)
        proc = subprocess.run(
            [sys.executable, "-c", CLI_CODE, trace, *argv], cwd=self.root, capture_output=True, timeout=60
        )
        timing = json.loads(proc.stderr.decode().rstrip().rsplit("\n", 1)[-1])
        self.speed, self.reference_s = timing["speed"], timing["reference_s"]
        if tracer is not None and self.trace_path.exists():
            tracer.absorb(json.loads(self.trace_path.read_text()))
            self.trace_path.unlink()
        return proc

    def warm_up(self) -> None:
        proc = self._launch(self.commands["space"], None)
        check(proc.returncode == 0, "warm-up command failed")

    def op(self, i: int, tracer=None):
        kind, _ = self.input_index(i)
        proc = self._launch(self.commands[kind], tracer)
        check(proc.returncode == 0, f"{kind} exited {proc.returncode}: {proc.stderr[-300:]!r}")
        check(b"Traceback" not in proc.stderr, f"{kind} printed a traceback")
        report = json.loads(proc.stdout.decode().split("\n", 1)[0])
        check(report["verdict"] == "pass", f"{kind} verdict {report['verdict']}")
        first = self.first.setdefault(tuple(self.commands[kind]), proc.stdout)
        check(proc.stdout == first, f"{kind} report differs from the first run's")
        results = {k: v for k, v in report["results"].items() if not k.startswith("witness")}
        return [kind, report["verdict"], canonical(results)]


def make(name: str, seed: int, root: Path, scratch: Path) -> Workload:
    if name == "tower-certify":
        return TowerCertify(seed)
    if name == "operator-rho":
        return OperatorRho(seed)
    if name == "transport-exact":
        return TransportExact(seed)
    if name == "cli-small":
        return CliSmall(seed, root, scratch)
    raise KeyError(name)


WORKLOADS = ("tower-certify", "operator-rho", "transport-exact", "cli-small")
