"""Spans and work counters around the public functions of each pvmk layer.

Nothing in the package changes: ``Tracer.install`` replaces the listed
functions with timing wrappers, both as attributes of their own module and
wherever another pvmk module bound them with ``from .x import y``, so a
call made inside the package nests under the call that made it.

A span is ``(id, parent_id, name, start, end)`` with ``perf_counter``
times; spans stay in memory until ``summary`` folds them into per-function
and per-module self times.  Counters are computed at the same boundaries
from each call's inputs and outputs, never from timings, so they repeat
exactly for the same inputs.  Byte counters are computed from array shapes
and dtypes, not measured.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Layer (module) -> public functions wrapped in a traced run.
LAYERS = {
    "ifs": ("build_tower", "hutchinson_step"),
    "ovm": ("validate_ovm", "measure_of", "conjugate"),
    "cuntz": (
        "build_cuntz_tower",
        "cuntz_verify",
        "multiplication_pvm",
        "cylinder_projection",
        "prefix_atoms",
    ),
    "fixed_point": ("phi_step", "phi_iterate", "verify_fixed_point", "relate_verify"),
    "metric_core": ("lip1_vertices",),
    "linalg": ("spectral_norms_stack", "eigendecomposition", "min_eigenvalue", "gram_rank"),
    "rho": ("rho_exact", "rho_lower_sphere", "rho_lower_grid"),
    "transport": ("kantorovich", "kantorovich_dual_oracle"),
    "cli": ("run",),
}

# Point counts reported separately for metric_core.vertices.
VERTEX_POINT_COUNTS = range(2, 9)

COUNTERS = (
    "ifs.cells",
    "ifs.dist_entries",
    "ovm.matrix_entries",
    "ovm.matrix_bytes_computed",
    "ovm.pair_products",
    "metric_core.vertices",
    *(f"metric_core.vertices.n{n}" for n in VERTEX_POINT_COUNTS),
    "transport.support_cells",
    "linalg.eigen_rows",
    "fixed_point.words_checked",
    "rho.vertices_scored",
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_build_tower(c, args, kwargs, tower):
    sizes = [len(level.words) for level in tower.levels]
    c["ifs.cells"] += sum(sizes)
    c["ifs.dist_entries"] += sum(n * n for n in sizes)


def _count_validate_ovm(c, args, kwargs, ovm):
    atoms = len(ovm.mats)
    entries = atoms * ovm.dim * ovm.dim
    c["ovm.matrix_entries"] += entries
    c["ovm.matrix_bytes_computed"] += entries * ovm.mats[0].dtype.itemsize
    if ovm.kind == "projection":
        c["ovm.pair_products"] += atoms * (atoms - 1) // 2


def _count_lip1_vertices(c, args, kwargs, verts):
    n = len(verts.vertices[0])
    c["metric_core.vertices"] += len(verts)
    if n in VERTEX_POINT_COUNTS:
        c[f"metric_core.vertices.n{n}"] += len(verts)


def _count_kantorovich(c, args, kwargs, result):
    mu = _arg(args, kwargs, 1, "mu")
    nu = _arg(args, kwargs, 2, "nu")
    c["transport.support_cells"] += len(mu.support()) * len(nu.support())


def _count_eigen_stack(c, args, kwargs, result):
    mats = list(_arg(args, kwargs, 0, "mats"))
    c["linalg.eigen_rows"] += len(mats) * (mats[0].shape[0] if mats else 0)


def _count_eigen_one(c, args, kwargs, result):
    c["linalg.eigen_rows"] += _arg(args, kwargs, 0, "mat").shape[0]


def _count_gram_rank(c, args, kwargs, result):
    c["linalg.eigen_rows"] += len(list(_arg(args, kwargs, 0, "vectors")))


def _count_verify_fixed_point(c, args, kwargs, report):
    c["fixed_point.words_checked"] += report.words_checked


def _count_rho_exact(c, args, kwargs, result):
    c["rho.vertices_scored"] += len(_arg(args, kwargs, 3, "vertices"))


COUNT_HOOKS = {
    "ifs.build_tower": _count_build_tower,
    "ovm.validate_ovm": _count_validate_ovm,
    "metric_core.lip1_vertices": _count_lip1_vertices,
    "transport.kantorovich": _count_kantorovich,
    "linalg.spectral_norms_stack": _count_eigen_stack,
    "linalg.eigendecomposition": _count_eigen_one,
    "linalg.min_eigenvalue": _count_eigen_one,
    "linalg.gram_rank": _count_gram_rank,
    "fixed_point.verify_fixed_point": _count_verify_fixed_point,
    "rho.rho_exact": _count_rho_exact,
}


def function_names():
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """In-memory span recorder; install once the package is imported."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[int] = [0]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, module, fn):
        hook = COUNT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[module] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import pvmk.cli  # noqa: F401  (imports every layer)

        package = [m for k, m in sorted(sys.modules.items()) if k == "pvmk" or k.startswith("pvmk.")]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"pvmk.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", mod_name, original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def absorb(self, other: dict) -> None:
        """Merge spans, counters and errors dumped by a traced subprocess."""
        offset = self._next_id
        top = max((s[0] for s in other["spans"]), default=0)
        for sid, parent, name, start, end in other["spans"]:
            self.spans.append((sid + offset, parent + offset if parent else 0, name, start, end))
        self._next_id += top + 1
        self.counters.update(other["counters"])
        self.errors.update(other["errors"])

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "errors": dict(self.errors),
        }

    def summary(self) -> dict:
        """Per-function calls and self seconds, per-module self seconds and
        errors, and every counter, all keyed by per-layer metric name."""
        child_time: Counter = Counter()
        for _sid, parent, _name, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for sid, _parent, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
        out: dict[str, float] = {}
        for mod, fns in LAYERS.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = self_s[name]
            out[f"{mod}.self_s"] = sum(self_s[f"{mod}.{fn}"] for fn in fns)
            out[f"{mod}.errors"] = self.errors[mod]
        for name in COUNTERS:
            out[name] = self.counters[name]
        return out

