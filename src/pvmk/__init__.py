"""Kantorovich-type metrics on measures and operator valued measures over
contractive interval IFS towers, with exact certificates at desk scale.

Submodules load lazily, so a command runs only the modules its code reaches.
``import pvmk`` runs none of them: it registers each library module in
``sys.modules`` through ``importlib.util.LazyLoader`` (the recipe of the
``importlib`` documentation), and a registered module runs on the first read
of one of its attributes.  A name in ``__all__`` is read from its home module
by the package's ``__getattr__`` (PEP 562), so ``pvmk.rho_exact`` runs
``pvmk.rho`` and what it imports, and nothing else.

The modules stay registered, rather than being imported inside the functions
that use them, so that after ``import pvmk.cli`` every layer is in
``sys.modules`` for a tool that wraps its functions in place (the
benchmark's tracer does).  Modules reach the layers they may skip as module
references (``from . import ovm``, then ``ovm.diagonal_pvm``), so a function
replaced in its home module is the one every caller gets.
"""

import importlib.util
import sys

# Home module -> the names the package exports from it, in ``__all__`` order.
_EXPORTS = {
    "metric_core": (
        "FiniteMetricSpace",
        "Lip1VertexSet",
        "LipschitzFunction",
        "audit_space",
        "certify_lipschitz",
        "lip1_vertices",
        "lip_constant",
        "validate_space",
    ),
    "transport": ("ProbMeasure", "TransportResult", "kantorovich", "kantorovich_dual_oracle"),
    "ifs": (
        "CylinderTower",
        "IfsSystem",
        "build_tower",
        "contraction_ratio_scalar",
        "dyadic_ifs",
        "hutchinson_fixed",
        "hutchinson_step",
        "make_ifs",
        "triadic_ifs",
    ),
    "cuntz": (
        "branch_maps",
        "build_cuntz_tower",
        "cuntz_verify",
        "cylinder_projection",
        "multiplication_pvm",
    ),
    "ovm": (
        "OperatorValuedMeasure",
        "conjugate",
        "diagonal_pvm",
        "frame_pvm",
        "integrate",
        "polarize",
        "representation_check",
        "scalar_measure",
        "validate_ovm",
    ),
    "rho": (
        "RhoResult",
        "metric_axiom_suite",
        "rho_exact",
        "rho_lower_grid",
        "rho_lower_sphere",
        "topology_bounds",
    ),
    "fixed_point": (
        "PhiTrace",
        "contraction_ratio_rho",
        "phi_iterate",
        "phi_step",
        "relate_verify",
        "verify_fixed_point",
    ),
    "rng": ("SplitMix64",),
}

# The library modules.  ``schemas``, ``cli`` and ``acceptance`` load on
# import, as the front ends that need them import them.
_LAZY = ("errors", "rationals", "rng", "linalg", "metric_core", "transport", "sampling",
         "ifs", "ovm", "cuntz", "rho", "fixed_point")

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_HOME)


def _register(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _name in _LAZY:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
