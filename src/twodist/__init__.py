"""Linear-programming bounds and certified constructions for spherical two-distance sets.

Public names load on first use (PEP 562): ``import twodist`` imports neither
numpy nor a submodule, and ``twodist.<name>`` is looked up in its submodule
on every access, so it is always the object that submodule holds.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "gegenbauer": ("GegenbauerExpansion", "as_monomial", "from_gegenbauer", "gegenbauer_eval",
                   "gegenbauer_poly", "to_gegenbauer"),
    "bound_polys": ("CandidateBound", "DelsarteCheck", "InnerProductPair", "best_bound",
                    "build_candidate", "candidate_values", "candidates", "delsarte_check"),
    "lrs": ("KSlice", "ProfileSample", "TableRow", "b_k", "g_upper", "interval", "k_max", "k_slice",
            "omega_hat", "omega_hat_nk", "phi", "profile", "q_bound", "rho", "table"),
    "constructions": ("TwoDistanceCertificate", "UnitPointSet", "gram_check", "independence_rank",
                      "lambda_params", "lambda_set", "verify_two_distance"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
