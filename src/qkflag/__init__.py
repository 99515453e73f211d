"""Exact Schubert calculus for the incidence variety Fl(1, n-1).

Classical K-ring and Chow products, the small quantum K multiplication
table over the Novikov ring Z[Q1,Q2], verification sweeps (positivity,
ring axioms, classical limit, degree bounds), correlator closed forms,
the conjectural closed product formula, and balanced-flag combinatorics.

``import qkflag`` loads no submodule: each public name, and each submodule
as ``qkflag.<module>``, is imported on first access (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it, in the order of __all__
_EXPORTS = {
    "SchubertIndex": "basis", "NovikovPolynomial": "poly", "QKClass": "poly", "CurveDegree": "poly",
    "MultiplicationTable": "qkring", "enumerate_basis": "basis", "linear_index": "basis",
    "from_linear": "basis", "length": "basis", "codim": "basis", "dual_index": "basis",
    "k_product": "kring", "k_class_product": "kring", "chow_product": "kring",
    "build_table": "qkring", "qk_product": "qkring", "chevalley_apply": "qkring",
    "quantum_correction": "qkring", "degree_bound_check": "qkring",
}
_MODULES = frozenset("basis cli conjecture correlators errors flags kring poly qkring verify".split())

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
