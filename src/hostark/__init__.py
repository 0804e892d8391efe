"""s-wave Dirac bound states of a charged harmonic oscillator in a uniform
electric field, in the spin- and pseudospin-symmetry limits.

The package decouples the radial Dirac problem into a single second-order
equation per symmetry limit, reduces it with a Nikiforov-Uvarov engine,
turns the quantization condition into a cubic in the energy, selects the
physical root against the unsquared condition, and evaluates the matching
spinor components.  Bundled reference tables serve as regression targets.
"""

import importlib

# Each exported name and the submodule that defines it.  Names and submodules
# load on first access (PEP 562), so `import hostark` costs no NumPy.
_EXPORTS = {
    "model": (
        "DerivedConstants", "ModelParams", "SymmetryKind", "derived_constants",
        "eval_potential", "potential_curve",
    ),
    "nu": (
        "NoAdmissibleBranch", "NonPolynomialRoot", "NuError", "NuReduction", "Poly2",
        "inverted_oscillator_instance", "oscillator_instance", "quantize", "reduce",
    ),
    "reference": (
        "ComparisonReport", "ReferenceTable", "TableId", "UnknownTable", "compare",
        "load_reference",
    ),
    "spectra": (
        "BreakdownScan", "ChannelScalars", "CubicCoefficients", "CubicMethod",
        "CubicSolution", "DegenerateCubic", "EnergyLevel", "Equation", "NoSignChange",
        "Status", "bisection_oracle", "cubic_coefficients", "nr_pseudospin_level",
        "nr_spin_level", "pseudospin_breakdown_threshold", "relativistic_ho_level",
        "select_physical_root", "solve_cubic_cardano", "solve_level", "spectrum_grid",
    ),
    "wavefunctions": (
        "ConstantsUndefined", "RadialFunction", "RadialKind", "ShapeConstants",
        "SingularAtOrigin", "count_nodes", "g_deviation_report",
        "lower_spinor_G", "lower_spinor_G_closed_form", "mean_radius", "nr_radial_R",
        "pseudo_lower_G", "sample_radial", "shape_constants", "upper_spinor_F",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_MODULE_OF]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
