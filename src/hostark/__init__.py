"""s-wave Dirac bound states of a charged harmonic oscillator in a uniform
electric field, in the spin- and pseudospin-symmetry limits.

The package decouples the radial Dirac problem into a single second-order
equation per symmetry limit, reduces it with a Nikiforov-Uvarov engine,
turns the quantization condition into a cubic in the energy, selects the
physical root against the unsquared condition, and evaluates the matching
spinor components.  Bundled reference tables serve as regression targets.
"""

from .model import (
    DerivedConstants,
    ModelParams,
    SymmetryKind,
    combined_potential,
    derived_constants,
    eval_potential,
    potential_curve,
)
from .nu import (
    NoAdmissibleBranch,
    NonPolynomialRoot,
    NuError,
    NuReduction,
    Poly2,
    inverted_oscillator_instance,
    oscillator_instance,
    quantize,
    reduce,
)
from .reference import (
    ComparisonReport,
    ReferenceTable,
    TableId,
    UnknownTable,
    compare,
    load_reference,
)
from .spectra import (
    BreakdownScan,
    ChannelScalars,
    CubicCoefficients,
    CubicMethod,
    CubicSolution,
    DegenerateCubic,
    EnergyLevel,
    Equation,
    NoSignChange,
    Status,
    bisection_oracle,
    cubic_coefficients,
    nr_pseudospin_level,
    nr_spin_level,
    pseudospin_breakdown_threshold,
    relativistic_ho_level,
    select_physical_root,
    solve_cubic_cardano,
    solve_level,
    spectrum_grid,
)
from .wavefunctions import (
    ConstantsUndefined,
    RadialFunction,
    RadialKind,
    ShapeConstants,
    SingularAtOrigin,
    assoc_laguerre,
    count_nodes,
    g_deviation_report,
    hermite,
    lower_spinor_G,
    lower_spinor_G_closed_form,
    mean_radius,
    nr_radial_R,
    pseudo_lower_G,
    realness_defect,
    sample_radial,
    shape_constants,
    upper_spinor_F,
)

__version__ = "0.1.0"
