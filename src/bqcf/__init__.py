"""Numerical laboratory for blended force-based atomistic/continuum coupling.

Builds the linearized atomistic, local continuum (Cauchy-Born), and blended
force-based operators on periodic chains and triangular lattices, checks
their summation-by-parts decompositions and error-term bounds, and measures
coercivity constants and blending-width thresholds by generalized eigenvalue
computation and parameter sweeps.
"""

from .lattice1d import Chain1D, diff, inner, norms, project_zero_mean
from .lattice2d import TriLattice2D, Regions2D, make_regions
from .potentials import (
    PairModel1D,
    PairModel2D,
    RadialPotential,
    c0,
    harmonic,
    hessians_from_radial,
    lennard_jones,
    model_1d_from_radial,
    morse,
    radial_hessian,
)
from .blend import (
    Blend1D,
    Blend2D,
    blend_from_samples,
    build_blend_1d,
    build_blend_2d,
    derivative_bounds,
    third_diff_level_set,
)
from .ops1d import (
    DivForm1D,
    Op1D,
    apply_op,
    divergence_form,
    quad_form,
    rst_bounds,
    sharpness_test_function,
)
from .ops2d import (
    BondForm,
    Op2D,
    apply2d,
    apply_ltilde,
    assemble_ltilde,
    divergence_form_2d,
    poincare_discrete,
    rs_bounds_2d,
)
from .spectral import SparseOp, StabilityReport, assemble, coercivity, gram_D
from .config import ConfigError, ModelRangeError, format_value
from .experiments import (
    ProbeResult,
    SweepRow,
    ThresholdFit,
    TraceSample,
    construct_layer_sets,
    run,
    sample_constant,
    sample_log,
    sample_poly,
    sharpness_probe_1d,
    sharpness_probe_2d,
    sweep_threshold_1d,
    sweep_threshold_2d,
    trace_check,
    unstable_toy_model,
)

__version__ = "0.1.0"
