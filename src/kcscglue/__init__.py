"""Exact feasibility checks for Kcsc gluing on toric orbifolds.

Classifies isolated toric quotient singularities, computes moment
polytopes, decides the balancing conditions for gluing in Ricci-flat or
scalar-flat ALE models, and evaluates the closed-form gluing constants and
the mode-wise Dirichlet-to-Neumann matching data -- all in exact rational
arithmetic.
"""

__version__ = "0.1.0"

from .exact_linalg import (
    RationalMatrix,
    SnfResult,
    nullspace_basis,
    positive_kernel_witness,
    rank,
    smith_normal_form,
)
from .toric_lattice import (
    Cone,
    Fan,
    GroupPresentation,
    classify,
    classify_fan,
    cone_index,
    is_gorenstein,
    quotient_action,
    validate_fan,
)
from .polytope import (
    LatticePolytope,
    anticanonical_polytope,
    faces,
    moment_assignment,
    polytope_barycenter,
    subset_barycenter,
    vertex_for_cone,
)
from .balancing import (
    BalancingReport,
    Certificate,
    PiRational,
    SingularPointRecord,
    build_theta,
    build_xi,
    check_certificate,
    leading_coefficients,
    model_constants,
    solve_ricci_flat_balancing,
    solve_scalar_flat_balancing,
)
from .spectral import (
    eigenvalue,
    first_invariant_index,
    invariant_harmonic_dimension,
)
from .biharmonic import ModeMatrix, dtn_inverse, dtn_mode_matrix
from .formats import FanFile, OrbifoldFile, ParseError, parse_fan, parse_orbifold
from .examples import EmbeddedExample, embedded_examples
