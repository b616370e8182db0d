"""Certificates and bounds for tour relaxations on grouped 0/1 instances.

The package constructs explicit feasible points ("certificates") for three
semidefinite relaxations of the traveling salesperson problem on simplicial
instances (vertices in groups, distance 0 inside a group and 1 across),
verifies them blockwise and against dense oracles, and evaluates the bounds
they certify: integrality-gap lower bounds that grow without limit with the
group count, and a non-monotonicity effect where adding a vertex lowers the
relaxation value.  Exact-TSP and subtour-LP baselines sit alongside for
contrast.
"""

from .anstreicher_sdp import AnstreicherReport, shifted_spectrum, verify_anstreicher
from .certificates import (
    CertificateY,
    CertSpectrum,
    FeasibilityReport,
    assemble,
    closed_form_spectrum,
    dense_view,
    objective_dense_trace,
    objective_povh_rendl,
    verify_povh_rendl,
)
from .circulant import cosine_profile, identity_suite
from .instances import (
    SimplicialInstance,
    held_karp_cycle,
    make_equal,
    make_one_extra,
)
from .matrix_core import ConvergenceError, SizeLimitError, dense_cap, sym_eigs
from .reduced_sdp import (
    GapRecord,
    Reduction,
    asymptote_value,
    bound_constants,
    build_reduction,
    gap_table,
    objective_reduced,
    one_extra_bound,
)
from .sdp_numeric import (
    NonMonotonicityReport,
    SdpProblem,
    SdpSolution,
    encode_reduced,
    lift_upper_bound,
    nonmonotonicity_check,
)
from .sdp_numeric import solve as solve_sdp
from .subtour_lp import LpEdgeSolution, min_cut, solve_subtour

__version__ = "0.1.0"

__all__ = [
    "AnstreicherReport",
    "CertSpectrum",
    "CertificateY",
    "ConvergenceError",
    "FeasibilityReport",
    "GapRecord",
    "LpEdgeSolution",
    "NonMonotonicityReport",
    "Reduction",
    "SdpProblem",
    "SdpSolution",
    "SimplicialInstance",
    "SizeLimitError",
    "assemble",
    "asymptote_value",
    "bound_constants",
    "build_reduction",
    "closed_form_spectrum",
    "cosine_profile",
    "dense_cap",
    "dense_view",
    "encode_reduced",
    "gap_table",
    "held_karp_cycle",
    "identity_suite",
    "lift_upper_bound",
    "make_equal",
    "make_one_extra",
    "min_cut",
    "nonmonotonicity_check",
    "objective_dense_trace",
    "objective_povh_rendl",
    "objective_reduced",
    "one_extra_bound",
    "shifted_spectrum",
    "solve_sdp",
    "solve_subtour",
    "sym_eigs",
    "verify_anstreicher",
    "verify_povh_rendl",
]
