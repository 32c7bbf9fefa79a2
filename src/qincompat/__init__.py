"""Decide and certify incompatibility of tuples of quantum channels.

A fast necessary criterion compares Fisher-information matrices of induced
measurements against a trace threshold on a d^2-dimensional SDP; an exact
joint-channel feasibility oracle of dimension d^(N+1) cross-checks it on
small instances.  Analytic shortcuts cover Schur and depolarizing
channels, and a region scanner maps compatibility boundaries.
"""

__version__ = "0.1.0"

from .linalg import partial_trace, vec
from .channels import (
    Channel,
    ChannelValidationError,
    Povm,
    PovmValidationError,
    adjoint_apply,
    channel_from_spec,
    induced_povm,
    make_depolarizing,
    make_identity,
    make_schur,
    marginal_channel,
    povm_from_spec,
)
from .fisher import (
    beta,
    canonical_basis,
    fourier_basis,
    g_matrix,
    g_matrix_povm,
    mub_family,
    omega,
    orthogonal_modulo_omega,
    z_matrix,
)
from .sdp import (
    DominationProblem,
    Feasibility,
    FeasibilityResult,
    SdpResult,
    SolverStatus,
    solve_domination,
    solve_joint_channel,
    solve_povm_joint,
)
from .criteria import (
    Verdict,
    VerdictKind,
    depolarizing_criterion,
    exact_depolarizing_pair,
    schur_pair_criterion,
    select_bases,
    self_compat_threshold,
    zhu_criterion_channels,
    zhu_criterion_povms,
)
from .assemblage import AssemblageLabel, AssemblageReport, classify
from .region import (
    RayResult,
    RegionReport,
    emit_figure1_data,
    emit_figure2_data,
    scan_rays,
)

__all__ = [
    "AssemblageLabel",
    "AssemblageReport",
    "Channel",
    "ChannelValidationError",
    "DominationProblem",
    "Feasibility",
    "FeasibilityResult",
    "Povm",
    "PovmValidationError",
    "RayResult",
    "RegionReport",
    "SdpResult",
    "SolverStatus",
    "Verdict",
    "VerdictKind",
    "adjoint_apply",
    "beta",
    "canonical_basis",
    "channel_from_spec",
    "classify",
    "depolarizing_criterion",
    "emit_figure1_data",
    "emit_figure2_data",
    "exact_depolarizing_pair",
    "fourier_basis",
    "g_matrix",
    "g_matrix_povm",
    "induced_povm",
    "make_depolarizing",
    "make_identity",
    "make_schur",
    "marginal_channel",
    "mub_family",
    "omega",
    "orthogonal_modulo_omega",
    "partial_trace",
    "povm_from_spec",
    "scan_rays",
    "schur_pair_criterion",
    "select_bases",
    "self_compat_threshold",
    "solve_domination",
    "solve_joint_channel",
    "solve_povm_joint",
    "vec",
    "z_matrix",
    "zhu_criterion_channels",
    "zhu_criterion_povms",
]
