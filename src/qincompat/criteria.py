"""Decision procedures for channel and measurement incompatibility.

The trace-threshold criterion is one-sided: a dual lower bound on the SDP
optimum strictly above the dimension certifies incompatibility, while
anything else stays undetermined.  Certified compatibility only ever comes
from a feasible joint-channel witness produced by the exact oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .channels import make_schur, shared_dimension
from .fisher import (
    beta,
    canonical_basis,
    fourier_basis,
    g_matrix,
    g_matrix_povm,
    is_prime,
    mub_family,
)
from .sdp import (
    DOMINATION_GAP_TOL,
    FEASIBLE_BAND,
    DominationProblem,
    Feasibility,
    FeasibilityResult,
    SolverStatus,
    solve_domination,
)

# Closed-form criteria are exact; this only guards float round-off.
ANALYTIC_EPS = 1e-12


class VerdictKind(Enum):
    INCOMPATIBLE_CERTIFIED = "incompatible-certified"
    COMPATIBLE_CERTIFIED = "compatible-certified"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision procedure.

    ``value`` is the criterion SDP value when one was computed, and
    ``certificate`` a human readable account of the evidence (bases, SDP
    value and dual bound, oracle optimum).
    """

    kind: VerdictKind
    value: float | None
    certificate: str


def select_bases(d: int, count: int):
    """Default measurement bases for a criterion run, with labels.

    Uses a mutually unbiased family when the dimension is prime and no more
    than d + 1 bases are needed (its first two members are the canonical
    and Fourier bases, which is the right pair for Schur channels).
    Otherwise the canonical and Fourier bases are cycled.  Callers with
    better problem knowledge should pass explicit bases instead.
    """
    if count < 1:
        raise ValueError("at least one basis is required")
    if is_prime(d) and count <= d + 1:
        names = ["canonical", "fourier"] + [f"mub-{k}" for k in range(2, d + 1)]
        return list(mub_family(d)[:count]), names[:count]
    pair, names = [canonical_basis(d), fourier_basis(d)], ["canonical", "fourier"]
    return [pair[i % 2] for i in range(count)], [names[i % 2] for i in range(count)]


def _criterion_verdict(d: int, gs, context: str, sdp_gap: float):
    """Solve the criterion SDP and certify when its dual bound exceeds d."""
    result = solve_domination(DominationProblem(gs), gap_tol=sdp_gap)
    if result.status is not SolverStatus.OPTIMAL:
        return Verdict(
            VerdictKind.UNDETERMINED,
            None,
            f"criterion SDP did not converge ({result.status.value}, "
            f"gap {result.gap:.2e})",
        )
    cert = (
        f"criterion SDP value {result.value:.9f}, dual bound "
        f"{result.lower_bound:.9f} vs threshold {d} "
        f"({context}; solver gap {result.gap:.1e})"
    )
    if result.lower_bound > d:
        return Verdict(VerdictKind.INCOMPATIBLE_CERTIFIED, result.value, cert)
    return Verdict(VerdictKind.UNDETERMINED, result.value, cert)


def zhu_criterion_channels(
    channels,
    bases,
    *,
    basis_labels=None,
    sdp_gap: float = DOMINATION_GAP_TOL,
) -> Verdict:
    """Fisher-information incompatibility criterion for channels.

    Builds one G-matrix per (channel, basis) pair and minimizes Tr H over
    common dominators H.  A dual lower bound on that minimum strictly above
    d certifies that no joint channel exists; ``sdp_gap`` is the target for
    the distance between the SDP value and that bound.
    """
    channels = list(channels)
    bases = list(bases)
    if len(channels) != len(bases):
        raise ValueError(
            f"got {len(channels)} channels but {len(bases)} bases"
        )
    d = shared_dimension(channels)
    if basis_labels is None:
        basis_labels = [f"basis-{i}" for i in range(len(bases))]

    gs = [g_matrix(c, e) for c, e in zip(channels, bases)]
    return _criterion_verdict(
        d, gs, f"bases: {', '.join(basis_labels)}", sdp_gap
    )


def zhu_criterion_povms(povms) -> Verdict:
    """Fisher-information incompatibility criterion for POVMs."""
    povms = list(povms)
    d = shared_dimension(povms, "POVM")
    gs = [g_matrix_povm(p) for p in povms]
    return _criterion_verdict(d, gs, f"{len(povms)} POVMs", DOMINATION_GAP_TOL)


def _schur_ellipse(s: float, t: float, beta_b: float, beta_c: float):
    """Terms s^2 + beta_C t^2 and beta_B s^2 + t^2, and whether both are <= 1."""
    lhs1 = s * s + beta_c * t * t
    lhs2 = beta_b * s * s + t * t
    return lhs1, lhs2, max(lhs1, lhs2) <= 1.0 + ANALYTIC_EPS


def schur_pair_criterion(b, c, s: float, t: float) -> Verdict:
    """Analytic incompatibility test for two noise-scaled Schur channels.

    The channels are s * (B o X) + (1-s) * Delta and the same with (C, t).
    Measuring one in the canonical and the other in the Fourier basis makes
    the criterion SDP value analytic, and it exceeds the threshold exactly
    when s^2 + beta(C) t^2 > 1 or beta(B) s^2 + t^2 > 1.
    """
    # constructing the channels validates PSD and the unit diagonal
    d = shared_dimension([make_schur(b), make_schur(c)])
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise ValueError(f"noise parameters must lie in [0, 1], got s={s}, t={t}")
    beta_b, beta_c = beta(b), beta(c)
    lhs1, lhs2, inside = _schur_ellipse(s, t, beta_b, beta_c)
    lhs = max(lhs1, lhs2)
    value = 1.0 + (d - 1) * lhs
    orientation = "canonical/fourier" if lhs1 >= lhs2 else "fourier/canonical"
    cert = (
        f"ellipse test max(s^2 + {beta_c:.6f} t^2, {beta_b:.6f} s^2 + t^2) "
        f"= {lhs:.9f} vs 1 ({orientation})"
    )
    if not inside:
        return Verdict(VerdictKind.INCOMPATIBLE_CERTIFIED, value, cert)
    return Verdict(VerdictKind.UNDETERMINED, value, cert)


def depolarizing_criterion(d: int, ts) -> Verdict:
    """Analytic incompatibility test for depolarizing channels.

    Over a mutually unbiased family the criterion SDP value is
    1 + (d - 1) * sum(t_i^2), so the channels are certified incompatible
    exactly when sum(t_i^2) > 1.
    """
    ts = [float(t) for t in ts]
    n = len(ts)
    if not is_prime(d):
        raise ValueError(
            f"d={d} is not prime, no unbiased family is constructed; "
            "use zhu_criterion_channels with explicit bases instead"
        )
    if n > d + 1:
        raise ValueError(
            f"{n} channels exceed the {d + 1} available unbiased bases; "
            "use zhu_criterion_channels with explicit bases instead"
        )
    if any(not 0.0 <= t <= 1.0 for t in ts):
        raise ValueError(f"noise parameters must lie in [0, 1], got {ts}")
    total = float(sum(t * t for t in ts))
    value = 1.0 + (d - 1) * total
    cert = f"sum of squared noise parameters {total:.9f} vs 1 over {n} unbiased bases"
    if total > 1.0 + ANALYTIC_EPS:
        return Verdict(VerdictKind.INCOMPATIBLE_CERTIFIED, value, cert)
    return Verdict(VerdictKind.UNDETERMINED, value, cert)


def exact_depolarizing_pair(d: int, s: float, t: float) -> bool:
    """Exact compatibility of two depolarizing channels.

    True iff t + s - (2/d) sqrt((1-t)(1-s)) <= 1, the known necessary and
    sufficient condition.
    """
    if d < 2:
        raise ValueError(f"dimension d={d} must be at least 2")
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise ValueError(f"noise parameters must lie in [0, 1], got s={s}, t={t}")
    lhs = t + s - (2.0 / d) * math.sqrt((1.0 - t) * (1.0 - s))
    return lhs <= 1.0 + ANALYTIC_EPS


def self_compat_threshold(d: int) -> float:
    """Largest t for which the depolarizing channel is compatible with itself."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return (d + 2.0) / (2.0 * (d + 1.0))


def oracle_verdict(result: FeasibilityResult) -> Verdict:
    """Wrap an oracle outcome as a Verdict (the only source of compatibility).

    The certificate cites the evidence the status rests on: the witness's
    attained ``lambda*`` for FEASIBLE, the dual bound ``lambda* + gap`` for
    INFEASIBLE, and the whole bracket for MARGINAL.
    """
    lam, bound = result.lambda_star, result.lambda_star + result.gap
    if result.status is Feasibility.FEASIBLE:
        cert = f"oracle witness lambda* = {lam:.3e} >= band = {FEASIBLE_BAND:.0e}"
        return Verdict(VerdictKind.COMPATIBLE_CERTIFIED, None, cert)
    if result.status is Feasibility.INFEASIBLE:
        cert = (
            f"oracle dual bound lambda* + gap = {bound:.3e} "
            f"<= -band = {-FEASIBLE_BAND:.0e}"
        )
        return Verdict(VerdictKind.INCOMPATIBLE_CERTIFIED, None, cert)
    cert = (
        f"oracle bracket lambda* in [{lam:.3e}, {bound:.3e}] "
        f"meets the band +-{FEASIBLE_BAND:.0e} (marginal)"
    )
    return Verdict(VerdictKind.UNDETERMINED, None, cert)
