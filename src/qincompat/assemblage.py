"""Classify N-tuples of channels by which K-subsets admit joint channels.

An N-tuple is (N,K)-compatible when every K-subset is compatible,
(N,K)-incompatible when at least one is not, and (N,K)-strong incompatible
when none is.  Genuine (K+1)-level labels additionally require oracle
confirmation of compatibility one level down; criterion evidence alone can
only certify the incompatible half.  Subsets the criterion leaves open are
surfaced as undetermined rather than silently counted either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .criteria import (
    Verdict,
    VerdictKind,
    oracle_verdict,
    select_bases,
    zhu_criterion_channels,
)
from .sdp import Feasibility, OracleBudgetError, solve_joint_channel


class AssemblageLabel(Enum):
    NK_COMPATIBLE = "(N,K)-compatible"
    NK_INCOMPATIBLE = "(N,K)-incompatible"
    NK_STRONG_INCOMPATIBLE = "(N,K)-strong-incompatible"
    NK1_GENUINELY_INCOMPATIBLE = "(N,K+1)-genuinely-incompatible"
    NK1_GENUINELY_STRONG_INCOMPATIBLE = "(N,K+1)-genuinely-strong-incompatible"


@dataclass(frozen=True)
class AssemblageReport:
    n: int
    k: int
    subset_verdicts: dict
    labels: frozenset
    higher_verdicts: dict = field(default_factory=dict)

    @property
    def undetermined_subsets(self):
        return tuple(
            s
            for s, v in self.subset_verdicts.items()
            if v.kind is VerdictKind.UNDETERMINED
        )


def _decide_subset(channels, use_oracle) -> Verdict:
    bases, labels = select_bases(channels[0].d, len(channels))
    verdict = zhu_criterion_channels(channels, bases, basis_labels=labels)
    if verdict.kind is VerdictKind.INCOMPATIBLE_CERTIFIED or not use_oracle:
        return verdict
    try:
        result = solve_joint_channel(channels)
    except RuntimeError as exc:
        return replace(verdict, certificate=f"{verdict.certificate}; oracle error: {exc}")
    except OracleBudgetError as exc:
        return replace(verdict, certificate=f"{verdict.certificate}; oracle skipped: {exc}")
    if result.status is Feasibility.MARGINAL:
        # keep whatever information the criterion produced
        return verdict
    return oracle_verdict(result)


def _same_channel(a, b) -> bool:
    return (a.d_in, a.d_out) == (b.d_in, b.d_out) and np.array_equal(a.choi, b.choi)


def classify(channels, k: int, use_oracle: bool = False) -> AssemblageReport:
    """Evaluate every K-subset and attach the hierarchy labels.

    Subsets are enumerated in lexicographic order.  With ``use_oracle`` the
    compatible half of the hierarchy (and the genuine (K+1) labels) can be
    resolved; without it only incompatibility certificates are produced.
    Subsets whose members are equal channel by channel are decided once.
    """
    channels = list(channels)
    n = len(channels)
    if not 1 <= k <= n:
        raise ValueError(f"subset size k={k} out of range for {n} channels")

    # bases are assigned by position, so equal channels in the same order
    # get the same verdict: each subset is keyed by the first equal member
    first = [
        next(j for j in range(i + 1) if _same_channel(channels[j], channels[i]))
        for i in range(n)
    ]
    memo = {}

    def decide(subset):
        key = tuple(first[i] for i in subset)
        if key not in memo:
            memo[key] = _decide_subset([channels[i] for i in subset], use_oracle)
        return memo[key]

    verdicts = {s: decide(s) for s in itertools.combinations(range(n), k)}

    labels = set()
    kinds = [v.kind for v in verdicts.values()]
    n_incomp = sum(1 for x in kinds if x is VerdictKind.INCOMPATIBLE_CERTIFIED)
    n_comp = sum(1 for x in kinds if x is VerdictKind.COMPATIBLE_CERTIFIED)
    if n_incomp >= 1:
        labels.add(AssemblageLabel.NK_INCOMPATIBLE)
    if n_incomp == len(verdicts):
        labels.add(AssemblageLabel.NK_STRONG_INCOMPATIBLE)
    nk_compatible = n_comp == len(verdicts)
    if nk_compatible:
        labels.add(AssemblageLabel.NK_COMPATIBLE)

    higher = {}
    if nk_compatible and k < n:
        for subset in itertools.combinations(range(n), k + 1):
            higher[subset] = decide(subset)
        h_kinds = [v.kind for v in higher.values()]
        h_incomp = sum(1 for x in h_kinds if x is VerdictKind.INCOMPATIBLE_CERTIFIED)
        if h_incomp >= 1:
            labels.add(AssemblageLabel.NK1_GENUINELY_INCOMPATIBLE)
        if h_incomp == len(higher):
            labels.add(AssemblageLabel.NK1_GENUINELY_STRONG_INCOMPATIBLE)

    return AssemblageReport(
        n=n,
        k=k,
        subset_verdicts=verdicts,
        labels=frozenset(labels),
        higher_verdicts=higher,
    )
