import itertools

import numpy as np
import pytest

import qincompat.assemblage
from qincompat import (
    AssemblageLabel,
    VerdictKind,
    classify,
    make_depolarizing,
    make_schur,
)


def test_three_copies_strong_incompatible():
    chans = [make_depolarizing(2, 0.75)] * 3
    report = classify(chans, 2)
    # each pair has 2 * 0.75^2 = 1.125 > 1
    assert AssemblageLabel.NK_INCOMPATIBLE in report.labels
    assert AssemblageLabel.NK_STRONG_INCOMPATIBLE in report.labels
    assert len(report.subset_verdicts) == 3
    for v in report.subset_verdicts.values():
        assert v.kind is VerdictKind.INCOMPATIBLE_CERTIFIED


def test_three_copies_oracle_compatible():
    chans = [make_depolarizing(2, 0.6)] * 3
    report = classify(chans, 2, use_oracle=True)
    assert AssemblageLabel.NK_COMPATIBLE in report.labels
    # triple level: 3 * 0.36 = 1.08 > 1, so genuinely incompatible one level up
    assert AssemblageLabel.NK1_GENUINELY_INCOMPATIBLE in report.labels
    assert AssemblageLabel.NK1_GENUINELY_STRONG_INCOMPATIBLE in report.labels
    assert len(report.higher_verdicts) == 1


def test_oracle_runtime_error_keeps_criterion_verdict(monkeypatch):
    def broken_oracle(*args, **kwargs):
        raise RuntimeError("barrier iterate left the feasible cone")

    chans = [make_depolarizing(2, 0.6)] * 3
    plain = classify(chans, 2)
    monkeypatch.setattr(qincompat.assemblage, "solve_joint_channel", broken_oracle)
    report = classify(chans, 2, use_oracle=True)
    assert report.labels == plain.labels
    for subset, v in report.subset_verdicts.items():
        before = plain.subset_verdicts[subset]
        assert v.kind is before.kind is VerdictKind.UNDETERMINED
        assert v.value == before.value
        assert v.certificate == (
            before.certificate + "; oracle error: barrier iterate left the feasible cone"
        )


def test_oracle_over_budget_keeps_criterion_verdict(monkeypatch):
    # pairs cost m * D^2 = 28 * 8^2 = 1,792, the triple 40 * 16^2 = 10,240
    monkeypatch.setattr(qincompat.sdp, "ORACLE_BUDGET", 5000)
    chans = [make_depolarizing(2, 0.5)] * 3
    report = classify(chans, 2, use_oracle=True)
    assert report.labels == {AssemblageLabel.NK_COMPATIBLE}
    (triple, verdict), = report.higher_verdicts.items()
    before = classify(chans, 3).subset_verdicts[triple]
    # criterion value 1 + 3 * 0.5^2 = 1.75 < 2 leaves the triple open
    assert verdict.kind is before.kind is VerdictKind.UNDETERMINED
    assert verdict.value == before.value
    assert verdict.certificate == (
        before.certificate + "; oracle skipped: oracle over factors of dimensions "
        "(2, 2, 2, 2) has m = 40 fixed strings of dimension D = 16: m * D^2 = 10240 "
        "is over the oracle budget 5000"
    )


def test_mixed_tuple_incompatible_but_not_strong():
    ts = (1.0, 0.1, 0.1)
    chans = [make_depolarizing(2, t) for t in ts]
    report = classify(chans, 2)
    assert AssemblageLabel.NK_INCOMPATIBLE in report.labels
    assert AssemblageLabel.NK_STRONG_INCOMPATIBLE not in report.labels
    assert report.subset_verdicts[(0, 1)].kind is VerdictKind.INCOMPATIBLE_CERTIFIED
    assert report.subset_verdicts[(1, 2)].kind is VerdictKind.UNDETERMINED
    assert (1, 2) in report.undetermined_subsets


def test_classify_k_range():
    with pytest.raises(ValueError, match="out of range"):
        classify([make_depolarizing(2, 0.5)], 2)


def test_permutation_invariance():
    ts = (0.9, 0.3, 0.8)
    chans = [make_depolarizing(2, t) for t in ts]
    rep = classify(chans, 2)
    perm = [2, 0, 1]
    rep_p = classify([chans[i] for i in perm], 2)
    assert rep.labels == rep_p.labels
    # verdict of subset {i, j} matches the permuted subset
    for subset, v in rep.subset_verdicts.items():
        moved = tuple(sorted(perm.index(i) for i in subset))
        assert rep_p.subset_verdicts[moved].kind == v.kind


def test_downward_closure_with_oracle():
    # compatible at K = 3 implies compatible at K = 2
    chans = [make_depolarizing(2, 0.4)] * 3
    rep3 = classify(chans, 3, use_oracle=True)
    assert AssemblageLabel.NK_COMPATIBLE in rep3.labels
    rep2 = classify(chans, 2, use_oracle=True)
    assert AssemblageLabel.NK_COMPATIBLE in rep2.labels


def test_criterion_flip_matches_closed_form():
    # strong incompatibility flips at t = 1/sqrt(K) for identical channels
    k = 2
    thresh = 1.0 / np.sqrt(k)
    for t, expect in [(thresh - 1e-3, False), (thresh + 1e-3, True)]:
        chans = [make_depolarizing(2, t)] * 3
        rep = classify(chans, k)
        assert (AssemblageLabel.NK_STRONG_INCOMPATIBLE in rep.labels) is expect


def test_repeated_channels_are_solved_once_in_order(monkeypatch):
    # the first channel is perfectly readable in the canonical basis, the
    # second is not, so the criterion value depends on the order of a pair
    a = make_schur(np.array([[1.0, 0.2], [0.2, 1.0]]))
    b = make_schur(np.array([[1.0, 0.9], [0.9, 1.0]]))
    chans = [a, b, a, b]
    fresh = {
        s: qincompat.assemblage._decide_subset([chans[i] for i in s], False)
        for s in itertools.combinations(range(4), 2)
    }
    assert fresh[(0, 1)].value != fresh[(1, 2)].value

    solves = []
    decide = qincompat.assemblage._decide_subset
    monkeypatch.setattr(qincompat.assemblage, "_decide_subset",
                        lambda c, o: solves.append(None) or decide(c, o))
    report = classify(chans, 2)
    # distinct ordered pairs: (a, b), (a, a), (b, a), (b, b)
    assert len(solves) == 4
    assert report.subset_verdicts == fresh
