"""Differential oracle for the sibling-outlier audit.

``QuadraticGuard._audit_siblings`` is the audit as it was before the
one-summary pass: every sibling rebuilds the list of the others, re-asks
``is_quarantined`` for each and takes ``min`` and ``statistics.median`` of
it.  It and the real :class:`ReportGuard` are fed the same rounds of sibling
reports and must agree, after every audit, on each receiver's strikes, on
the event log and on who is quarantined.

Losses and levels come from small pools, so duplicates (tied minima, even
counts whose two middle levels differ) are the norm; thresholds are low
enough that a strike quarantines its sibling in the middle of a pass, and
``LOW_LOSS_FLOOR`` may exceed ``OUTLIER_MARGIN`` — the only regime in which
that changes what a *later* sibling of the same pass is struck for.  The
thresholds are :mod:`repro.control.guard` module constants; each run patches
the ones its script draws.
"""

from statistics import median
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.control import guard as guard_mod
from repro.control.guard import ReportGuard

SID = "S"


class QuadraticGuard(ReportGuard):
    """Reference: the O(k^2) body, verbatim (tests only)."""

    def _audit_siblings(self, siblings, now):
        g = guard_mod
        for key, rep in siblings:
            others = [
                r for k2, r in siblings
                if k2 != key and not self.is_quarantined(k2)
            ]
            if len(others) < g.MIN_SIBLINGS:
                continue
            floor_loss = min(r.loss_rate for r in others)
            med_level = median(r.level for r in others)
            if (
                rep.level >= med_level
                and rep.loss_rate < g.LOW_LOSS_FLOOR
                and floor_loss - rep.loss_rate > g.OUTLIER_MARGIN
            ):
                self._strike(key, "under_report", now)


LOSSES = [0.0, 0.0, 0.01, 0.04, 0.2, 0.2, 0.3, 0.5]
report = st.tuples(st.sampled_from(LOSSES), st.integers(min_value=0, max_value=4))


@st.composite
def audit_scripts(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    config = dict(
        min_siblings=draw(st.integers(min_value=1, max_value=3)),
        strike_threshold=draw(st.sampled_from([1.0, 2.0])),
        low_loss_floor=draw(st.sampled_from([0.05, 0.25, 0.6])),
        outlier_margin=draw(st.sampled_from([0.02, 0.15])),
    )
    quarantined = draw(st.sets(st.integers(min_value=0, max_value=k - 1)))
    rounds = draw(st.lists(st.lists(report, min_size=k, max_size=k), min_size=1, max_size=4))
    return config, sorted(quarantined), rounds


def run(guard_cls, config, quarantined, rounds):
    """State after each audit: strikes per key, event log, quarantined set,
    with the guard constants ``config`` names (lower case) patched."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in dict(max_strikes=4.0, rehab_intervals=2, **config).items():
            mp.setattr(guard_mod, name.upper(), value)
        return _run(guard_cls(), quarantined, rounds)


def _run(guard, quarantined, rounds):
    for i in quarantined:
        while not guard.is_quarantined((SID, i)):
            guard._strike((SID, i), "seeded", 0.0)
    trace = []
    for now, reports in enumerate(rounds, start=1):
        siblings = [((SID, i), SimpleNamespace(loss_rate=loss, level=level))
                    for i, (loss, level) in enumerate(reports)]
        guard._audit_siblings(siblings, float(now))
        guard._settle(float(now))
        trace.append((
            [guard.strikes(key) for key, _ in siblings],
            list(guard.events),
            sorted(guard.quarantined_keys()),
        ))
    return trace


# A's strike quarantines it mid-pass; with A gone B's floor is C's 0.5, not
# A's 0.0, so B is struck too — by both bodies or by neither.
@example((dict(min_siblings=1, strike_threshold=1.0, low_loss_floor=0.6, outlier_margin=0.15),
          [], [[(0.0, 2), (0.2, 2), (0.5, 2)]]))
# ... and with min_siblings=2 the same quarantine leaves B one sibling short.
@example((dict(min_siblings=2, strike_threshold=1.0, low_loss_floor=0.6, outlier_margin=0.15),
          [], [[(0.0, 2), (0.2, 2), (0.5, 2)]]))
# Even leave-one-out count with different middles (median 2.5 gates level 2),
# a tied minimum, and a pre-quarantined sibling whose 0.0 must not count.
@example((dict(min_siblings=1, strike_threshold=2.0, low_loss_floor=0.05, outlier_margin=0.15),
          [4], [[(0.0, 2), (0.2, 1), (0.2, 2), (0.3, 3), (0.0, 4)],
                [(0.0, 3), (0.2, 1), (0.2, 2), (0.3, 3), (0.0, 4)]]))
@given(audit_scripts())
@settings(deadline=None)
def test_one_summary_audit_equals_the_quadratic_body(script):
    config, quarantined, rounds = script
    assert run(ReportGuard, config, quarantined, rounds) == run(
        QuadraticGuard, config, quarantined, rounds)


def test_the_examples_do_exercise_a_mid_pass_quarantine():
    """The first two ``@example``s differ only in ``min_siblings`` and only
    through the quarantine A earns mid-pass: B is struck in one, skipped in
    the other."""
    rounds = [[(0.0, 2), (0.2, 2), (0.5, 2)]]
    base = dict(strike_threshold=1.0, low_loss_floor=0.6, outlier_margin=0.15)
    (strikes1, _, quarantined1), = run(ReportGuard, dict(min_siblings=1, **base), [], rounds)
    (strikes2, _, quarantined2), = run(ReportGuard, dict(min_siblings=2, **base), [], rounds)
    assert strikes1 == [1.0, 1.0, 0.0] and quarantined1 == [(SID, 0), (SID, 1)]
    assert strikes2 == [1.0, 0.0, 0.0] and quarantined2 == [(SID, 0)]
