"""Unit tests for the report guard: validation, sequencing, strikes,
sibling-outlier audits, quarantine and rehabilitation.

These tests drive :class:`~repro.control.guard.ReportGuard` directly with
hand-built messages; the end-to-end behaviour over the simulated network
(byzantine receivers actually being quarantined and pruned) lives in
``tests/test_hardening.py``.
"""

import itertools
import math

import pytest

from repro.control import guard as guard_mod
from repro.control.guard import ReportGuard
from repro.control.messages import Register, Report
from repro.core.session_topology import SessionTree
from repro.media.layers import LayerSchedule

SCHEDULE = LayerSchedule(n_layers=3, base_rate=32_000)
SID = 0
KEY = (SID, "R")
_SEQ = itertools.count(1)


def report(loss=0.0, bytes_=None, level=2, t0=0.0, t1=1.0, seq=None, rid="R"):
    """A Report whose bytes default to the loss-free volume for ``level``,
    and whose ``seq`` defaults to one above every seq handed out before."""
    if seq is None:
        seq = next(_SEQ)
    if bytes_ is None:
        bytes_ = (1.0 - loss) * SCHEDULE.cumulative(level) * (t1 - t0) / 8.0
    return Report(
        receiver_id=rid, session_id=SID, loss_rate=loss, bytes=bytes_,
        level=level, t0=t0, t1=t1, seq=seq,
    )


def admit(guard, msg, key=KEY, registered=True, now=1.0, last_suggestion=None):
    return guard.admit_report(
        key, msg, SCHEDULE,
        registered=registered, now=now, last_suggestion=last_suggestion,
    )


def three_leaf_tree():
    """src -> agg -> {l1, l2, l3} hosting receivers R1..R3 (see LEAF)."""
    return SessionTree(
        SID, "src",
        [("src", "agg"), ("agg", "l1"), ("agg", "l2"), ("agg", "l3")],
        ["l1", "l2", "l3"],
    )


#: The node each receiver registered at; any other receiver is off the tree.
LEAF = {"R1": "l1", "R2": "l2", "R3": "l3"}


def audit(guard, reports, now=10.0, tree=None, fresh_within=5.0):
    """Feed ``{rid: Report}`` (arrived just now) through one audit pass."""
    tree = tree if tree is not None else three_leaf_tree()
    session_reports = {
        SID: {(SID, rid): (rep, now, LEAF.get(rid, "off_tree")) for rid, rep in reports.items()}
    }
    guard.audit(now, session_reports, {SID: tree}, fresh_within)


# ----------------------------------------------------------------------
# Structural validation
# ----------------------------------------------------------------------
class TestReportValidation:
    @pytest.mark.parametrize("loss", [-0.1, 1.5, float("nan"), float("inf"), None, "x"])
    def test_loss_out_of_range(self, loss):
        guard = ReportGuard()
        msg = report().__class__(**{**report().__dict__, "loss_rate": loss})
        assert admit(guard, msg) == "loss_out_of_range"
        assert guard.rejections["loss_out_of_range"] == 1

    @pytest.mark.parametrize("bytes_", [-1.0, float("nan"), True])
    def test_bad_bytes(self, bytes_):
        guard = ReportGuard()
        assert admit(guard, report(bytes_=bytes_)) == "bad_bytes"

    def test_missing_bytes_rejected(self):
        guard = ReportGuard()
        msg = report().__class__(**{**report().__dict__, "bytes": None})
        assert admit(guard, msg) == "bad_bytes"

    @pytest.mark.parametrize("level", [-1, 4, 2.0, True, None])
    def test_level_out_of_schedule(self, level):
        guard = ReportGuard()
        msg = report().__class__(**{**report().__dict__, "level": level})
        assert admit(guard, msg) == "level_out_of_schedule"

    def test_level_zero_is_legal(self):
        guard = ReportGuard()
        assert admit(guard, report(level=0, bytes_=0.0)) is None

    def test_bad_interval(self):
        guard = ReportGuard()
        assert admit(guard, report(t0=2.0, t1=1.0, bytes_=0.0)) == "bad_interval"
        msg = report().__class__(**{**report().__dict__, "t0": float("nan")})
        assert admit(guard, msg) == "bad_interval"

    def test_unregistered_rejected(self):
        guard = ReportGuard()
        assert admit(guard, report(), registered=False) == "unregistered"

    def test_unknown_session_rejected(self):
        guard = ReportGuard()
        reason = guard.admit_report(
            KEY, report(), None, registered=True, now=1.0
        )
        assert reason == "unknown_session"

    def test_clean_report_accepted(self):
        guard = ReportGuard()
        assert admit(guard, report()) is None
        assert guard.rejections == {}
        assert guard.strikes(KEY) == 0.0

    def test_unknown_payload_counted(self):
        guard = ReportGuard()
        guard.note_malformed()
        assert guard.rejections["unknown_payload"] == 1


class TestRegisterValidation:
    def test_good_register_accepted(self):
        guard = ReportGuard()
        msg = Register("R", SID, seq=1)
        assert guard.admit_register(KEY, msg, known_session=True) is None

    def test_unknown_session(self):
        guard = ReportGuard()
        msg = Register("R", 99, seq=1)
        assert guard.admit_register((99, "R"), msg, known_session=False) == "unknown_session"

    def test_malformed_register(self):
        guard = ReportGuard()
        msg = Register(None, SID, seq=1)
        assert guard.admit_register(KEY, msg, known_session=True) == "malformed_register"


# ----------------------------------------------------------------------
# Sequencing
# ----------------------------------------------------------------------
class TestSequencing:
    def test_increasing_seq_accepted(self):
        guard = ReportGuard()
        for seq in (1, 2, 5):
            assert admit(guard, report(seq=seq)) is None

    def test_duplicate_and_reordered_rejected(self):
        guard = ReportGuard()
        assert admit(guard, report(seq=3)) is None
        assert admit(guard, report(seq=3)) == "stale_seq"   # duplicate
        assert admit(guard, report(seq=2)) == "stale_seq"   # straggler
        assert admit(guard, report(seq=4)) is None
        assert guard.rejections["stale_seq"] == 2

    @pytest.mark.parametrize("seq", [0, -1, True, 1.0, "x", None])
    def test_bad_seq_rejected(self, seq):
        guard = ReportGuard()
        msg = report().__class__(**{**report().__dict__, "seq": seq})
        assert admit(guard, msg) == "bad_seq"

    def test_register_and_report_share_the_counter(self):
        guard = ReportGuard()
        reg = Register("R", SID, seq=5)
        assert guard.admit_register(KEY, reg, known_session=True) is None
        assert admit(guard, report(seq=5)) == "stale_seq"
        assert admit(guard, report(seq=6)) is None

    def test_per_receiver_counters_are_independent(self):
        guard = ReportGuard()
        assert admit(guard, report(seq=9)) is None
        assert admit(guard, report(seq=1, rid="S"), key=(SID, "S")) is None


# ----------------------------------------------------------------------
# Behavioural strikes
# ----------------------------------------------------------------------
class TestConsistencyStrikes:
    def test_lie_high_strikes_and_quarantines(self):
        guard = ReportGuard()
        # Claimed 0.9 loss while the byte count says everything arrived.
        for i in range(3):
            lie = report(loss=0.9, bytes_=SCHEDULE.cumulative(2) / 8.0)
            assert admit(guard, lie, now=float(i)) is None  # accepted, scored
        assert guard.strike_counts["inconsistent_loss"] == 3
        assert guard.is_quarantined(KEY)
        assert guard.quarantines == 1
        assert guard.events[-1] == (2.0, "quarantine", KEY, "inconsistent_loss")

    def test_consistent_loss_not_struck(self):
        guard = ReportGuard()
        assert admit(guard, report(loss=0.4)) is None  # bytes match the loss
        assert guard.strikes(KEY) == 0.0

    def test_under_claim_direction_not_struck(self):
        # Fewer bytes than the level implies (mid-interval join) is honest.
        guard = ReportGuard()
        assert admit(guard, report(loss=0.0, bytes_=0.0)) is None
        assert guard.strikes(KEY) == 0.0

    def test_tiny_interval_carries_no_signal(self):
        guard = ReportGuard()
        lie = report(loss=1.0, bytes_=10_000.0, level=1, t0=0.0, t1=0.1)
        assert admit(guard, lie) is None
        assert guard.strikes(KEY) == 0.0  # expected bits below the floor

    def test_strikes_capped(self):
        guard = ReportGuard()
        for i in range(10):
            admit(guard, report(loss=0.9, bytes_=SCHEDULE.cumulative(2) / 8.0),
                  now=float(i))
        assert guard.strikes(KEY) == guard_mod.MAX_STRIKES


class TestDisobedienceStrikes:
    def test_far_above_suggestion_strikes(self):
        guard = ReportGuard()
        assert admit(guard, report(level=3), last_suggestion=1) is None
        assert guard.strike_counts["disobedience"] == 1

    def test_one_layer_climb_is_legal(self):
        guard = ReportGuard()
        assert admit(guard, report(level=2), last_suggestion=1) is None
        assert "disobedience" not in guard.strike_counts

    def test_no_suggestion_no_strike(self):
        guard = ReportGuard()
        assert admit(guard, report(level=3)) is None
        assert guard.strike_counts == {}


# ----------------------------------------------------------------------
# Sibling-outlier audit
# ----------------------------------------------------------------------
class TestSiblingAudit:
    def test_near_zero_outlier_struck(self):
        guard = ReportGuard()
        audit(guard, {
            "R1": report(loss=0.4, rid="R1", level=3),
            "R2": report(loss=0.35, rid="R2", level=3),
            "R3": report(loss=0.0, rid="R3", level=3),
        })
        assert guard.strike_counts == {"under_report": 1}
        assert guard.strikes((SID, "R3")) == 1.0

    def test_level_gate_protects_low_subscribers(self):
        # R3 subscribes fewer layers: legitimately sees less loss.
        guard = ReportGuard()
        audit(guard, {
            "R1": report(loss=0.4, rid="R1", level=3),
            "R2": report(loss=0.35, rid="R2", level=3),
            "R3": report(loss=0.0, rid="R3", level=1),
        })
        assert guard.strike_counts == {}

    def test_low_loss_floor_protects_modest_claims(self):
        # 0.1 is far below the siblings' 0.35+ but not "no loss at all".
        guard = ReportGuard()
        audit(guard, {
            "R1": report(loss=0.4, rid="R1", level=3),
            "R2": report(loss=0.35, rid="R2", level=3),
            "R3": report(loss=0.1, rid="R3", level=3),
        })
        assert guard.strike_counts == {}

    def test_lie_high_sibling_cannot_frame_honest_receivers(self):
        # Min-based floor: one inflated report cannot push honest zero-loss
        # receivers over the margin while another honest sibling agrees.
        guard = ReportGuard()
        audit(guard, {
            "R1": report(loss=0.9, rid="R1", level=3),
            "R2": report(loss=0.0, rid="R2", level=3),
            "R3": report(loss=0.0, rid="R3", level=3),
        })
        assert guard.strike_counts == {}

    def test_stale_reports_ignored(self):
        # The same reports strike R3 when fresh (see the first test), but
        # with both siblings silent for too long there is no live group to
        # compare against, so R3 walks free.
        guard = ReportGuard()
        tree = three_leaf_tree()
        session_reports = {SID: {
            (SID, "R1"): (report(loss=0.4, rid="R1", level=3), 1.0, "l1"),   # stale
            (SID, "R2"): (report(loss=0.35, rid="R2", level=3), 1.0, "l2"),  # stale
            (SID, "R3"): (report(loss=0.0, rid="R3", level=3), 10.0, "l3"),
        }}
        guard.audit(10.0, session_reports, {SID: tree}, fresh_within=5.0)
        assert guard.strike_counts == {}

    def test_quarantined_sibling_excluded_from_statistics(self):
        guard = ReportGuard()
        key1 = (SID, "R1")
        for i in range(3):  # quarantine R1 via consistency lies
            admit(guard, report(loss=0.9, bytes_=SCHEDULE.cumulative(2) / 8.0,
                                rid="R1"), key=key1, now=float(i))
        assert guard.is_quarantined(key1)
        # R1 claims 0.9; with R1 excluded, R3's floor comes from R2 alone.
        audit(guard, {
            "R1": report(loss=0.9, rid="R1", level=3),
            "R2": report(loss=0.02, rid="R2", level=3),
            "R3": report(loss=0.0, rid="R3", level=3),
        })
        assert "under_report" not in guard.strike_counts

    def test_lone_receiver_never_audited(self):
        guard = ReportGuard()
        audit(guard, {"R3": report(loss=0.0, rid="R3", level=3)})
        assert guard.strike_counts == {}


# ----------------------------------------------------------------------
# Decay, rehabilitation, lifecycle
# ----------------------------------------------------------------------
class TestDecayAndRehab:
    def test_clean_audit_decays_strikes(self):
        guard = ReportGuard()
        admit(guard, report(level=3), last_suggestion=1)  # one strike
        assert guard.strikes(KEY) == 1.0
        audit(guard, {})  # clean pass
        audit(guard, {})
        assert guard.strikes(KEY) == 0.0

    def test_striking_audit_resets_the_clean_streak(self, monkeypatch):
        monkeypatch.setattr(guard_mod, "REHAB_INTERVALS", 2)
        guard = ReportGuard()
        for i in range(3):
            admit(guard, report(loss=0.9, bytes_=SCHEDULE.cumulative(2) / 8.0),
                  now=float(i))
        assert guard.is_quarantined(KEY)
        audit(guard, {})  # absorbs the quarantine strike flag
        admit(guard, report(level=3), last_suggestion=1)  # strike again
        audit(guard, {"R": report(level=3)})  # absorbs it: streak stays 0
        audit(guard, {})  # streak 1
        assert guard.is_quarantined(KEY)  # 2 not yet reached
        audit(guard, {})  # streak 2: released
        assert not guard.is_quarantined(KEY)

    def test_rehabilitation_releases_and_resets(self, monkeypatch):
        monkeypatch.setattr(guard_mod, "REHAB_INTERVALS", 3)
        guard = ReportGuard()
        for i in range(3):
            admit(guard, report(loss=0.9, bytes_=SCHEDULE.cumulative(2) / 8.0),
                  now=float(i))
        # The first clean audit only absorbs the strike flag; the clean
        # streak starts counting from the next one.
        for _ in range(3):
            audit(guard, {}, now=20.0)
        assert guard.is_quarantined(KEY)
        audit(guard, {}, now=20.0)
        assert not guard.is_quarantined(KEY)
        assert guard.strikes(KEY) == 0.0
        assert guard.releases == 1
        assert guard.events[-1] == (20.0, "release", KEY, "rehabilitated")

    def test_forget_drops_record_and_seq(self):
        guard = ReportGuard()
        admit(guard, report(seq=7, level=3), last_suggestion=1)
        guard.forget(KEY)
        assert guard.strikes(KEY) == 0.0
        assert admit(guard, report(seq=1)) is None  # seq restarted

    def test_summary_shape(self):
        guard = ReportGuard()
        for i in range(3):
            admit(guard, report(loss=0.9, bytes_=SCHEDULE.cumulative(2) / 8.0),
                  now=float(i))
        s = guard.summary()
        assert s["quarantines"] == 1
        assert s["strikes"] == {"inconsistent_loss": 3}
        assert s["quarantined"] == [str(KEY)]
        kinds = [e["kind"] for e in s["events"]]
        assert kinds == ["strike", "strike", "strike", "quarantine"]


# ----------------------------------------------------------------------
# Thresholds
# ----------------------------------------------------------------------
class TestGuardConfig:
    """The thresholds are module constants: no call can set one."""

    @pytest.mark.parametrize("kwargs", [
        {"config": None},
        {"consistency_tolerance": 0.0},
        {"outlier_margin": -0.1},
        {"low_loss_floor": 1.5},
        {"disobey_margin": -1},
        {"strike_threshold": 0.0},
        {"strike_decay": -0.5},
        {"max_strikes": 1.0},
        {"rehab_intervals": 0},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(TypeError):
            ReportGuard(**kwargs)

    def test_defaults_are_valid(self):
        g = guard_mod
        assert 0.0 < g.STRIKE_THRESHOLD <= g.MAX_STRIKES
        assert g.CONSISTENCY_TOLERANCE > 0.0 and g.OUTLIER_MARGIN > 0.0
        assert 0.0 <= g.LOW_LOSS_FLOOR <= 1.0
        assert g.DISOBEY_MARGIN >= 0 and g.STRIKE_DECAY >= 0.0
        assert g.REHAB_INTERVALS >= 1 and g.MIN_SIBLINGS >= 1
        assert math.isfinite(g.MIN_EXPECTED_BITS)
