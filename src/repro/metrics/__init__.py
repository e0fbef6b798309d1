"""Evaluation metrics: the paper's relative deviation (§IV), the Fig. 6/7
stability pair, supporting fairness indices, and fault-recovery measures."""

from .ascii_plot import render_level_timeline
from .attribution import loss_attribution
from .deviation import mean_relative_deviation, relative_deviation
from .fairness import bandwidth_shares, jain_index
from .guard import mean_level_divergence, quarantine_precision_recall
from .recovery import (
    max_suggestion_gap,
    recovery_report,
    suggestion_gaps,
    time_to_suggestion,
)
from .stability import worst_receiver_stability

__all__ = [
    "relative_deviation",
    "mean_relative_deviation",
    "worst_receiver_stability",
    "jain_index",
    "bandwidth_shares",
    "render_level_timeline",
    "time_to_suggestion",
    "suggestion_gaps",
    "max_suggestion_gap",
    "recovery_report",
    "quarantine_precision_recall",
    "mean_level_divergence",
    "loss_attribution",
]
