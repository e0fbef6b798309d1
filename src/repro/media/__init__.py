"""Layered streaming-media model: advertised layer schedule, CBR/VBR layered
sources, and loss-tracking layered receivers (the paper's hierarchical
source model, §IV).
"""

from .layers import LayerSchedule, PAPER_SCHEDULE
from .receiver import IntervalStats, LayeredReceiver
from .source import CBR, VBR, LayeredSource

__all__ = [
    "LayerSchedule",
    "PAPER_SCHEDULE",
    "LayeredSource",
    "CBR",
    "VBR",
    "LayeredReceiver",
    "IntervalStats",
]
