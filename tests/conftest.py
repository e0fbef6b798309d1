"""Shared fixtures."""

import pytest

from repro.multicast import manager


@pytest.fixture
def no_igmp_delay(monkeypatch):
    """Grafts cost only their path's link delays: no local IGMP report
    delay (:data:`repro.multicast.manager.IGMP_REPORT_DELAY` is 0)."""
    monkeypatch.setattr(manager, "IGMP_REPORT_DELAY", 0.0)
