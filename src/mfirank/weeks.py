"""The ISO-week rule shared by the weekly replay and the weekly report.

Kept apart from :mod:`mfirank.evaluate` so that ``report --weekly``
groups days into weeks without importing numpy or any pipeline stage.
"""

from __future__ import annotations

from datetime import datetime, timedelta


def week_start(moment: datetime) -> datetime:
    """Monday 00:00 of the ISO week containing ``moment``."""
    monday = moment.date() - timedelta(days=moment.weekday())
    return datetime(monday.year, monday.month, monday.day)
