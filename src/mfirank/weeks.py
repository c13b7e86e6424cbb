"""The ISO-week rule shared by the weekly replay and the weekly report.

Kept apart from :mod:`mfirank.evaluate` so that ``report --weekly``
groups days into weeks without importing numpy or any pipeline stage.
"""

from __future__ import annotations

from datetime import datetime


def monday(day):
    """The proleptic ordinal of the Monday of the week of each ordinal
    ``day``, an int or an integer array."""
    return day - (day + 6) % 7  # date.weekday() is (ordinal + 6) % 7


def week_start(moment: datetime) -> datetime:
    """Monday 00:00 of the ISO week containing ``moment``."""
    return datetime.fromordinal(monday(moment.toordinal()))
