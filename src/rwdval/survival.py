"""Kaplan-Meier survival estimation.

Product-limit estimator over right-censored durations, with Greenwood
variance. At tied times, events are processed before censorings. The
median is the smallest event time where the curve drops to 0.5 or below;
if the curve never reaches 0.5 the median is undefined (None).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date

import numpy as np


@dataclass(frozen=True)
class SurvivalRecord:
    """One subject's follow-up: time from index to event or censoring."""

    patient_id: str
    index_date: date
    last_date: date
    event: bool

    def __post_init__(self) -> None:
        if self.last_date < self.index_date:
            raise ValueError(
                f"{self.patient_id}: follow-up ends {self.last_date} before "
                f"index {self.index_date}"
            )

    @property
    def duration_days(self) -> int:
        return (self.last_date - self.index_date).days


@dataclass(frozen=True)
class KMCurve:
    """Kaplan-Meier curve evaluated at the distinct event times."""

    times: tuple[float, ...]
    n_at_risk: tuple[int, ...]
    n_events: tuple[int, ...]
    survival: tuple[float, ...]
    std_err: tuple[float, ...]
    n_total: int
    n_events_total: int
    max_followup: float

    def survival_at(self, t: float) -> float:
        """S(t): right-continuous step function, S=1 before the first event.

        ``times`` ascend, so the step in force is found by bisection. A NaN
        ``t`` precedes no event time and reads 1.0.
        """
        i = bisect_right(self.times, t)
        return self.survival[i - 1] if i and not math.isnan(t) else 1.0

    def median(self) -> float | None:
        """Smallest event time with S(t) <= 0.5, or None if never reached."""
        for time, surv in zip(self.times, self.survival):
            if surv <= 0.5:
                return time
        return None


def km_estimate(
    durations: "np.ndarray | list[float]", events: "np.ndarray | list[bool]"
) -> KMCurve:
    """Product-limit estimate from durations and event indicators.

    ``events[i]`` is True when subject i had the event at ``durations[i]``,
    False when censored then. Ties between events and censorings at the
    same time keep the censored subjects in the risk set for that time.
    """
    durations = np.asarray(durations, dtype=float)
    events = np.asarray(events, dtype=bool)
    if durations.shape != events.shape or durations.ndim != 1:
        raise ValueError("durations and events must be 1-d arrays of equal length")
    if durations.size == 0:
        raise ValueError("need at least one subject")
    if not np.all(durations >= 0):  # NaN fails the comparison too
        raise ValueError("durations must be non-negative numbers")
    n_total = int(durations.size)
    # one sort: the subjects at risk at t are those whose duration is not
    # below t, censored ones included, and np.unique counts the events at t
    by_duration = np.sort(durations)
    event_times, event_counts = np.unique(durations[events], return_counts=True)
    at_risk = n_total - np.searchsorted(by_duration, event_times, side="left")
    times: list[float] = []
    n_at_risk: list[int] = []
    n_events: list[int] = []
    survival: list[float] = []
    std_err: list[float] = []
    s = 1.0
    greenwood = 0.0
    for t, n_risk, d in zip(event_times.tolist(), at_risk.tolist(), event_counts.tolist()):
        s *= (n_risk - d) / n_risk
        if n_risk > d:
            greenwood += d / (n_risk * (n_risk - d))
            se = s * math.sqrt(greenwood)
        else:
            se = 0.0
        times.append(t)
        n_at_risk.append(n_risk)
        n_events.append(d)
        survival.append(s)
        std_err.append(se)
    return KMCurve(
        times=tuple(times),
        n_at_risk=tuple(n_at_risk),
        n_events=tuple(n_events),
        survival=tuple(survival),
        std_err=tuple(std_err),
        n_total=n_total,
        n_events_total=int(np.sum(events)),
        max_followup=float(durations.max()),
    )


def km_from_records(records: "list[SurvivalRecord]") -> KMCurve:
    """Kaplan-Meier estimate from subject-level follow-up records."""
    if not records:
        raise ValueError("need at least one subject")
    durations = [float(r.duration_days) for r in records]
    events = [r.event for r in records]
    return km_estimate(durations, events)
