"""Kaplan-Meier estimator against a brute-force product-limit oracle."""

import math
import random
from datetime import date

import numpy as np
import pytest

from rwdval import KMCurve, SurvivalRecord, km_estimate, km_from_records, median_survival


def brute_force_km(durations, events):
    """Product-limit by direct counting, independent of the implementation."""
    event_times = sorted({t for t, e in zip(durations, events) if e})
    s = 1.0
    curve = []
    for t in event_times:
        at_risk = sum(1 for u in durations if u >= t)
        d = sum(1 for u, e in zip(durations, events) if e and u == t)
        s *= (at_risk - d) / at_risk
        curve.append((t, at_risk, d, s))
    return curve


def test_worked_example():
    # events at 1 and 4, censored at 2, censored at 5
    curve = km_estimate([1, 2, 4, 5], [True, False, True, False])
    assert curve.times == (1.0, 4.0)
    assert curve.n_at_risk == (4, 2)
    assert curve.survival_at(0) == 1.0
    assert curve.survival_at(1) == 0.75
    assert curve.survival_at(3.9) == 0.75
    assert curve.survival_at(4) == pytest.approx(0.375)
    assert curve.median() == 4.0
    assert curve.n_total == 4
    assert curve.n_events_total == 2
    assert curve.max_followup == 5.0


def test_censoring_at_event_time_stays_at_risk():
    # the subject censored at t=3 still counts toward the risk set at t=3
    curve = km_estimate([3, 3, 3], [True, False, False])
    assert curve.n_at_risk == (3,)
    assert curve.survival_at(3) == pytest.approx(2 / 3)


def test_median_undefined_when_curve_stays_high():
    curve = km_estimate([5, 6, 7, 8], [True, False, False, False])
    assert curve.survival_at(10) == 0.75
    assert curve.median() is None
    assert median_survival(
        [
            SurvivalRecord("p1", date(2020, 1, 1), date(2020, 1, 6), True),
            SurvivalRecord("p2", date(2020, 1, 1), date(2020, 1, 7), False),
            SurvivalRecord("p3", date(2020, 1, 1), date(2020, 1, 8), False),
            SurvivalRecord("p4", date(2020, 1, 1), date(2020, 1, 9), False),
        ]
    ) is None


def test_all_events_drop_to_zero_with_zero_se():
    curve = km_estimate([1, 2, 3], [True, True, True])
    assert curve.survival == (pytest.approx(2 / 3), pytest.approx(1 / 3), 0.0)
    assert curve.std_err[-1] == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        km_estimate([], [])
    with pytest.raises(ValueError):
        km_estimate([1, 2], [True])
    with pytest.raises(ValueError):
        km_estimate([-1], [True])
    with pytest.raises(ValueError):
        SurvivalRecord("p1", date(2020, 1, 2), date(2020, 1, 1), True)


def test_against_brute_force_oracle():
    rng = random.Random(20260822)
    for trial in range(1000):
        n = rng.randint(1, 40)
        durations = [rng.randint(0, 30) for _ in range(n)]
        events = [rng.random() < 0.6 for _ in range(n)]
        curve = km_estimate(durations, events)
        oracle = brute_force_km(durations, events)
        assert len(curve.times) == len(oracle), trial
        for (t, at_risk, d, s), ct, cn, cd, cs in zip(
            oracle, curve.times, curve.n_at_risk, curve.n_events, curve.survival
        ):
            assert ct == t
            assert cn == at_risk
            assert cd == d
            assert abs(cs - s) <= 1e-12, (trial, t)


def test_survival_is_monotone_nonincreasing():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 60)
        durations = [rng.randint(0, 400) for _ in range(n)]
        events = [rng.random() < 0.5 for _ in range(n)]
        curve = km_estimate(durations, events)
        assert all(
            a >= b - 1e-15 for a, b in zip(curve.survival, curve.survival[1:])
        )
        assert all(0.0 <= s <= 1.0 for s in curve.survival)


def test_greenwood_matches_direct_formula():
    durations = [1, 2, 2, 3, 5, 8, 8, 9]
    events = [True, True, False, True, False, True, True, False]
    curve = km_estimate(durations, events)
    acc = 0.0
    for t, n, d, s, se in zip(
        curve.times, curve.n_at_risk, curve.n_events, curve.survival, curve.std_err
    ):
        acc += d / (n * (n - d))
        assert se == pytest.approx(s * math.sqrt(acc))


def test_km_from_records_uses_day_durations():
    records = [
        SurvivalRecord("p1", date(2020, 1, 1), date(2020, 3, 1), True),
        SurvivalRecord("p2", date(2020, 1, 1), date(2020, 6, 1), False),
    ]
    curve = km_from_records(records)
    assert curve.times == (60.0,)
    assert curve.survival_at(60) == 0.5
