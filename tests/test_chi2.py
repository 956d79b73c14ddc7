"""The pure-Python chi-square tail equals scipy's, bit for bit.

``rwdval._chi2.chdtrc`` ports scipy's Cephes ``igamc``; its oracle is
``scipy.special.chdtrc``. Every comparison is ``==`` on doubles: report.json
must not move by one ulp when the run stops importing scipy.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from rwdval import _chi2
from rwdval._chi2 import chdtrc

PORTED_DF = range(1, _chi2._MAX_DF + 1)


def _same(got: float, want: float) -> bool:
    return got == want or (math.isnan(got) and math.isnan(want))


def _neighbours(h: float, steps: int = 2) -> list[float]:
    """``h`` and the doubles up to ``steps`` ulps either side of it."""
    out, down, up = [h], h, h
    for _ in range(steps):
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
        out += [down, up]
    return out


def _underflow_edges(a: float) -> list[float]:
    """Half-arguments h where a*log(h) - h - lgam(a) crosses -MAXLOG.

    Beyond such a point ``igam_fac`` returns 0 and the series or continued
    fraction is skipped. There is one crossing above ``a`` (the continued
    fraction) and, for a > 0.95, one below it (the power series).
    """
    def excess(h):
        return a * math.log(h) - h - math.lgamma(a) + _chi2.MAXLOG

    edges = []
    for lo, hi in ((5e-324, a), (a, 2000.0)):
        if excess(lo) * excess(hi) >= 0:
            continue
        for _ in range(200):
            mid = (lo + hi) / 2
            if excess(lo) * excess(mid) <= 0:
                hi = mid
            else:
                lo = mid
        edges += [lo * (1 + k * 1e-14) for k in range(-20, 21)]
    return edges


def _branch_grid(df: int) -> list[float]:
    """x values whose half x/2 sits on or next to every branch edge of igamc."""
    a = df / 2
    halves = [0.5, 1.1, a / 1.1, a, 0.6 * a, 1.4 * a]  # |a - h| = 0.4 a at the last two
    halves += [math.exp(-0.4 / a)]  # -0.4 / log(h) == a: series choice below 0.5
    grid = [2 * v for h in halves for v in _neighbours(h)]
    grid += [2 * h for h in _underflow_edges(a)]
    grid += [0.0, -0.0, 5e-324, 1e-300, 1e-13, 13.0, 26.0, 1e300, math.inf]
    grid += [-1.0, math.nan]  # domain errors are NaN in both
    return grid


@pytest.mark.parametrize("df", PORTED_DF)
def test_chdtrc_equals_scipy_on_every_branch_edge(df):
    mismatches = [
        (x, chdtrc(df, x), float(special.chdtrc(df, x)))
        for x in _branch_grid(df)
        if not _same(chdtrc(df, x), float(special.chdtrc(df, x)))
    ]
    assert mismatches == []


@pytest.mark.parametrize("df", PORTED_DF)
def test_chdtrc_equals_scipy_on_a_dense_log_grid(df):
    xs = [10.0 ** (k / 50) for k in range(-650, 175)]  # 1e-13 .. about 3e3
    assert [chdtrc(df, x) for x in xs] == [float(v) for v in special.chdtrc(df, xs)]


@settings(max_examples=400, deadline=None)
@given(
    df=st.integers(min_value=1, max_value=_chi2._MAX_DF),
    x=st.one_of(
        st.floats(min_value=0.0, max_value=200.0),
        st.floats(min_value=-40.0, max_value=300.0).map(lambda e: 10.0**e),
    ),
)
def test_chdtrc_equals_scipy_anywhere(df, x):
    assert chdtrc(df, x) == float(special.chdtrc(df, x))


@pytest.mark.parametrize("df", range(41, 61))
def test_chdtrc_falls_back_to_scipy_above_40_degrees_of_freedom(df):
    xs = [0.0, 1e-3, 0.5 * df, df - 1.0, float(df), 1.5 * df, 3.0 * df, 1e3, math.inf]
    assert [chdtrc(df, x) for x in xs] == [float(v) for v in special.chdtrc(df, xs)]


def test_lgam1p_at_one_half_is_cephes_taylor_series():
    """The a = 0.5 constant is Cephes' ``lgam1p_taylor(0.5)``, summed from
    its Euler-constant and zeta(n, 1) terms as Cephes sums it."""
    euler = 0.577215664901532860606512090082402431
    x = 0.5
    res, xfac = -euler * x, -x
    for n in range(2, 42):
        xfac *= -x
        coeff = float(special.zeta(n, 1)) * xfac / n
        res += coeff
        if abs(coeff) < _chi2.MACHEP * abs(res):
            break
    assert _chi2._LGAM1P[0.5] == res
