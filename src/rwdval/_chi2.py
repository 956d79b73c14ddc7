"""Upper-tail chi-square probability without importing scipy.

``chdtrc(df, x)`` is the regularised upper incomplete gamma function
Q(df/2, x/2). This module ports the Cephes ``igamc`` that scipy 1.17
uses (with its ``lgam``, ``lanczos_sum_expg_scaled``, ``expm1`` and
``lgam1p``) operation for operation, so its result equals
``scipy.special.chdtrc`` bit for bit on IEEE doubles with the same libm. The algorithm is DiDonato and Morris,
"Computation of the incomplete gamma function ratios and their inverse",
ACM TOMS 12(4), 1986, as scipy implements it.

Only integer ``df`` from 1 to 40 (``a = df/2 <= 20``) is ported. Below
``a = 20`` scipy never takes Temme's asymptotic series, and with
half-integer ``a`` its ``igamc_series`` branch is reached only at
``a = 0.5`` and ``a = 1``, where ``lgam1p`` is a constant. Any other
``df`` is handed to scipy itself.
"""

from __future__ import annotations

import math

MACHEP = 1.11022302462515654042e-16  # 2**-53
MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_MAXITER = 2000
_BIG = 4.503599627370496e15
_BIGINV = 2.22044604925031308085e-16
_MAX_DF = 40

# lgam: Stirling correction (x >= 13) and rational approximation on [2, 3)
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (  # Cephes p1evl: a leading 1, and 1.0 * x is exact
    1.0,
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))

# Lanczos approximation (g = 6.0246800407767296, 13 terms), highest power first
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
_LANCZOS_DENOM = (
    1.0,
    66.0,
    1925.0,
    32670.0,
    357423.0,
    2637558.0,
    13339535.0,
    45995730.0,
    105258076.0,
    150917976.0,
    120543840.0,
    39916800.0,
    0.0,
)

# expm1 on [-0.5, 0.5]
_EXPM1_P = (
    1.2617719307481059087798e-4,
    3.0299440770744196129956e-2,
    9.9999999999999999991025e-1,
)
_EXPM1_Q = (
    3.0019850513866445504159e-6,
    2.5244834034968410419224e-3,
    2.2726554820815502876593e-1,
    2.0000000000000000000897e0,
)

# lgam1p(a) = lgam(1 + a) at the two a that reach igamc_series. At a = 0.5
# Cephes sums its Taylor series about 0 (EULER and zeta(n, 1) terms), which
# lands 246 ulp below math.lgamma(1.5); at a = 1 it is log(1) + 0.
_LGAM1P = {0.5: -0.12078223763524884, 1.0: 0.0}


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _lgam(x: float) -> float:
    """Cephes ``lgam`` for finite positive ``x`` (no reflection branch)."""
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        p = x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
        return math.log(z) + p
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    return q + _polevl(p, _LGAM_A) / x


def _lanczos_sum_expg_scaled(x: float) -> float:
    """Cephes ``ratevl`` of the Lanczos sum; numerator and denominator share a degree."""
    if abs(x) > 1:
        y = 1 / x
        num, denom = _LANCZOS_NUM[::-1], _LANCZOS_DENOM[::-1]
    else:
        y = x
        num, denom = _LANCZOS_NUM, _LANCZOS_DENOM
    # pow(x, 0) * num / denom in Cephes; the factor 1.0 is exact
    return _polevl(y, num) / _polevl(y, denom)


def _expm1(x: float) -> float:
    """Cephes ``expm1`` on [-0.5, 0.5]; ``_igamc_series`` calls it with
    arguments in [-0.3, 0.2], so its ``exp(x) - 1`` branch is left out."""
    xx = x * x
    r = x * _polevl(xx, _EXPM1_P)
    r = r / (_polevl(xx, _EXPM1_Q) - r)
    return r + r


def _igam_fac(a: float, x: float) -> float:
    """x**a * exp(-x) / gamma(a), for a < 200 and x < 200 on the Lanczos branch."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - _lgam(a)
        if ax < -MAXLOG:
            return 0.0
        return math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.exp(1)) / _lanczos_sum_expg_scaled(a)
    # |a - x| <= 0.4 a with a <= 20 keeps x below 28, well under 200
    return res * (math.exp(a - x) * math.pow(x / fac, a))


def _igamc_continued_fraction(a: float, x: float) -> float:
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2 = 1.0
    qkm2 = x
    pkm1 = x + 1.0
    qkm1 = z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2 = pkm1
        pkm1 = pk
        qkm2 = qkm1
        qkm1 = qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= MACHEP:
            break
    return ans * ax


def _igam_series(a: float, x: float) -> float:
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r = a
    c = 1.0
    ans = 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= MACHEP * ans:
            break
    return ans * ax / a


def _igamc_series(a: float, x: float) -> float:
    fac = 1.0
    total = 0.0
    for n in range(1, _MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= MACHEP * abs(total):
            break
    logx = math.log(x)
    term = -_expm1(a * logx - _LGAM1P[a])
    return term - math.exp(a * logx - _lgam(a)) * total


def _igamc(a: float, x: float) -> float:
    """Cephes ``igamc`` for a in {0.5, 1, ..., 20}."""
    if not x >= 0:  # negative or NaN: a domain error
        return math.nan
    if x == 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if x > 1.1:
        if x < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_continued_fraction(a, x)
    if x <= 0.5:
        if -0.4 / math.log(x) < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_series(a, x)
    if x * 1.1 < a:
        return 1.0 - _igam_series(a, x)
    return _igamc_series(a, x)


def chdtrc(df: int, x: float) -> float:
    """P(X > x) for X chi-square with ``df`` degrees of freedom.

    Equal to ``scipy.special.chdtrc(df, x)``. Integer ``df`` from 1 to 40
    is computed here; any other ``df`` imports scipy.
    """
    x = float(x)
    if not (isinstance(df, int) and 1 <= df <= _MAX_DF):
        from scipy.special import chdtrc as scipy_chdtrc

        return float(scipy_chdtrc(df, x))
    return _igamc(df / 2.0, x / 2.0)
