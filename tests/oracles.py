"""Independent oracles and frozen reference values for the test suite.

Nothing in this module touches the package's own gamma or kernel code: the
gamma oracle is a Taylor series of ln(Gamma(1+x)) in zeta-function
coefficients plus the recurrence, and the integral oracles call plain
scipy.integrate.quad on the raw defining integrands.  The frozen constants
were produced with 40-digit arbitrary-precision arithmetic from exactly
these definitions (series + recurrence for gamma values, direct quadrature
of the defining integrals, bisection on the closed-form gain condition for
the critical correlation) and are trusted to every printed digit.

The search references (``bisect_lambda_c``, ``zoom_extremum``) take the
quantity they search as a callable: they pin a search's rules, not a value.
``evolve_csv`` is the CLI's CSV as first written, one f-string per value.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import zeta


def series_ln_gamma1p(x: float) -> float:
    """ln Gamma(1+x) for |x| <= 0.5 from the zeta-coefficient Taylor series."""
    if abs(x) > 0.5:
        raise ValueError("series valid for |x| <= 0.5")
    total = -np.euler_gamma * x
    power = x
    for k in range(2, 80):
        power *= x
        term = ((-1) ** k) * zeta(k) * power / k
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return total


def series_gamma(x: float) -> float:
    """Gamma(x) for x > 0 via recurrence reduction onto the series."""
    if x <= 0.0:
        raise ValueError("positive arguments only")
    factor = 1.0
    while x > 1.5:
        x -= 1.0
        factor *= x
    while x < 0.5:
        factor /= x
        x += 1.0
    return factor * math.exp(series_ln_gamma1p(x - 1.0))


def quad_kernel(c: float, p: float, omega_c: float, t: float) -> float:
    """Direct quadrature of c*Int w**(p-1) e**(-w/omega_c) (1-cos(w t)) dw.

    Plain adaptive integration; reliable for moderate omega_c * t.
    """
    def integrand(w):
        return w ** (p - 1.0) * math.exp(-w / omega_c) * 2.0 * math.sin(0.5 * w * t) ** 2

    value, _ = quad(integrand, 0.0, 60.0 * omega_c, epsabs=1e-13, epsrel=1e-11, limit=800)
    return c * value


def quad_total(c: float, p: float, omega_c: float) -> float:
    """Direct quadrature of c*Int w**(p-1) e**(-w/omega_c) dw."""
    def integrand(w):
        return w ** (p - 1.0) * math.exp(-w / omega_c)

    value, _ = quad(integrand, 0.0, 60.0 * omega_c, epsabs=1e-13, epsrel=1e-11, limit=800)
    return c * value


def quad_sine(c: float, p: float, omega_c: float, t: float) -> float:
    """Direct quadrature of c*Int w**(p-1) e**(-w/omega_c) sin(w t) dw."""
    def integrand(w):
        return w ** (p - 1.0) * math.exp(-w / omega_c) * math.sin(w * t)

    value, _ = quad(integrand, 0.0, 60.0 * omega_c, epsabs=1e-13, epsrel=1e-11, limit=800)
    return c * value


def bisect_lambda_c(ratio, bracket=(0.01, 0.99), tol=1e-4):
    """The documented critical-correlation bisection, one scalar ratio at a
    time: None without ratio(lo) > 1 > ratio(hi); a midpoint where the ratio
    is undefined (None) is stepped past by one ulp; stops at ``tol`` or when
    the midpoint is an end."""
    lo, hi = bracket
    r_lo, r_hi = ratio(lo), ratio(hi)
    if r_lo is None or r_hi is None or not (r_lo > 1.0 > r_hi):
        return None
    while 0.5 * (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        r_mid = ratio(mid)
        if r_mid is None:
            mid = math.nextafter(mid, hi)
            r_mid = ratio(mid)
        if mid in (lo, hi):
            break
        if r_mid > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def zoom_extremum(times, d, distance):
    """The series-extremum search before its parabolic prediction, as
    (kind, t, value): the dominant interior extremum of the distance ``d`` on
    ``times``, zoomed by evaluating ``distance(np.linspace(a, b, 129))``
    between the neighbours of the best point so far until they lie within
    2**-26 of t relative."""
    interior = d[1:-1]
    end_min, end_max = min(d[0], d[-1]), max(d[0], d[-1])
    i_min, i_max = 1 + int(np.argmin(interior)), 1 + int(np.argmax(interior))
    has_min = d[i_min] < end_min and d[i_min] <= d[i_min - 1] and d[i_min] <= d[i_min + 1]
    has_max = d[i_max] > end_max and d[i_max] >= d[i_max - 1] and d[i_max] >= d[i_max + 1]
    if not has_min and not has_max:
        return "none", None, None
    if has_min and has_max:
        has_min = (end_min - d[i_min]) >= (d[i_max] - end_max)
    i, sign = (i_min, 1.0) if has_min else (i_max, -1.0)
    t_best, v_best = float(times[i]), float(d[i])
    while True:
        a, b = float(times[max(i - 1, 0)]), float(times[min(i + 1, len(times) - 1)])
        if b - a <= 2.0**-26 * b:
            break
        times = np.linspace(a, b, 129)
        d = distance(times)
        i = int(np.argmin(sign * d))
        if sign * d[i] < sign * v_best:
            t_best, v_best = float(times[i]), float(d[i])
    return ("minimum" if has_min else "maximum"), t_best, v_best


def evolve_csv(rows):
    """The ``evolve`` CSV of a series' rows, each value joined as ``f"{v:.17g}"``."""
    lines = (",".join(f"{value:.17g}" for value in row) for row in rows)
    return "\n".join(["t,distance,abs_A1,abs_A2,r,s,phi", *lines]) + "\n"


# ---------------------------------------------------------------------------
# Frozen reference values (40-digit derivations, see module docstring).
# ---------------------------------------------------------------------------

SQRT_PI = 1.7724538509055160273

GAMMA_0_01 = 99.43258511915060371
GAMMA_0_03 = 32.78499835179413598
GAMMA_0_05 = 19.47008531125551286
GAMMA_1_05 = 0.97350426556277564320

# c=1, p=0.5, omega_c=1, t=1 kernel value
KERNEL_HALF_AT_1 = 0.39545751905236258863

# displacement gamma_coef=0.05, nu=0.05, omega_c=1
OVERLAP_REFERENCE = 0.61461935805643665246

# benchmark scenario: alpha=0.0025, gamma_coef=0.05, mu=0.01, nu=0.05,
# omega_c=1, epsilon=1, lambda1=0.25 vs lambda2=0, balanced amplitudes
SCENARIO_R_INF = 0.99432585119150604
SCENARIO_S_INF = 0.24634271678691470
SCENARIO_C_QUARTER = 0.92492283963104930
SCENARIO_A_QUARTER_T0 = 0.97700564933024692
SCENARIO_PAIR_A = -0.18912154845351838
SCENARIO_PAIR_B = 0.27029281718216054
SCENARIO_D0 = 0.011497175334876540
SCENARIO_D_INF = 0.028982614776903683
SCENARIO_GAIN = 2.5208465499334675
SCENARIO_LAMBDA_C = 0.49291017871861734
# interior minimum of the scenario distance curve (golden-section refined)
SCENARIO_DIP_T = 679.878223435
SCENARIO_DIP_D = 0.0025234069067445

# same model with alpha=0.01
STRONG_R_INF = 3.9773034047660241
STRONG_S_INF = 0.97943756635521723
STRONG_GAIN = 0.43238611473651516

# DE rows that leave the level loop at level 1 once fitted to their peaks,
# at the double arguments of the calls: the cosine part of each kernel and
# the sine moment by direct quadrature over half periods of the trig factor
# up to 150 omega_c, the total moments by direct quadrature, each equal to
# the Gamma closed form to 40 digits.
# kernel c=0.04, p=1.8, omega_c=1, t=1100
KERNEL_1_8_AT_1100 = 0.037255469595404983277565
# kernel c=1, p=10, omega_c=1, t=10
KERNEL_10_AT_10 = 362880.00001875106732835
# total moment c=0.5, p=1.9, omega_c=0.97
TOTAL_1_9 = 0.45384300227946090034794
# sine moment c=1, p=1.35, omega_c=1, t=3e-3
SINE_1_35_AT_3E_3 = 0.0036091207209371607383787
# kernel c=1, p=40, omega_c=1, t=0.0375: its head peaks near its end delta;
# the Gamma closed form to 40 digits
KERNEL_40_AT_0_0375 = 1.898108338474983049929735e46
