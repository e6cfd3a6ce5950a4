"""mpmath oracles shared by the test modules; they use no package code."""
import mpmath as mp


def flat_tube_mp(t):
    """|B_t(0) ∩ Ω| for the cusp Ω = {0 < x < 1, 0 < y < e^{-1/x}} in mpmath,
    at 40 digits.

    Left of the crossing x* of the cusp and the circle it is x*·E₂(1/x*)
    (mpmath's ``expint``); right of it the circular segment {x > x*, |p| < t},
    less the one beyond x = 1 when t > 1.  The crossing is bracketed by
    bisection in L = log w, x* = t/(1 + w), and then solved to working
    precision by the bracketing Anderson–Björck method; there
    t² - x*² = t²·w(2 + w)/(1 + w)² holds without cancellation, so it stays
    resolved where x* and t agree to thousands of digits (mpmath exponents do
    not underflow).
    """
    with mp.workdps(40):
        tm = mp.mpf(t)
        if tm >= mp.sqrt(1 + mp.e ** -2):
            return +mp.expint(2, 1)

        def excess(big_l):  # log cusp - log circle at x = t/(1 + e^L), decreasing in L
            w = mp.e ** big_l
            return -(1 + w) / tm - mp.log(tm) - (big_l + mp.log(2 + w)) / 2 + mp.log(1 + w)

        lo, hi = -2 / tm - 2 * mp.log(tm) - 50, mp.log(tm) + 2
        while hi - lo > 1:
            mid = (lo + hi) / 2
            if excess(mid) > 0:
                lo = mid
            else:
                hi = mid
        x_star = tm / (1 + mp.e ** mp.findroot(excess, (lo, hi), solver="anderson"))

        def segment(c):  # area of {x > c, y > 0, |p| < t}
            return tm ** 2 / 2 * mp.acos(c / tm) - c / 2 * mp.sqrt(tm ** 2 - c ** 2)

        vol = x_star * mp.expint(2, 1 / x_star) + segment(x_star)
        return vol - segment(mp.mpf(1)) if tm > 1 else vol
