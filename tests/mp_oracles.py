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


def nest_zeta_mp(a, big_k, lam, s):
    """ζ_A(s, Ω) = ∫_Ω d(x, A)^{s-2} dx for the nest λ·{|x| = k^{-a}, k <= K}
    in its disk Ω of radius λ, at 30 digits: in polar coordinates
    ∫ 2πr·d(r)^{s-2} dr, annulus by annulus, with a breakpoint at each
    mid-radius where the nearest circle changes, and over the centre disk.
    """
    with mp.workdps(30):
        sm = mp.mpc(s)
        radii = [mp.mpf(lam) * mp.power(k, -mp.mpf(a)) for k in range(1, big_k + 1)]

        def annulus(lo, hi):
            def f(r):
                return 2 * mp.pi * r * mp.power(min(r - lo, hi - r), sm - 2)
            return mp.quad(f, [lo, (lo + hi) / 2, hi])

        total = sum(annulus(lo, hi) for hi, lo in zip(radii, radii[1:]))
        total += mp.quad(lambda r: 2 * mp.pi * r * mp.power(radii[-1] - r, sm - 2),
                         [0, radii[-1]])
        return complex(total)


def string_zeta_mp(entries, lam, s):
    """ζ_A(s, Ω) = ∫_Ω d(x, A)^{s-1} dx for a string of (length, multiplicity)
    entries scaled by λ, its gaps laid end to end, at 30 digits: each gap of
    length ℓ gives ∫_0^ℓ min(x, ℓ - x)^{s-1} dx, with a breakpoint at ℓ/2."""
    with mp.workdps(30):
        sm = mp.mpc(s)

        def gap(ell):
            return mp.quad(lambda x: mp.power(min(x, ell - x), sm - 1), [0, ell / 2, ell])

        return complex(sum(mult * gap(mp.mpf(lam) * mp.mpf(float(length)))
                           for length, mult in entries))
