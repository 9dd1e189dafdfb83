"""Print the mpmath reference values of the finite-t scalars B and D.

    python3 tests/make_finite_t_reference.py

Each point is integrated in mpmath at 30 and at 40 significant digits,
over the same panels as ``relegas.medium_finite_t``: the real parts over
[1, x_cutoff] and the imaginary parts over the kinematic window, both
split at the window edges, the Fermi edge xi and the cutoff.  The
kernels are written out again here from their defining formulas, so the
only thing shared with the library is the physics.  The script stops if
the two precisions disagree beyond 1e-20 relative, then prints the
``MPMATH_REFERENCE`` entries of ``test_medium_finite_t.py``.  It needs
mpmath; the tests only read the printed values.
"""

from __future__ import annotations

import mpmath as mp

ALPHA = 1.0 / 137.036  # the library's default coupling, as a double

# (a, b, t, xi): a steep Fermi edge, a hot gas, region III, xi < 0 and
# region II; every b >= 0.1, away from the long-wavelength cancellation
POINTS = (
    (0.5, 1.0, 1e-3, 1.2),
    (0.5, 1.0, 1.0, 0.0),
    (2.0, 1.0, 0.1, 1.5),
    (0.5, 1.0, 0.2, -1.1),
    (0.9, 0.7, 0.3, 0.5),
)


def scalars(a: float, b: float, t: float, xi: float) -> tuple[mp.mpc, mp.mpc]:
    """(B, D) without the vacuum term, at the working precision."""
    a, b, t, xi = (mp.mpf(v) for v in (a, b, t, xi))
    e2 = 4 * mp.pi * mp.mpf(ALPHA)
    c2 = a * a - b * b
    hi = max(mp.mpf(1), abs(xi)) + 40 * t

    def n_f(x):
        return 1 / (mp.exp((x - xi) / t) + 1) + 1 / (mp.exp((x + xi) / t) + 1)

    def r1(x):
        y = mp.sqrt(x * x - 1)
        return mp.log(abs(((c2 - b * y) ** 2 - (a * x) ** 2) / ((c2 + b * y) ** 2 - (a * x) ** 2)))

    def r2(x):
        y = mp.sqrt(x * x - 1)
        return mp.log(abs((c2 * c2 - (a * x - b * y) ** 2) / (c2 * c2 - (a * x + b * y) ** 2))) / 2

    def panels(lo, up, cuts):
        return [lo] + sorted(c for c in set(cuts) if lo < c < up) + [up]

    absorbing = c2 < 0 or c2 > 1
    cuts = [xi, hi]
    if absorbing:
        g = mp.sqrt(1 - 1 / c2)
        lower, upper = abs(a - b * g), a + b * g
        cuts += [lower, upper]
    real = panels(mp.mpf(1), hi, cuts)
    big_r = mp.quad(lambda x: n_f(x) * mp.sqrt(x * x - 1), real)
    r_b = mp.quad(lambda x: n_f(x) * ((x * x + c2) * r1(x) + 4 * a * x * r2(x)), real) / (4 * b)
    r_d = mp.quad(lambda x: n_f(x) * r1(x), real) * (1 + 2 * c2) / (8 * b)
    pref = -e2 / (4 * mp.pi**2 * c2)
    re_b, re_d = pref * (big_r + r_b), pref * (big_r + r_d)
    im_b = im_d = mp.mpf(0)
    if absorbing:
        shift = a if c2 < 0 else -a
        window = panels(lower, upper, cuts)
        im_b = -e2 / (16 * mp.pi * b * c2) * mp.quad(
            lambda x: n_f(x) * ((x + shift) ** 2 - b * b), window
        )
        im_d = -e2 * (1 + 2 * c2) / (32 * mp.pi * b * c2) * mp.quad(n_f, window)
    return mp.mpc(re_b, im_b), mp.mpc(re_d, im_d)


def main() -> None:
    for point in POINTS:
        mp.mp.dps = 40
        fine = scalars(*point)
        mp.mp.dps = 30
        coarse = scalars(*point)
        for f, c in zip(fine, coarse):
            for part in ("real", "imag"):
                x, y = getattr(f, part), getattr(c, part)
                if abs(x - y) > mp.mpf("1e-20") * abs(x):
                    raise SystemExit(f"{point}: dps 30 and 40 disagree on {part}: {y} vs {x}")
        b_val, d_val = (complex(z) for z in fine)
        print(f"    {point!r}: (")
        print(f"        complex({b_val.real!r}, {b_val.imag!r}),")
        print(f"        complex({d_val.real!r}, {d_val.imag!r}),")
        print("    ),")


if __name__ == "__main__":
    main()
