"""Print the mpmath reference values of the vacuum scalar on its series branch.

    python3 tests/make_vacuum_reference.py

For |c2| <= 0.05, ``relegas.vacuum.c_star`` evaluates a polynomial of
degree 15 in s = c2/(1 - c2).  This script evaluates the same scalar
independently, as the renormalized one-loop integral

    C(c2) = -(2 alpha/pi) * int_0^1 x (1 - x) log(1 - 4 c2 x (1 - x)) dx,

by mpmath quadrature at 50 and at 70 significant digits, and checks both
against the closed form 1/3 + 2 (1 + 1/(2 c2)) (h arccot h - 1) (times
-e2/(12 pi**2)) at 100 digits.  It stops if any two disagree beyond
1e-35 relative, then prints the ``SERIES_REFERENCE`` entries of
``test_vacuum.py``.  The c2 values are 16 seeded draws log-uniform in
[1e-8, 0.05] of each sign, plus the four ends of that range.  Last it
prints, checked the same way, the ``REAL_TABLE`` entries just outside
the series branch, at c2 = +-0.0501, +-0.07 and +-0.1, where the
closed form takes over.  It needs mpmath; the tests only read the
printed values.
"""

from __future__ import annotations

import random

import mpmath as mp

ALPHA = 1.0 / 137.036  # the library's default coupling, as a double
SEED = 2026
# the closed form's side of the switch at |c2| = 0.05
SWITCH_NEIGHBOURS = (-0.1, -0.07, -0.0501, 0.0501, 0.07, 0.1)


def c2_values() -> list[float]:
    rng = random.Random(SEED)
    lo, hi = mp.log(1e-8), mp.log(0.05)
    drawn = [float(mp.exp(rng.uniform(float(lo), float(hi)))) for _ in range(32)]
    signed = [v if i % 2 else -v for i, v in enumerate(drawn)]
    return sorted(signed + [-0.05, -1e-8, 1e-8, 0.05])


def one_loop(c2: float, dps: int) -> mp.mpf:
    with mp.workdps(dps):
        z = 4 * mp.mpf(c2)
        integral = mp.quad(lambda x: x * (1 - x) * mp.log1p(-z * x * (1 - x)), [0, 0.5, 1])
        return -2 * mp.mpf(ALPHA) / mp.pi * integral


def closed_form(c2: float, dps: int = 100) -> mp.mpf:
    with mp.workdps(dps):
        c = mp.mpf(c2)
        if c > 0:
            h = mp.sqrt(1 / c - 1)
            hcot = h * mp.atan(1 / h)
        else:
            k = mp.sqrt(1 - 1 / c)
            hcot = k / 2 * mp.log((k + 1) / (k - 1))
        bracket = mp.mpf(1) / 3 + 2 * (1 + 1 / (2 * c)) * (hcot - 1)
        return -4 * mp.pi * mp.mpf(ALPHA) / (12 * mp.pi**2) * bracket


def checked(c2: float) -> mp.mpf:
    """The 70-digit quadrature at c2, once it agrees with the other two values."""
    lo, high, closed = one_loop(c2, 50), one_loop(c2, 70), closed_form(c2)
    for other in (high, closed):
        if abs(lo - other) > mp.mpf("1e-35") * abs(other):
            raise SystemExit(f"c2 = {c2!r}: {lo} against {other}")
    return high


def main() -> None:
    print("SERIES_REFERENCE = {")
    for c2 in c2_values():
        print(f"    {c2!r}: {float(checked(c2))!r},")
    print("}")
    print("REAL_TABLE entries next to the switch:")
    for c2 in SWITCH_NEIGHBOURS:
        print(f"    {c2!r}: {float(checked(c2))!r},")


if __name__ == "__main__":
    main()
