"""Print the mpmath reference values of the finite-t scalars B and D.

    python3 tests/make_finite_t_reference.py

Each point is integrated in mpmath at 30 and at 40 significant digits,
over the same panels as ``relegas.medium_finite_t``: the real parts over
[1, x_cutoff] and the imaginary parts over the kinematic window, both
split at the window edges, the Fermi edge xi and the cutoff.  The
kernels are written out again here from their defining formulas, so the
only thing shared with the library is the physics.  The script stops if
the two precisions disagree on a real or imaginary part beyond 1e-20
of |B| or |D|, then prints the ``MPMATH_REFERENCE`` entries of
``test_medium_finite_t.py``.

It then prints the ``KERNEL_REFERENCE`` entries: r1 and r2 at single
nodes ``(a, b, x)``, from their defining log ratios at 50 and at 70
digits (the script stops if they disagree beyond 1e-30 relative), with
c2 = a**2 - b**2 and y = sqrt(x**2 - 1) exact for the double inputs.
The nodes cover b -> 0 (1e-8, 1e-6, 1e-3), a cell next to the light
cone, region III at b = 1e-6 next to x = a, and generic points.

    python3 tests/make_finite_t_reference.py --zero-t

prints only the ``ZERO_T_REFERENCE`` entries of ``test_medium_zero_t.py``
(they follow ``KERNEL_REFERENCE`` in the full output): Re B and Re D at
t = 0, without the vacuum term, at the cells ``(a, b, xF)`` of
``zero_t_cells()``.  The occupation is the step, 1 on [1, xF] and 0
above, so the real parts are the same integrals over the panels of
[1, xF] split at the window edges, at 30 and 40 digits (the script stops
if they disagree beyond 1e-20 relative).

    python3 tests/make_finite_t_reference.py --gauss-fermi

prints only ``_GF_NODES`` and ``_GF_WEIGHTS`` of ``relegas.medium_finite_t``
(they close the full output): the 3-node Gauss rule for odd integrands
under the weight 1/(e^z + 1) on [0, inf).  With u = z**2 the odd
moments m_k = (1 - 2**-k) k! zeta(k + 1), k = 1, 3, ..., 11, are the
moments u**0 .. u**5 of the weight 1/(2 (e^sqrt(u) + 1)) du; the
Golub-Welsch method at 40 digits (Cholesky factor of their Hankel
matrix, then the eigenvalues and first components of the Jacobi
matrix) gives nodes u_i and weights w_i, and z_i = sqrt(u_i),
W_i = w_i/z_i.  The script stops unless the rule
reproduces m_1 .. m_11 to 1e-30 relative.

    python3 tests/make_finite_t_reference.py --fermi-edge

prints only the ``EDGE_REFERENCE`` entries of ``test_medium_finite_t.py``
(they follow ``MPMATH_REFERENCE`` in the full output): B and D at the
cells of ``edge_cells()``, on both sides of each boundary of the gate
that sends a Fermi edge to the Gauss-Fermi rule, integrated as
``MPMATH_REFERENCE`` is, with further panel edges at |xi| +- k t.

    python3 tests/make_finite_t_reference.py --compressibility

prints only the ``COMPRESSIBILITY_REFERENCE`` entries of
``test_responses.py`` (they close the full output): the derivative of the
charge density, dn/dmu = (1/pi**2) int p**2 [-f'(E - mu) - f'(E + mu)] dp
with f(u) = 1/(e^(u/t) + 1) and E = sqrt(1 + p**2), at the states
``(t, xi)`` of ``COMPRESSIBILITY_STATES``.  With x = E it is
(1/pi**2) int_1^inf x y [g(x - xi) + g(x + xi)] dx, y = sqrt(x**2 - 1)
and g(u) = -f'(u) = 1/(4 t cosh(u/(2 t))**2), split at |xi| +- k t; the
kernels of the library play no part.  It is integrated at 30 and at 40
digits, and the script stops if they disagree beyond 1e-20 relative.

The script needs mpmath; the tests only read the printed values.
"""

from __future__ import annotations

import math
import random
import sys

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


# (a, b, x): single kernel nodes.  Each is well conditioned: a one-ulp
# change of y moves neither kernel by more than 2e-14 relative (checked
# below), so a double evaluation can meet the test's 2e-13.  That leaves
# out nodes next to the narrow windows of the two region-I cells at
# b ~ 1e-3, where a kernel changes by O(1) within 1e-3 of x.
KERNEL_NODES = (
    # b -> 0 in regions II and III, where the squared forms cancel
    *((a, b, x) for b in (1e-8, 1e-6) for a in (0.00901, 0.986, 3.0) for x in (1.02, 1.3, 2.5)),
    # b = 1e-3 in regions I (window [1.1542, 1.1552]), II and III
    *((a, 1e-3, x) for a in (0.0005, 0.1, 2.0) for x in (1.02, 2.5, 10.0)),
    # the warm_map cell next to the light cone (window [3.7129, 3.7163])
    *((0.0017218508300760416, 0.0017878537522464, x) for x in (1.02, 1.5, 3.0, 6.0, 20.0, 40.0)),
    # region III at b = 1e-6, about x = a, in and out of the window a -+ 7.45e-7
    *((1.5, 1e-6, 1.5 + d) for d in (-3e-6, -7e-7, -2e-7, 0.0, 3e-7, 7.6e-7, 2e-6)),
    # generic points in regions I, III and II
    *((a, b, x) for a, b in ((0.5, 1.0), (2.0, 1.0), (0.8, 0.3), (0.3, 0.25)) for x in (1.1, 1.9)),
)


# |xi| +- k t, k in _EDGE_STEPS, are panel edges of the Fermi-edge cells,
# so that no panel holds more than a factor ~e^(k/2) of the fall of n_F
_EDGE_STEPS = (0, 1, 2, 4, 8, 16, 32)


def _region_two_b(a: float, s: float) -> float:
    """b at which the region-II pair a +- i b sqrt(1/c2 - 1), c2 = a**2 - b**2,
    has imaginary part s: the positive root of b**4 + b**2 (1 - a**2 + s**2)
    = s**2 a**2."""
    p = 1.0 - a * a + s * s
    return math.sqrt((-p + math.sqrt(p * p + 4.0 * s * s * a * a)) / 2.0)


def _window(a: float, b: float) -> tuple[float, float]:
    """The kinematic window (|a - b g|, a + b g), g = sqrt(1 - 1/c2), in doubles."""
    bg = b * math.sqrt(1.0 - 1.0 / (a * a - b * b))
    return abs(a - bg), a + bg


def edge_cells() -> list[tuple[float, float, float, float]]:
    """(a, b, t, xi) on both sides of each boundary of the Gauss-Fermi gate.

    The rule takes a Fermi edge mu = |xi| when b >= 1e-3 a, mu - 1 >= 18 t,
    both window edges lie >= 30 t from mu (in region II the complex pair
    a +- i b sqrt(1/c2 - 1)) and min(2 mu, 1 + mu) > 40 t.  The cells: a
    small-t region-I cell whose thermal tail was silently 4.5e-8 off; a
    region-II cell whose pair lies 1.1 t from mu along the real axis and
    11.9 t away in all; mu at 16-22 t above the mass shell; mu at 25-35 t
    from a window edge, below and above it, in regions I and III; the
    region-II pair at 25-35 t, mostly off the real axis; b/a at 0.9e-3 to
    1.1e-3; mu + 1 at 39 t and 41 t; then 10 seeded cells at t = 1e-3 and
    0.01, xi = 1.2, a and b log-uniform in [1e-3, 4].  xi alternates in
    sign, as n_F is even in xi.
    """
    cells = [(0.0128, 0.0524, 0.00138, 2.2), (1.211, 0.7028, 0.01, 1.2)]
    sign = 1.0
    # the mass shell at k t below mu, windows >= 80 t away
    for t in (0.002, 0.01):
        for i, k in enumerate((16.0, 17.0, 17.9, 18.1, 19.0, 20.0, 22.0)):
            a, b = ((0.5, 0.3), (3.0, 1.0))[i % 2]
            cells.append((a, b, t, sign * (1.0 + k * t)))
            sign = -sign
    # a window edge at k t from mu, on either side
    for (a, b), t in (((0.5, 1.0), 0.005), ((2.0, 1.0), 0.01)):
        lower, upper = _window(a, b)
        for i, k in enumerate((25.0, 28.0, 29.9, 30.1, 32.0, 35.0)):
            mu = (lower + k * t, upper - k * t, upper + k * t)[i % 3]
            cells.append((a, b, t, sign * mu))
            sign = -sign
    # the region-II pair at k t from mu = 1.2, at two angles to the real axis
    t, mu = 0.01, 1.2
    for cos in (0.6, 0.1):
        for k in (25.0, 29.0, 31.0, 35.0):
            a = mu - cos * k * t
            cells.append((a, _region_two_b(a, math.sqrt(1.0 - cos * cos) * k * t), t, sign * mu))
            sign = -sign
    # b/a about the deep-b bound, in regions II and III
    for a in (0.5, 2.5):
        for ratio in (0.9e-3, 0.99e-3, 1.01e-3, 1.1e-3):
            cells.append((a, ratio * a, 0.01, sign * 1.5))
            sign = -sign
    # the one-term occupation rule, mu + 1 = 39 t and 41 t
    for a, b in ((0.3, 0.29), (8.0, 1.0)):
        for mu in (2.9, 3.1):
            cells.append((a, b, 0.1, sign * mu))
            sign = -sign
    rng = random.Random(3636)
    for i in range(10):
        a = math.exp(rng.uniform(math.log(1e-3), math.log(4.0)))
        b = math.exp(rng.uniform(math.log(1e-3), math.log(4.0)))
        cells.append((a, b, (1e-3, 0.01)[i % 2], 1.2))
    return cells


def zero_t_cells() -> list[tuple[float, float, float]]:
    """(a, b, xF) at t = 0 where the closed forms' Fermi-surface logs are
    O(b): a cell next to the light cone at b = 1e-4, xF = 1.001, then 14
    seeded cells, alternately in region I (a/b uniform in [0, 0.9]) and
    region II (a log-uniform in [1.1 b, 1]), with b log-uniform in
    [1e-4, 6e-3] and xF - 1 log-uniform in [1e-3, 0.1]."""
    cells = [(1.11e-4, 1e-4, 1.001)]
    rng = random.Random(2727)
    for i in range(14):
        b = 10 ** rng.uniform(-4.0, math.log10(6e-3))
        xf = 1.0 + 10 ** rng.uniform(-3.0, -1.0)
        if i % 2 == 0:
            a = b * rng.uniform(0.0, 0.9)
        else:
            a = 10 ** rng.uniform(math.log10(1.1 * b), 0.0)
        cells.append((a, b, xf))
    return cells


def log_kernels(a: float, b: float, x: float, y_scale=1) -> tuple[mp.mpf, mp.mpf]:
    """(r1, r2) at x from their defining log ratios, at the working precision.

    y_scale multiplies y = sqrt(x**2 - 1), to measure the conditioning.
    """
    a, b, x = (mp.mpf(v) for v in (a, b, x))
    c2 = a * a - b * b
    y = mp.sqrt(x * x - 1) * y_scale
    r1 = mp.log(abs(((c2 - b * y) ** 2 - (a * x) ** 2) / ((c2 + b * y) ** 2 - (a * x) ** 2)))
    r2 = mp.log(abs((c2 * c2 - (a * x - b * y) ** 2) / (c2 * c2 - (a * x + b * y) ** 2))) / 2
    return r1, r2


def panels(lo, up, cuts):
    """[lo, up] split at the cuts that lie strictly inside it."""
    return [lo] + sorted(c for c in set(cuts) if lo < c < up) + [up]


def window_edges(a, b, c2) -> list:
    """The kinematic window's edges, where r1 and r2 have log singularities
    (none in region II, 0 <= c2 <= 1)."""
    if 0 <= c2 <= 1:
        return []
    g = mp.sqrt(1 - 1 / c2)
    return [abs(a - b * g), a + b * g]


def real_parts(a, b, n_f, real) -> tuple[mp.mpf, mp.mpf]:
    """(Re B, Re D) with occupation n_f integrated over the panels real."""
    e2 = 4 * mp.pi * mp.mpf(ALPHA)
    c2 = a * a - b * b

    def r1(x):
        y = mp.sqrt(x * x - 1)
        return mp.log(abs(((c2 - b * y) ** 2 - (a * x) ** 2) / ((c2 + b * y) ** 2 - (a * x) ** 2)))

    def r2(x):
        y = mp.sqrt(x * x - 1)
        return mp.log(abs((c2 * c2 - (a * x - b * y) ** 2) / (c2 * c2 - (a * x + b * y) ** 2))) / 2

    big_r = mp.quad(lambda x: n_f(x) * mp.sqrt(x * x - 1), real)
    r_b = mp.quad(lambda x: n_f(x) * ((x * x + c2) * r1(x) + 4 * a * x * r2(x)), real) / (4 * b)
    r_d = mp.quad(lambda x: n_f(x) * r1(x), real) * (1 + 2 * c2) / (8 * b)
    pref = -e2 / (4 * mp.pi**2 * c2)
    return pref * (big_r + r_b), pref * (big_r + r_d)


def scalars(a: float, b: float, t: float, xi: float, steps=()) -> tuple[mp.mpc, mp.mpc]:
    """(B, D) without the vacuum term, at the working precision, with the
    further panel edges |xi| +- k t for k in steps."""
    a, b, t, xi = (mp.mpf(v) for v in (a, b, t, xi))
    e2 = 4 * mp.pi * mp.mpf(ALPHA)
    c2 = a * a - b * b
    hi = max(mp.mpf(1), abs(xi)) + 40 * t

    def n_f(x):
        return 1 / (mp.exp((x - xi) / t) + 1) + 1 / (mp.exp((x + xi) / t) + 1)

    edges = window_edges(a, b, c2)
    cuts = [xi, hi, *edges, *(abs(xi) + s * k * t for k in steps for s in (-1, 1))]
    re_b, re_d = real_parts(a, b, n_f, panels(mp.mpf(1), hi, cuts))
    im_b = im_d = mp.mpf(0)
    if edges:
        lower, upper = edges
        shift = a if c2 < 0 else -a
        window = panels(lower, upper, cuts)
        im_b = -e2 / (16 * mp.pi * b * c2) * mp.quad(
            lambda x: n_f(x) * ((x + shift) ** 2 - b * b), window
        )
        im_d = -e2 * (1 + 2 * c2) / (32 * mp.pi * b * c2) * mp.quad(n_f, window)
    return mp.mpc(re_b, im_b), mp.mpc(re_d, im_d)


def re_scalars_zero_t(a: float, b: float, xf: float) -> tuple[mp.mpf, mp.mpf]:
    """(Re B, Re D) at t = 0 without the vacuum term: the step occupation
    over [1, xF], split at the window edges inside it."""
    a, b, xf = (mp.mpf(v) for v in (a, b, xf))
    edges = window_edges(a, b, a * a - b * b)
    return real_parts(a, b, lambda x: 1, panels(mp.mpf(1), xf, edges))


def print_zero_t_reference() -> None:
    for cell in zero_t_cells():
        mp.mp.dps = 40
        fine = re_scalars_zero_t(*cell)
        mp.mp.dps = 30
        coarse = re_scalars_zero_t(*cell)
        for f, c in zip(fine, coarse):
            if abs(f - c) > mp.mpf("1e-20") * abs(f):
                raise SystemExit(f"{cell}: dps 30 and 40 disagree: {c} vs {f}")
        re_b, re_d = (float(v) for v in fine)
        print(f"    {cell!r}: ({re_b!r}, {re_d!r}),")


def print_scalars_reference(points, steps=()) -> None:
    for point in points:
        mp.mp.dps = 40
        fine = scalars(*point, steps)
        mp.mp.dps = 30
        coarse = scalars(*point, steps)
        for f, c in zip(fine, coarse):
            for part in ("real", "imag"):
                x, y = getattr(f, part), getattr(c, part)
                # relative to |B| or |D|: the Im part of a window that lies
                # far above the Fermi edge is an e^-40 remainder
                if abs(x - y) > mp.mpf("1e-20") * abs(f):
                    raise SystemExit(f"{point}: dps 30 and 40 disagree on {part}: {y} vs {x}")
        b_val, d_val = (complex(z) for z in fine)
        print(f"    {point!r}: (")
        print(f"        complex({b_val.real!r}, {b_val.imag!r}),")
        print(f"        complex({d_val.real!r}, {d_val.imag!r}),")
        print("    ),", flush=True)


# (t, xi): a hot gas, a neutral one, xi < -1, |xi| below the mass shell,
# a steep Fermi edge (the Gauss-Fermi rule's cell) and a warm one
COMPRESSIBILITY_STATES = ((5.0, 2.0), (1.0, 0.0), (0.2, -1.1), (0.3, 0.5), (1e-3, 1.5), (0.05, 1.2))


def dn_dmu(t: float, xi: float) -> mp.mpf:
    """dn/dmu of the electron-positron gas at (t, xi), at the working precision."""
    t, xi = mp.mpf(t), mp.mpf(xi)

    def g(u):
        return 1 / (4 * t * mp.cosh(u / (2 * t)) ** 2)

    edges = [abs(xi) + s * k * t for k in _EDGE_STEPS for s in (-1, 1)]
    real = panels(mp.mpf(1), max(mp.mpf(1), abs(xi)) + 60 * t, edges) + [mp.inf]
    return mp.quad(lambda x: x * mp.sqrt(x * x - 1) * (g(x - xi) + g(x + xi)), real) / mp.pi**2


def print_compressibility_reference() -> None:
    for state in COMPRESSIBILITY_STATES:
        mp.mp.dps = 40
        fine = dn_dmu(*state)
        mp.mp.dps = 30
        coarse = dn_dmu(*state)
        if abs(fine - coarse) > mp.mpf("1e-20") * abs(fine):
            raise SystemExit(f"{state}: dps 30 and 40 disagree: {coarse} vs {fine}")
        print(f"    {state!r}: {float(fine)!r},")


def fermi_odd_moment(k: int) -> mp.mpf:
    """The integral of z**k/(e^z + 1) over [0, inf), (1 - 2**-k) k! zeta(k + 1)."""
    return (1 - mp.mpf(2) ** -k) * mp.factorial(k) * mp.zeta(k + 1)


def print_gauss_fermi_rule(n: int = 3) -> None:
    mp.mp.dps = 40
    # moments of u**j, j = 0 .. 2n, under 1/(2 (e^sqrt(u) + 1)) du
    mu = [fermi_odd_moment(2 * j + 1) for j in range(2 * n + 1)]
    hankel = mp.matrix(n + 1, n + 1)
    for i in range(n + 1):
        for j in range(n + 1):
            hankel[i, j] = mu[i + j]
    r = mp.cholesky(hankel).T
    jacobi = mp.matrix(n, n)
    for j in range(n):
        jacobi[j, j] = r[j, j + 1] / r[j, j] - (r[j - 1, j] / r[j - 1, j - 1] if j else 0)
        if j + 1 < n:
            jacobi[j, j + 1] = jacobi[j + 1, j] = r[j + 1, j + 1] / r[j, j]
    us, vecs = mp.eigsy(jacobi)
    zs = [mp.sqrt(us[i]) for i in range(n)]
    ws = [mu[0] * vecs[0, i] ** 2 / zs[i] for i in range(n)]
    for k in range(1, 4 * n, 2):
        got = sum(w * z**k for z, w in zip(zs, ws))
        if abs(got / fermi_odd_moment(k) - 1) > mp.mpf("1e-30"):
            raise SystemExit(f"the rule misses the moment of z**{k}: {got}")
    print(f"_GF_NODES = ({', '.join(repr(float(z)) for z in zs)})")
    print(f"_GF_WEIGHTS = ({', '.join(repr(float(w)) for w in ws)})")


def main() -> None:
    print_scalars_reference(POINTS)
    print()
    print_scalars_reference(edge_cells(), _EDGE_STEPS)
    print()
    for node in KERNEL_NODES:
        mp.mp.dps = 70
        fine = log_kernels(*node)
        mp.mp.dps = 50
        coarse = log_kernels(*node)
        for f, c in zip(fine, coarse):
            if abs(f - c) > mp.mpf("1e-30") * abs(f):
                raise SystemExit(f"{node}: dps 50 and 70 disagree: {c} vs {f}")
        moved = log_kernels(*node, y_scale=1 + mp.mpf(2) ** -52)
        for f, m in zip(fine, moved):
            if abs(m - f) > mp.mpf("2e-14") * abs(f):
                raise SystemExit(f"{node}: one ulp of y moves a kernel by {abs(m / f - 1)}")
        k1, k2 = (float(v) for v in fine)
        print(f"    {node!r}: ({k1!r}, {k2!r}),")
    print()
    print_zero_t_reference()
    print()
    print_gauss_fermi_rule()
    print()
    print_compressibility_reference()


if __name__ == "__main__":
    if sys.argv[1:] == ["--zero-t"]:
        print_zero_t_reference()
    elif sys.argv[1:] == ["--gauss-fermi"]:
        print_gauss_fermi_rule()
    elif sys.argv[1:] == ["--fermi-edge"]:
        print_scalars_reference(edge_cells(), _EDGE_STEPS)
    elif sys.argv[1:] == ["--compressibility"]:
        print_compressibility_reference()
    else:
        main()
