"""Kernel accuracy against an independent high-precision series oracle."""

import math

import mpmath as mp
import numpy as np
import pytest

from disphom import erf_real, scaled_dip_term
from disphom.erfkernel import _faddeeva_upper
from reference import erf_complex

mp.mp.dps = 60


def erf_series_oracle(z: complex) -> complex:
    """Maclaurin series (2/sqrt(pi)) sum (-1)^n z^(2n+1) / (n! (2n+1)),
    summed to convergence in 60-digit arithmetic."""
    zz = mp.mpc(z.real, z.imag)
    term = zz
    total = mp.mpc(0)
    n = 0
    while True:
        total += term / (2 * n + 1)
        n += 1
        term *= -zz * zz / n
        if abs(term) < mp.mpf(10) ** (-50) * max(abs(total), mp.mpf(10) ** -50):
            break
    return complex(2 / mp.sqrt(mp.pi) * total)


def scaled_quadrature_oracle(x: float, y: float) -> float:
    """exp(-y^2) Re[(2/sqrt(pi)) int_0^{x+iy} e^{-t^2} dt] by path quadrature
    at 120-digit precision (real leg then vertical leg)."""
    with mp.workdps(120):
        f = lambda t: mp.exp(-t * t)
        leg1 = mp.quad(f, [0, x])
        leg2 = mp.quad(lambda u: f(mp.mpc(x, u)) * 1j, [0, y])
        val = mp.exp(-mp.mpf(y) ** 2) * mp.re(2 / mp.sqrt(mp.pi) * (leg1 + leg2))
        return float(val)


def test_erf_zero():
    assert erf_complex(0.0) == 0.0


def test_erf_one():
    # series oracle value, frozen
    assert erf_complex(1.0).real == pytest.approx(0.8427007929497149, rel=1e-14)
    assert erf_complex(1.0).imag == 0.0


def test_erf_imaginary_unit():
    value = erf_complex(1j)
    assert value.real == 0.0  # purely imaginary in, purely imaginary out
    assert value.imag == pytest.approx(1.6504257587975429, rel=1e-13)


@pytest.mark.parametrize("y", [2.5, -2.5, 3.0, -3.0, 10.0, 20.0])
def test_erf_imaginary_axis_beyond_series_disk(y):
    # erf(iy) = i*erfi(y): the sign of the imaginary part follows y
    value = erf_complex(complex(0.0, y))
    want = mp.erf(mp.mpc(0, y))
    assert value.real == 0.0
    assert abs(value - complex(want)) <= 1e-13 * float(abs(want))


def test_erf_against_series_oracle_disk():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        radius = rng.uniform(0.0, 5.0)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        z = complex(radius * np.cos(angle), radius * np.sin(angle))
        got = erf_complex(z)
        want = erf_series_oracle(z)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    assert worst <= 1e-10


def test_erf_symmetries_exact():
    rng = np.random.default_rng(7)
    for _ in range(300):
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        assert erf_complex(-z) == -erf_complex(z)
        assert erf_complex(z.conjugate()) == erf_complex(z).conjugate()


def test_erf_overflow_regime_raises():
    with pytest.raises(OverflowError, match="scaled_dip_term"):
        erf_complex(0.5 + 30j)
    with pytest.raises(OverflowError):
        erf_complex(40j)


def test_erf_rejects_non_finite():
    with pytest.raises(ValueError):
        erf_complex(complex(math.nan, 0.0))


def test_scaled_dip_real_axis_is_erf():
    for x in (-3.0, -0.4, 0.7, 2.5, 11.0):
        assert scaled_dip_term(x, 0.0) == float(erf_real(x))


def test_scaled_dip_zero_x_is_zero():
    for y in (0.0, 1.0, 57.0, 1e3):
        assert scaled_dip_term(0.0, y) == 0.0


def test_scaled_dip_against_quadrature_oracle():
    # includes the large-y regime where erf alone overflows
    points = [(2.0, 50.0), (0.3, 8.0), (1.5, 1.5), (0.5, 3.0), (2.0, 2.1), (4.0, 30.0)]
    for x, y in points:
        got = scaled_dip_term(x, y)
        want = scaled_quadrature_oracle(x, y)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-280)


def test_scaled_dip_extreme_y_against_highprec_erf():
    # cross-check with mpmath's own erf at points where quadrature oscillates
    # too much to be practical
    for x, y in [(3.0, 1000.0), (5.0, 100.0), (0.347, 269.55), (12.0, 400.0)]:
        with mp.workdps(60):
            want = float(mp.exp(-mp.mpf(y) ** 2) * mp.re(mp.erf(mp.mpc(x, y))))
        assert scaled_dip_term(x, y) == pytest.approx(want, rel=1e-11, abs=1e-280)


def test_scaled_dip_symmetries():
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.1, 20, 50)
    ys = rng.uniform(0.1, 500, 50)
    for x, y in zip(xs, ys):
        v = scaled_dip_term(x, y)
        assert scaled_dip_term(-x, y) == -v  # odd in x
        assert scaled_dip_term(x, -y) == v  # even in y


def test_scaled_dip_vectorized_matches_scalar():
    rng = np.random.default_rng(11)
    ys = rng.uniform(0.0, 800.0, 200)
    vec = scaled_dip_term(3.7, ys)
    assert vec.shape == ys.shape
    scalars = np.array([scaled_dip_term(3.7, float(y)) for y in ys])
    assert np.array_equal(vec, scalars)


def test_scaled_dip_rejects_non_finite():
    with pytest.raises(ValueError):
        scaled_dip_term(math.inf, 1.0)


def test_erf_real_matches_stdlib():
    grid = np.linspace(-8.0, 8.0, 10001)
    got = erf_real(grid)
    want = np.array([math.erf(t) for t in grid])
    err = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
    assert err.max() <= 5e-15


def test_erf_real_within_two_ulp_odd_and_saturating():
    # the contract of the real-axis erf: accuracy against 40-digit mpmath,
    # saturation, oddness, the scalar type and the complex entry point
    rng = np.random.default_rng(2026)
    x = np.concatenate([
        rng.uniform(-6.0, 6.0, 4000),
        np.linspace(1.99, 2.01, 1001),  # across |x| = 2
        rng.uniform(0.0, 1e-3, 500),
        np.geomspace(1e-300, 1e-3, 100),
    ])
    got = erf_real(x)
    worst = 0.0
    with mp.workdps(40):
        for xi, gi in zip(x.tolist(), got.tolist()):
            want = mp.erf(mp.mpf(xi))
            worst = max(worst, float(abs(mp.mpf(gi) - want)) / math.ulp(float(want)))
    assert worst <= 2.0
    for edge in (6.0, 10.0, 30.0, 1e300):
        assert erf_real(edge) == 1.0
        assert erf_real(-edge) == -1.0
    assert np.array_equal(erf_real(-x), -got)
    assert math.isnan(erf_real(math.nan))
    assert type(erf_real(0.5)) is float
    assert type(erf_real(np.float64(0.5))) is float
    assert type(erf_real(np.array(0.5))) is float
    for xi in x[::50].tolist():
        assert erf_complex(complex(xi, 0.0)) == complex(erf_real(xi), 0.0)


def continued_fraction_16(zeta):
    """The Laplace continued fraction of w at 16 levels for every point: the
    reference of the kernel's 6-level fraction at |zeta| >= 66."""
    r = np.zeros_like(zeta)
    for n in range(16, 0, -1):
        r = 0.5 * n / (zeta - r)
    return (1j / math.sqrt(math.pi)) / (zeta - r)


def test_far_continued_fraction_equals_16_levels_bit_for_bit():
    # from |zeta| = 66 the kernel stops at 6 levels; the points cover the
    # real axis and points just above it, and those below 66 are checked
    # against mpmath by the next test
    rng = np.random.default_rng(26)
    n = 100_000
    modulus = np.exp(rng.uniform(math.log(12.0), math.log(1e8), 3 * n))
    angle = np.concatenate([
        rng.uniform(0.0, math.pi, n),
        rng.choice([0.0, math.pi], n),
        math.pi - 10.0 ** rng.uniform(-12.0, -1.0, n),
    ])
    zeta = modulus * np.cos(angle) + 1j * np.abs(modulus * np.sin(angle))
    far = modulus >= 66
    assert (far & (modulus < 1e3)).sum() >= 20_000
    got = _faddeeva_upper(zeta[far])
    want = continued_fraction_16(zeta[far])
    assert got.tobytes() == want.tobytes()


def test_faddeeva_between_12_and_66_against_mpmath():
    # Weideman's form serves |zeta| < 66, where 6 levels of the fraction
    # are not yet the 16-level value; w = exp(-zeta^2) erfc(-i zeta)
    rng = np.random.default_rng(38)
    n = 1000
    modulus = rng.uniform(12.0, 66.0, 3 * n)
    near_axis = 10.0 ** rng.uniform(-12.0, -1.0, 2 * n)
    angle = np.concatenate([rng.uniform(0.0, math.pi, n), near_axis[:n], math.pi - near_axis[n:]])
    zeta = modulus * np.cos(angle) + 1j * (modulus * np.sin(angle))
    got = _faddeeva_upper(zeta)
    worst = 0.0
    with mp.workdps(30):
        for z, g in zip(zeta.tolist(), got.tolist()):
            zz = mp.mpc(z.real, z.imag)
            want = mp.exp(-zz * zz) * mp.erfc(-1j * zz)
            worst = max(worst, float(abs(mp.mpc(g.real, g.imag) - want) / abs(want)))
    assert worst <= 1e-15


# --- the real-axis erf's table ------------------------------------------------

NODES = np.arange(6 * 256 + 1) / 256  # erf_real's nodes k/256 on [0, 6]
HALFWAY = (NODES[:-1] + NODES[1:]) / 2  # where the node rounding turns and |h| is largest


@pytest.mark.parametrize("x", [
    NODES,
    np.concatenate([HALFWAY, np.nextafter(HALFWAY, 0.0), np.nextafter(HALFWAY, 7.0)]),
    np.array([np.nextafter(6.0, 0.0), 6.0, np.nextafter(6.0, 7.0)]),
    np.array([5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308]),
], ids=["nodes", "halfway-and-one-ulp-either-side", "around-saturation", "subnormals"])
def test_erf_real_within_two_ulp_at_the_table_edges(x):
    x = np.concatenate([x, -x])
    got = erf_real(x)
    worst = 0.0
    with mp.workdps(40):
        for xi, gi in zip(x.tolist(), got.tolist()):
            want = mp.erf(mp.mpf(xi))
            worst = max(worst, float(abs(mp.mpf(gi) - want)) / math.ulp(float(want)))
    assert worst <= 2.0


def test_erf_real_keeps_the_sign_of_zero():
    assert math.copysign(1.0, erf_real(-0.0)) == -1.0
    assert math.copysign(1.0, erf_real(0.0)) == 1.0
    assert np.signbit(erf_real(np.array([0.0, -0.0]))).tolist() == [False, True]


def test_erf_real_does_not_depend_on_the_batch():
    rng = np.random.default_rng(36)
    x = np.concatenate([
        rng.uniform(-7.0, 7.0, 3000),
        rng.choice(HALFWAY, 500) * rng.choice([-1.0, 1.0], 500),
        rng.choice(NODES, 500) * rng.choice([-1.0, 1.0], 500),
        [0.0, -0.0, 6.0, -6.0, 5e-324, math.nan, math.inf, -math.inf],
    ])
    rng.shuffle(x)
    batch = erf_real(x)
    single = np.array([erf_real(xi) for xi in x.tolist()])
    assert batch.tobytes() == single.tobytes()
    assert erf_real(x.reshape(8, -1)).tobytes() == batch.tobytes()
