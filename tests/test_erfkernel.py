"""Kernel accuracy against an independent high-precision series oracle."""

import math

import mpmath as mp
import numpy as np
import pytest

from disphom import erf_complex, erf_real, scaled_dip_term
from disphom.erfkernel import _erf_series

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


def test_erf_real_series_branch_is_complex_series_real_part():
    # the |x| <= 2 branch sums the series in float64; on the real axis that
    # is the real part of the complex sum, bit for bit
    rng = np.random.default_rng(3)
    x = np.concatenate([np.linspace(0.0, 2.0, 20001), rng.uniform(0.0, 2.0, 20000)])
    assert np.array_equal(erf_real(x), _erf_series(x + 0j).real)
    assert np.array_equal(erf_real(-x), -_erf_series(x + 0j).real)
