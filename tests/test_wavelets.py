import numpy as np
import pytest
from scipy.integrate import quad

from wavekit import Haar, MexicanHat, Morlet, by_name, support_radius

ALL = [MexicanHat(), Morlet(), Morlet(omega0=8.0), Haar()]


def _quad_re_im(fn, lo, hi, pts):
    re = quad(lambda t: float(np.real(fn(t))), lo, hi, points=pts, limit=200)[0]
    im = quad(lambda t: float(np.imag(fn(t))), lo, hi, points=pts, limit=200)[0]
    return complex(re, im)


@pytest.mark.parametrize("w", ALL, ids=lambda w: w.name)
def test_zero_mean_and_unit_energy(w):
    lo, hi = w.support
    pts = [0.5] if w.name == "haar" else None
    mean = _quad_re_im(w.psi, lo, hi, pts)
    energy = quad(lambda t: float(np.abs(w.psi(t)) ** 2), lo, hi,
                  points=pts, limit=200)[0]
    assert abs(mean) < 1e-9
    assert abs(energy - 1.0) < 1e-9


@pytest.mark.parametrize("w", ALL, ids=lambda w: w.name)
def test_negligible_outside_support(w):
    lo, hi = w.support
    t = np.concatenate([np.linspace(lo - 4, lo - 1e-9, 50),
                        np.linspace(hi + 1e-9, hi + 4, 50)])
    assert np.abs(w.psi(t)).max() < 1e-12


@pytest.mark.parametrize("w", ALL, ids=lambda w: w.name)
@pytest.mark.parametrize("omega", [0.3, 1.0, 2.4, 7.0])
def test_psi_hat_matches_fourier_integral(w, omega):
    lo, hi = w.support
    pts = [0.5] if w.name == "haar" else None
    ref = _quad_re_im(lambda t: w.psi(t) * np.exp(-1j * omega * t),
                      lo, hi, pts)
    got = complex(w.psi_hat(omega))
    assert got == pytest.approx(ref, abs=1e-9)


def test_psi_hat_vanishes_at_zero_frequency():
    for w in ALL:
        assert abs(complex(w.psi_hat(0.0))) < 1e-9


def test_mexican_hat_spectrum_peaks_at_sqrt2():
    w = MexicanHat()
    grid = np.linspace(0.1, 4.0, 20000)
    peak = grid[np.argmax(w.psi_hat(grid))]
    assert peak == pytest.approx(np.sqrt(2.0), abs=1e-3)
    # stationarity at the analytic peak
    eps = 1e-6
    s2 = np.sqrt(2.0)
    assert w.psi_hat(s2) >= w.psi_hat(s2 - eps)
    assert w.psi_hat(s2) >= w.psi_hat(s2 + eps)


def test_morlet_rejects_low_center_frequency():
    with pytest.raises(ValueError):
        Morlet(omega0=4.0)
    with pytest.raises(ValueError):
        Morlet(omega0=np.nan)
    with pytest.raises(ValueError, match="squared must be finite"):
        Morlet(omega0=1e155)
    Morlet(omega0=1e154)  # its square still fits float64
    Morlet(omega0=5.0)  # boundary is allowed


def test_haar_values():
    w = Haar()
    assert np.array_equal(w.psi([0.0, 0.25, 0.5, 0.75, 1.0, -0.1]),
                          [1.0, 1.0, -1.0, -1.0, 0.0, 0.0])


def test_by_name_round_trip():
    for w in (MexicanHat(), Haar()):
        assert by_name(w.name) == w
    assert by_name("morlet", omega0=7.5) == Morlet(omega0=7.5)
    with pytest.raises(ValueError):
        by_name("sombrero")


def test_support_radius():
    assert support_radius(MexicanHat()) == 8.0
    assert support_radius(Haar()) == 1.0
