"""Mother wavelets: time-domain and closed-form Fourier evaluation.

All wavelets are normalized to unit L2 energy and zero mean. The Fourier
convention is psi_hat(w) = integral psi(t) exp(-i w t) dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

_PI4 = np.pi ** 0.25


@dataclass(frozen=True)
class MexicanHat:
    """Second derivative of a Gaussian, psi(t) = (2 / (sqrt(3) pi^(1/4))) (1 - t^2) exp(-t^2/2).

    Real, even, two vanishing moments. psi_hat(w) is real and nonnegative
    with its peak at w = sqrt(2).
    """

    name = "mexican-hat"
    is_complex = False
    # unit-scale support interval; |psi| < 1e-12 outside
    support = (-8.0, 8.0)

    def psi(self, t):
        t = np.asarray(t, dtype=np.float64)
        return (2.0 / (np.sqrt(3.0) * _PI4)) * (1.0 - t * t) * np.exp(-0.5 * t * t)

    def psi_hat(self, w):
        w = np.asarray(w, dtype=np.float64)
        return (2.0 / (np.sqrt(3.0) * _PI4)) * np.sqrt(2.0 * np.pi) * w * w * np.exp(-0.5 * w * w)


@dataclass(frozen=True)
class Morlet:
    """Complex Morlet with admissibility correction.

    psi(t) = c pi^(-1/4) (exp(i w0 t) - kappa) exp(-t^2/2), kappa = exp(-w0^2/2).
    The kappa term makes the mean exactly zero; c restores unit energy. Both
    corrections are ~1e-6 or smaller for the allowed w0 >= 5 but are kept so
    the admissibility and energy contracts hold to tight tolerance.
    """

    omega0: float = 6.0
    name = "morlet"
    is_complex = True
    support = (-8.0, 8.0)

    def __post_init__(self):
        if not (np.isfinite(self.omega0) and self.omega0 >= 5.0):
            raise ValueError(f"morlet center frequency must be >= 5, got {self.omega0}")

    @property
    def _kappa(self) -> float:
        return np.exp(-0.5 * self.omega0 ** 2)

    @property
    def _norm(self) -> float:
        w0sq = self.omega0 ** 2
        return (1.0 - 2.0 * np.exp(-0.75 * w0sq) + np.exp(-w0sq)) ** -0.5

    def psi(self, t):
        t = np.asarray(t, dtype=np.float64)
        envelope = np.exp(-0.5 * t * t)
        return self._norm / _PI4 * (np.exp(1j * self.omega0 * t) - self._kappa) * envelope

    def psi_hat(self, w):
        w = np.asarray(w, dtype=np.float64)
        gauss = lambda x: np.exp(-0.5 * x * x)
        return (self._norm / _PI4 * np.sqrt(2.0 * np.pi)
                * (gauss(w - self.omega0) - self._kappa * gauss(w)))


@dataclass(frozen=True)
class Haar:
    """Haar wavelet, +1 on [0, 1/2), -1 on [1/2, 1), zero elsewhere."""

    name = "haar"
    is_complex = False
    support = (0.0, 1.0)

    def psi(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.where((t >= 0.0) & (t < 0.5), 1.0,
                        np.where((t >= 0.5) & (t < 1.0), -1.0, 0.0))

    def psi_hat(self, w):
        # (1 - exp(-iw/2))^2 / (iw) = 4i sin^2(w/4) exp(-iw/2) / w, -> 0 as w -> 0
        w = np.asarray(w, dtype=np.float64)
        out = np.zeros(w.shape, dtype=np.complex128)
        nz = w != 0.0
        wn = w[nz]
        out[nz] = 4.0j * np.sin(0.25 * wn) ** 2 * np.exp(-0.5j * wn) / wn
        return out


Wavelet = Union[MexicanHat, Morlet, Haar]


def support_radius(w: Wavelet) -> float:
    """Largest |t| in the unit-scale support, used for cone-of-influence widths."""
    lo, hi = w.support
    return max(abs(lo), abs(hi))


def by_name(name: str, omega0: float = 6.0) -> Wavelet:
    """Look up a wavelet by its CLI name."""
    if name == "mexican-hat":
        return MexicanHat()
    if name == "morlet":
        return Morlet(omega0=omega0)
    if name == "haar":
        return Haar()
    raise ValueError(f"unknown wavelet {name!r} (expected mexican-hat, morlet, or haar)")
