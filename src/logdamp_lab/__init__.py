"""Numerical laboratory for a second-order evolution equation whose damping
acts through the logarithmic symbol log(1 + |xi|^2).

The model diagonalizes under the Fourier transform, so everything here is
built from exact per-frequency propagators, radial quadrature, and decay-rate
fits; see the module docstrings for the division of labor.
"""

from .data_catalog import DataProfile, ProfileTerms, make_profile, parse_profile, \
    profile_terms
from .propagator import PropagatorMode, propagate_closed
from .quadrature import NonConvergence, QuadResult, TailNotBounded, a_const, f_osc, \
    integral_Ip, integral_Jp, integrate, optimality_integral, substitution_oracle
from .symbols import SpectralState, dissipation_f, dissipation_f_effective, energy_e, \
    energy_e0, log_symbol, phi, rho, source_r

__all__ = [
    "DataProfile", "ProfileTerms", "make_profile", "parse_profile", "profile_terms",
    "PropagatorMode", "propagate_closed", "NonConvergence", "QuadResult",
    "TailNotBounded", "a_const", "f_osc", "integral_Ip", "integral_Jp", "integrate",
    "optimality_integral", "substitution_oracle", "SpectralState", "dissipation_f",
    "dissipation_f_effective", "energy_e", "energy_e0", "log_symbol", "phi", "rho",
    "source_r",
]

__version__ = "0.1.0"
