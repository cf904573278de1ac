"""Spectral computations on high-dimensional spheres and their Gaussian limits.

The library computes closed spectra and Dirichlet eigenvalues of spheres
S^N(a) projected to a fixed number n of coordinates, the matching spectra
of the n-dimensional Gaussian space with variance alpha^2, and the exact
and numerical comparisons between the two along the canonical radius
schedule a_N = alpha * sqrt(N - 1).

The public names load on first access (PEP 562), each with its submodule
only: the exact algebra runs without NumPy and SciPy, which ``eigensolve``
and ``quadrature`` import.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "convergence": ("ConvergenceRow", "EigenfunctionComparison", "closed_spectrum_table",
                    "dirichlet_convergence_table", "eigenfunction_comparison",
                    "proof_identities"),
    "eigensolve": ("EigenResult", "SolverError", "SturmLiouvilleSpec", "cap_eigenvalue",
                   "halfline_eigenvalue", "nu_of_s", "ode_residual"),
    "geometry": ("GaussSpec", "SphereSpec", "WeightProfile", "normalization_Z",
                 "omega_density", "sphere_volume_log", "varpi_and_A"),
    "harmonics": ("HarmonicLiftFamily", "build_family", "build_P", "build_Q_gauss",
                  "build_Q_sphere", "check_harmonic", "hermite", "ou_apply",
                  "projected_eigenspace_dimension"),
    "heatflow": ("BasisTag", "HeatRow", "SpectralCoefficients", "gauss_basis",
                 "heat_convergence_table", "heat_evolve", "recovery_sequence", "sphere_basis"),
    "indices": ("MultiIndex", "SpectrumIndex", "enumerate_multi_indices",
                "gauss_multiplicity", "sphere_multiplicity"),
    "polyalg": ("LiftedPoly", "RationalPoly", "dumps", "euler_pairing", "laplacian",
                "lifted_laplacian", "rational_rank"),
    "quadrature": ("QuadratureError", "QuadratureRule", "cap_volume_fraction",
                   "hermite_rule", "integrate_gauss", "integrate_interval", "legendre_rule",
                   "lifted_norm_sq_exact", "mc_sphere_integral", "sample_sphere",
                   "sphere_inner_product", "sphere_monomial_moment"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_SOURCE, *_EXPORTS]


def _bind(namespace: dict, name: str):
    """Public ``name``, imported with its submodule and bound in ``namespace``.

    A name already bound there is returned as it is.  A module that binds
    the solvers this way on first use imports them only when it needs them,
    and keeps them as its own names, where they can be looked up or
    replaced (a tracer does) as after a top-level import.
    """
    if name not in namespace:
        module = importlib.import_module(f"{__name__}.{_SOURCE[name]}")
        namespace[name] = getattr(module, name)
    return namespace[name]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return _bind(globals(), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
