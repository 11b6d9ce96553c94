"""Structure-preserving model order reduction for dissipative systems.

The package closes linearly damped Hamiltonian dynamics into a canonical
Hamiltonian system with memory (a Volterra constraint on an auxiliary
co-state), integrates it with a structure-preserving splitting scheme,
reduces it on ortho-symplectic bases, and benchmarks the result against
symplectic and unstructured Galerkin baselines.
"""

from .benchmarks import (Benchmark, LadderConfig, SineGordonConfig,
                         WaveConfig, benchmark_names, build_benchmark,
                         kink_profile, make_config, skew_to_canonical,
                         spline_bump)
from .dynamics import (DissipativeModel, NonFiniteError, RunReport,
                       TddSystem, VerletStepper, cholesky_factor, integrate,
                       integrate_dissipative, integrate_rk4)
from .reduction import (PodModel, ReducedDissipative, ReducedTdd,
                        TrajectoryError, l2_error, pod_baseline,
                        psd_baseline, rdh_reduce, reconstruct,
                        spectral_abscissa, spectral_radius,
                        symplectic_galerkin, terminal_growth)
from .symplectic import (CanonicalForm, DegenerateVector, GreedyResult,
                         OrthoSymplecticBasis, SnapshotSet, cotangent_lift,
                         greedy_basis, pod_basis, symplectic_gram_schmidt)

__version__ = "0.1.0"

__all__ = [
    "Benchmark",
    "CanonicalForm",
    "DegenerateVector",
    "DissipativeModel",
    "GreedyResult",
    "LadderConfig",
    "NonFiniteError",
    "OrthoSymplecticBasis",
    "PodModel",
    "ReducedDissipative",
    "ReducedTdd",
    "RunReport",
    "SineGordonConfig",
    "SnapshotSet",
    "TddSystem",
    "TrajectoryError",
    "VerletStepper",
    "WaveConfig",
    "benchmark_names",
    "build_benchmark",
    "cholesky_factor",
    "cotangent_lift",
    "greedy_basis",
    "integrate",
    "integrate_dissipative",
    "integrate_rk4",
    "kink_profile",
    "l2_error",
    "make_config",
    "pod_baseline",
    "pod_basis",
    "psd_baseline",
    "rdh_reduce",
    "reconstruct",
    "skew_to_canonical",
    "spectral_abscissa",
    "spectral_radius",
    "spline_bump",
    "symplectic_galerkin",
    "symplectic_gram_schmidt",
    "terminal_growth",
    "__version__",
]
