"""Structure-preserving and reference model reduction.

Projects a time-dispersive-dissipative system onto an ortho-symplectic basis
(keeping the closed Hamiltonian structure, so the reduced model can be
integrated symplectically), and builds the two reference baselines: the
symplectic projection of the plain dissipative form, and an unstructured
POD/Runge-Kutta model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DissipativeModel, TddSystem, cholesky_factor
from .symplectic import OrthoSymplecticBasis, SnapshotSet


def _through_positions(model, rows: np.ndarray, back: np.ndarray):
    """The model's gradient and potential pulled back through the position
    rows ``rows`` (n x m) of a basis: y -> back g(rows y) and
    y -> V(rows y), of a vector or of each column of a block; None where
    the model's is. ``back`` (m' x n) maps the gradient to reduced
    coordinates. Both arrays are kept C-contiguous."""
    grad, potential = model.nonlinear_grad, model.potential
    rows = np.ascontiguousarray(rows)
    back = np.ascontiguousarray(back)
    red_grad = red_potential = None
    if grad is not None:
        def red_grad(y):
            return back @ grad(rows @ y)
    if potential is not None:
        def red_potential(y):
            return potential(rows @ y)
    return red_grad, red_potential


def _pulled_back(basis: OrthoSymplecticBasis, model) -> dict:
    """Constructor keywords of a model reduced onto an ortho-symplectic
    basis A: the coordinates A^T z0, A^T u and A^T z_bd, the gradient
    y_q -> Phi^T g(Phi y_q) and the potential y_q -> V(Phi y_q) of the
    reduced positions, through the q rows Phi = E_q of the basis's lead
    block E (None where the model's is), and the unit grid weight.

    A = [[E_q, -E_p], [E_p, E_q]], so the reduced model keeps the
    potential one of its positions only when E_p = 0, as on a cotangent
    basis; on a basis that mixes q and p the potential of a nonlinear
    model would read the reduced momentum, and ``ValueError`` is
    raised."""
    a = basis.matrix
    if a.shape[0] != model.dim:
        raise ValueError(
            f"basis dimension {a.shape[0]} does not match model {model.dim}")
    nonlinear = model.nonlinear_grad is not None or model.potential is not None
    if nonlinear and basis.lead[model.n:].any():
        raise ValueError(
            f"the {basis.n_columns}-column basis mixes q and p (its lead "
            f"block has nonzero momentum rows), so the reduced potential "
            f"of {model.name or 'the model'} would read the reduced momentum")
    phi = basis.lead[: model.n]
    red_grad, red_potential = _through_positions(model, phi, phi.T)
    u, bd = model.input_vector, model.boundary_vector
    return dict(z0=a.T @ model.z0, nonlinear_grad=red_grad,
                potential=red_potential,
                input_vector=None if u is None else a.T @ u,
                boundary_vector=None if bd is None else a.T @ bd, dx=1.0)


@dataclass
class ReducedTdd:
    """Reduced closed model plus the basis needed to reconstruct states."""

    system: TddSystem
    basis: OrthoSymplecticBasis


def _closed_reduction(system: TddSystem, basis: OrthoSymplecticBasis,
                      reduced_chi) -> ReducedTdd:
    """The closed model on the basis A with susceptibility
    ``reduced_chi(A)``, symmetrized. The reduced stiffness factor is the
    upper-triangular Cholesky factor of the projected quadratic form
    A^T K^T K A, well defined for any full-rank K; every other field is
    pulled back through A."""
    a = basis.matrix
    fields = _pulled_back(basis, system)
    ka = system.K @ a
    k_red = cholesky_factor(ka.T @ ka, name="projected stiffness")
    chi_red = reduced_chi(a)
    reduced = TddSystem(K=k_red, chi=0.5 * (chi_red + chi_red.T),
                        name=f"{system.name}-reduced-{basis.n_columns}",
                        **fields)
    return ReducedTdd(system=reduced, basis=basis)


def rdh_reduce(system: TddSystem, basis: OrthoSymplecticBasis) -> ReducedTdd:
    """Reduce a time-dispersive-dissipative system onto an ortho-symplectic
    basis; the result is again a TddSystem (dissipation kept inside the
    closed formulation via the projected susceptibility A^T chi A)."""
    def projected_chi(a):
        # chi A transposed into C order, the layout of a dense A^T chi: BLAS
        # rounds a product by operand layout, and so chi_red is bitwise
        # A^T chi A
        return np.ascontiguousarray(system.chi_apply(a).T) @ a
    return _closed_reduction(system, basis, projected_chi)


def symplectic_galerkin(system: TddSystem,
                        basis: OrthoSymplecticBasis) -> ReducedTdd:
    """Conservative symplectic Galerkin projection: the reduction above with
    the susceptibility dropped (chi_red = 0)."""
    return _closed_reduction(system, basis,
                             lambda a: np.zeros((a.shape[1], a.shape[1])))


@dataclass
class ReducedDissipative:
    model: DissipativeModel
    basis: OrthoSymplecticBasis


def psd_baseline(model: DissipativeModel,
                 basis: OrthoSymplecticBasis) -> ReducedDissipative:
    """Symplectic projection of the plain dissipative form (no string
    extension): dy/dt = J_2k grad H(Ay) - A^+ R A y + A^+ u, with the
    symplectic inverse A^+ = A^T of the ortho-symplectic basis."""
    a = basis.matrix
    fields = _pulled_back(basis, model)
    reduced = DissipativeModel(
        stiffness=a.T @ model.stiffness @ a,
        drift=None if model.drift is None else a.T @ model.drift @ a,
        name=f"{model.name}-psd-{basis.n_columns}", **fields,
    )
    return ReducedDissipative(model=reduced, basis=basis)


@dataclass
class PodModel:
    """Unstructured Galerkin model dy/dt = M y + c + n(y) on a plain POD
    basis V; integrated with classical RK4."""

    matrix: np.ndarray
    constant: np.ndarray | None
    nonlinear: object
    v: np.ndarray
    y0: np.ndarray

    def rhs(self, y):
        dy = self.matrix @ y
        if self.constant is not None:
            dy = dy + self.constant
        if self.nonlinear is not None:
            dy = dy + self.nonlinear(y)
        return dy


def pod_baseline(model: DissipativeModel, v: np.ndarray) -> PodModel:
    """Plain Galerkin projection of the dissipative form onto an orthonormal
    (not symplectic) basis V."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != model.dim:
        raise ValueError("POD basis does not match the model dimension")
    matrix = v.T @ model.linear_operator() @ v
    c = model.constant_term()
    constant = None if c is None else v.T @ c
    # the flow's J (g(q), 0) = (0, -g(q)), so V^T J (g(V_q y), 0) is
    # -V_p^T g(V_q y)
    n = model.n
    nonlinear, _ = _through_positions(model, v[:n], -v[n:].T)
    return PodModel(matrix=matrix, constant=constant, nonlinear=nonlinear,
                    v=v, y0=v.T @ model.z0)


def spectral_abscissa(matrix: np.ndarray) -> float:
    """Largest real part over the eigenvalues of a dense operator.

    Positive values mean the linear flow grows without bound; reported as a
    stability diagnostic for reduced baseline models that may have lost the
    dissipativity of the full system.
    """
    return float(np.linalg.eigvals(np.asarray(matrix, dtype=float)).real.max())


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue modulus of a dense step map, such as a run's
    ``step_map``: above 1 the map's iterates grow exponentially."""
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def terminal_growth(error_series) -> bool:
    """True when a series ends at its maximum after growing at least
    tenfold beyond everything seen in the first half of the run, or starts
    finite and later turns non-finite (an energy that overflowed); the
    signature of an energy error that grows without bound."""
    err = np.asarray(error_series, dtype=float)
    if err.size < 2 or not np.isfinite(err[0]):
        return False
    if not np.isfinite(err).all():
        return True
    early = float(err[: max(1, err.size // 2)].max())
    if early <= 0.0:
        return False
    return bool(err[-1] >= err.max() * (1.0 - 1e-9)
                and err[-1] >= 10.0 * early)


def reconstruct(lift: np.ndarray, snapshots: SnapshotSet,
                dx: float) -> SnapshotSet:
    """Lift reduced-coordinate snapshots back to the full space through a
    basis matrix: the states ``lift @ Y``."""
    return SnapshotSet(times=snapshots.times, states=lift @ snapshots.states,
                       dx=dx)


def weighted_norms(states: np.ndarray, dx: float) -> np.ndarray:
    """The L2 norm of each column of ``states`` with the sqrt(dx) grid
    factor, the norm of every error and reference column."""
    return np.sqrt(dx) * np.linalg.norm(states, axis=0)


@dataclass
class TrajectoryError:
    """Per-instant and aggregate L2 distances between two trajectories.

    ``weighted`` norms carry the sqrt(dx) grid factor of the reference;
    relative aggregates are normalized by the peak weighted reference norm
    (against an all-zero reference they read 0 for a zero error, inf
    otherwise).
    """

    times: np.ndarray
    per_instant: np.ndarray
    reference_norms: np.ndarray
    dx: float

    @property
    def per_instant_unweighted(self):
        return self.per_instant / np.sqrt(self.dx)

    @property
    def max_weighted(self) -> float:
        return float(self.per_instant.max())

    @property
    def mean_weighted(self) -> float:
        return float(self.per_instant.mean())

    @property
    def max_unweighted(self) -> float:
        return float(self.per_instant_unweighted.max())

    def _relative(self, error: float) -> float:
        """``error`` over the peak reference norm; against an all-zero
        reference, 0 for a zero error and inf for any other."""
        peak = float(self.reference_norms.max())
        if peak == 0.0:
            return 0.0 if error == 0.0 else float("inf")
        return error / peak

    @property
    def max_relative(self) -> float:
        return self._relative(self.max_weighted)

    @property
    def mean_relative(self) -> float:
        return self._relative(self.mean_weighted)


def l2_error(reference: SnapshotSet, candidate: SnapshotSet) -> TrajectoryError:
    """Columnwise L2 distance between two snapshot sets on the same grid."""
    if reference.states.shape != candidate.states.shape:
        raise ValueError(
            f"snapshot shapes differ: {reference.states.shape} vs "
            f"{candidate.states.shape}"
        )
    t_scale = max(1.0, float(np.abs(reference.times).max()))
    if np.abs(reference.times - candidate.times).max() > 1e-12 * t_scale:
        raise ValueError("snapshot time grids differ")
    diff = reference.states - candidate.states
    return TrajectoryError(
        times=reference.times.copy(),
        per_instant=weighted_norms(diff, reference.dx),
        reference_norms=weighted_norms(reference.states, reference.dx),
        dx=reference.dx,
    )
