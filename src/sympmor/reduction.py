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


def _pulled_back_callables(system, basis: OrthoSymplecticBasis):
    """Reduced nonlinear gradient A^T g(A y) and potential V(A y)."""
    grad = potential = None
    if system.nonlinear_grad is not None:
        full_grad = system.nonlinear_grad

        def grad(y):
            return basis.coefficients(np.asarray(full_grad(basis.lift(y)),
                                                 dtype=float))
    if system.potential is not None:
        full_pot = system.potential

        def potential(y):
            return full_pot(basis.lift(y))
    return grad, potential


@dataclass
class ReducedTdd:
    """Reduced closed model plus the basis needed to reconstruct states."""

    system: TddSystem
    basis: OrthoSymplecticBasis


def rdh_reduce(system: TddSystem, basis: OrthoSymplecticBasis) -> ReducedTdd:
    """Reduce a time-dispersive-dissipative system onto an ortho-symplectic
    basis; the result is again a TddSystem (dissipation kept inside the
    closed formulation via the projected susceptibility A^T chi A). The
    reduced stiffness factor is the upper-triangular Cholesky factor of the
    projected quadratic form A^T K^T K A, well defined for any full-rank K.
    """
    if basis.dim != system.dim:
        raise ValueError(
            f"basis dimension {basis.dim} does not match system {system.dim}"
        )
    a = basis.matrix
    ka = system.k_op @ a
    gram = ka.T @ ka
    gram = 0.5 * (gram + gram.T)
    k_red = cholesky_factor(gram, name="projected stiffness")
    # chi A transposed into C order, the layout of a dense A^T chi: BLAS
    # rounds a product by operand layout, and so chi_red is bitwise A^T chi A
    chi_red = np.ascontiguousarray(system.chi_apply(a).T) @ a
    chi_red = 0.5 * (chi_red + chi_red.T)
    grad, potential = _pulled_back_callables(system, basis)
    reduced = TddSystem(
        K=k_red,
        chi=chi_red,
        z0=basis.coefficients(system.z0),
        nonlinear_grad=grad,
        potential=potential,
        input_vector=None if system.input_vector is None
        else basis.coefficients(system.input_vector),
        boundary_vector=None if system.boundary_vector is None
        else basis.coefficients(system.boundary_vector),
        dx=1.0,
        name=f"{system.name}-reduced-{basis.n_columns}",
    )
    return ReducedTdd(system=reduced, basis=basis)


def symplectic_galerkin(system: TddSystem,
                        basis: OrthoSymplecticBasis) -> ReducedTdd:
    """Conservative symplectic Galerkin projection: the reduction above with
    the susceptibility dropped (chi = 0)."""
    conservative = TddSystem(
        K=system.K, chi=np.zeros_like(system.chi), z0=system.z0,
        nonlinear_grad=system.nonlinear_grad, potential=system.potential,
        input_vector=system.input_vector,
        boundary_vector=system.boundary_vector,
        dx=system.dx, name=system.name, validate=False,
    )
    return rdh_reduce(conservative, basis)


@dataclass
class ReducedDissipative:
    model: DissipativeModel
    basis: OrthoSymplecticBasis


def psd_baseline(model: DissipativeModel,
                 basis: OrthoSymplecticBasis) -> ReducedDissipative:
    """Symplectic projection of the plain dissipative form (no string
    extension): dy/dt = J_2k grad H(Ay) - A^+ R A y + A^+ u."""
    if 2 * basis.n != model.dim:
        raise ValueError("basis does not match the model dimension")
    a = basis.matrix
    a_plus = basis.symplectic_inverse()
    stiff = a.T @ model.stiffness @ a
    grad, potential = _pulled_back_callables(model, basis)
    reduced = DissipativeModel(
        stiffness=0.5 * (stiff + stiff.T),
        drift=None if model.drift is None else a_plus @ model.drift @ a,
        z0=a_plus @ model.z0,
        nonlinear_grad=grad,
        potential=potential,
        input_vector=None if model.input_vector is None
        else a_plus @ model.input_vector,
        boundary_vector=None if model.boundary_vector is None
        else a.T @ model.boundary_vector,
        dx=1.0,
        name=f"{model.name}-psd-{basis.n_columns}",
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
    j = model.J
    matrix = v.T @ model.linear_operator() @ v
    constant = None
    if model.boundary_vector is not None or model.input_vector is not None:
        c = np.zeros(model.dim)
        if model.boundary_vector is not None:
            c = c + j.apply(-model.boundary_vector)
        if model.input_vector is not None:
            c = c + model.input_vector
        constant = v.T @ c
    nonlinear = None
    if model.nonlinear_grad is not None:
        full_grad = model.nonlinear_grad

        def nonlinear(y):
            return v.T @ j.apply(np.asarray(full_grad(v @ y), dtype=float))
    return PodModel(matrix=matrix, constant=constant, nonlinear=nonlinear,
                    v=v, y0=v.T @ model.z0)


def spectral_abscissa(matrix: np.ndarray) -> float:
    """Largest real part over the eigenvalues of a dense operator.

    Positive values mean the linear flow grows without bound; reported as a
    stability diagnostic for reduced baseline models that may have lost the
    dissipativity of the full system.
    """
    return float(np.linalg.eigvals(np.asarray(matrix, dtype=float)).real.max())


def terminal_growth(error_series) -> bool:
    """True when a series ends at its maximum after growing at least
    tenfold beyond everything seen in the first half of the run; the
    signature of an energy error that grows without bound."""
    err = np.asarray(error_series, dtype=float)
    if err.size < 2 or not np.isfinite(err).all():
        return False
    early = float(err[: max(1, err.size // 2)].max())
    if early <= 0.0:
        return False
    return bool(err[-1] >= err.max() * (1.0 - 1e-9)
                and err[-1] >= 10.0 * early)


def reconstruct(mapper, snapshots: SnapshotSet, dx: float) -> SnapshotSet:
    """Lift reduced-coordinate snapshots back to the full space.

    ``mapper`` is an OrthoSymplecticBasis (paired lift) or a plain matrix.
    """
    if isinstance(mapper, OrthoSymplecticBasis):
        states = mapper.lift(snapshots.states)
    else:
        states = np.asarray(mapper, dtype=float) @ snapshots.states
    return SnapshotSet(times=snapshots.times, states=states, dx=dx)


@dataclass
class TrajectoryError:
    """Per-instant and aggregate L2 distances between two trajectories.

    ``weighted`` norms carry the sqrt(dx) grid factor of the reference;
    relative aggregates are normalized by the peak weighted reference norm.
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

    @property
    def mean_unweighted(self) -> float:
        return float(self.per_instant_unweighted.mean())

    @property
    def max_relative(self) -> float:
        return self.max_weighted / float(self.reference_norms.max())

    @property
    def mean_relative(self) -> float:
        return self.mean_weighted / float(self.reference_norms.max())


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
    w = np.sqrt(reference.dx)
    diff = reference.states - candidate.states
    return TrajectoryError(
        times=reference.times.copy(),
        per_instant=w * np.linalg.norm(diff, axis=0),
        reference_norms=w * np.linalg.norm(reference.states, axis=0),
        dx=reference.dx,
    )
