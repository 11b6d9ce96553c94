"""Dissipative Hamiltonian dynamics in time-dispersive form.

The model class evolves

    dz/dt = J (K^T f + g(z) - z_bd) + u,
    f + chi * integral_0^t f ds = K z,

where the auxiliary co-state f carries the memory of hidden bath modes; the
susceptibility chi is symmetric positive semidefinite. A trapezoid rule
discretizes the memory integral, and a Stoermer-Verlet scheme staggers the
kick/drift updates. With the memory tail split between the step endpoints
(start-of-step tail for the first kick and the first drift gradient,
end-of-step tail for the rest) the composite map is time symmetric and the
scheme is second order; a single shared tail drops it to first order.

The module also provides the plain dissipative form dz/dt = J grad H - R z + u,
advanced by the same Verlet stages with the stage matrix S + J R, and a
classical RK4 loop, both used by reference baselines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .symplectic import CanonicalForm, SnapshotSet


class NonFiniteError(RuntimeError):
    """State or co-state left the range of floating point numbers."""

    def __init__(self, step: int, what: str = "state"):
        self.step = step
        super().__init__(f"{what} became non-finite at step {step}")


def _sym_deviation(m: np.ndarray) -> float:
    return float(np.abs(m - m.T).max())


# Full-order operators with at most this share of nonzero entries are applied
# in CSR. Measured with one BLAS thread, a CSR matvec beats the dense one
# above about 5 % nonzeros at dimension 200 and above about 30 % at
# dimension 1000; the wave and sine-Gordon factors hold 0.2 % at n = 500,
# the ladder's K and the triangular reduced factors far more than the cut.
_SPARSE_SHARE = 0.05


class _Csr(scipy.sparse.csr_array):
    """CSR array that reports the bytes of its data, indices and indptr as
    ``nbytes``, like the dense operators it stands in for."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


def _operator(m: np.ndarray):
    """``m`` as a CSR matrix when at most _SPARSE_SHARE of its entries are
    nonzero, else ``m`` itself."""
    if np.count_nonzero(m) <= _SPARSE_SHARE * m.size:
        return _Csr(m)
    return m


def _dense(m) -> np.ndarray:
    return m.toarray() if scipy.sparse.issparse(m) else m


def _as_stored(m):
    """A stepper operator derived from ``K``: sparse results stay CSR."""
    return _Csr(m) if scipy.sparse.issparse(m) else m


def _reciprocal_condition(k) -> float:
    """Estimate of 1 / cond_1(k) from one LU factorization; 0 if singular.

    ``k`` is a dense array or a sparse matrix. The sparse path bounds
    ||k^{-1}||_1 from below with ``onenormest`` on the LU solves, so it
    costs about the fill of the factors; the dense path uses LAPACK's
    estimator. Either estimate may overstate the true 1 / cond_1 (by a small
    factor in practice), and 1 / cond_1 lies within a factor dim of
    sigma_min / sigma_max.
    """
    norm = float(abs(k).sum(axis=0).max())
    if norm == 0.0:
        return 0.0
    if not scipy.sparse.issparse(k):
        lu, _, info = scipy.linalg.lapack.dgetrf(k)
        if info > 0:
            return 0.0
        rcond, _ = scipy.linalg.lapack.dgecon(lu, norm)
        return float(rcond)
    # imported here: its modules add about 2 MB of resident memory, which a
    # process that only meets dense systems need not pay
    from scipy.sparse import linalg as sparse_linalg
    try:
        lu = sparse_linalg.splu(scipy.sparse.csc_array(k))
    except RuntimeError:       # "Factor is exactly singular"
        return 0.0
    inverse = sparse_linalg.LinearOperator(
        k.shape, matvec=lu.solve, rmatvec=lambda v: lu.solve(v, trans="T"),
        dtype=float)
    return 1.0 / (norm * sparse_linalg.onenormest(inverse))


def cholesky_factor(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Upper-triangular factor L with L^T L = M, for symmetric PSD M.

    Raises ``np.linalg.LinAlgError`` naming the first failing pivot when M is
    not positive definite, and ``ValueError`` when M is not symmetric to
    1e-12 relative.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if _sym_deviation(m) > 1e-12 * scale:
        raise ValueError(f"{name} is not symmetric to 1e-12 relative")
    msym = 0.5 * (m + m.T)
    try:
        lower = np.linalg.cholesky(msym)
    except np.linalg.LinAlgError:
        # locate the smallest failing leading principal block for the message
        lo, hi = 1, m.shape[0]
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                np.linalg.cholesky(msym[:mid, :mid])
                lo = mid + 1
            except np.linalg.LinAlgError:
                hi = mid
        raise np.linalg.LinAlgError(
            f"{name} is not positive definite: pivot {lo - 1} fails"
        ) from None
    return lower.T


def symmetric_sqrt(chi: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Symmetric PSD square root of a symmetric PSD matrix.

    Diagonal matrices take a fast path. Eigenvalues in [-tol*scale, 0) are
    treated as roundoff and clamped to zero; anything below that raises.
    """
    chi = np.asarray(chi, dtype=float)
    scale = max(1.0, float(np.abs(chi).max()))
    offdiag = chi - np.diag(np.diag(chi))
    if not offdiag.any():
        return np.diag(_diagonal_sqrt(np.diag(chi), tol * scale))
    vals, vecs = np.linalg.eigh(0.5 * (chi + chi.T))
    if vals.min() < -tol * scale:
        raise ValueError(
            f"susceptibility has negative eigenvalue {vals.min():.3e}"
        )
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    return 0.5 * (root + root.T)


def _diagonal_sqrt(d: np.ndarray, floor: float) -> np.ndarray:
    """Square roots of a diagonal; entries in [-floor, 0) count as zero."""
    if d.min() < -floor:
        raise ValueError(f"susceptibility has negative eigenvalue {d.min():.3e}")
    return np.sqrt(np.clip(d, 0.0, None))


def _optional_array(v):
    return None if v is None else np.asarray(v, dtype=float)


class _ExtraTerms:
    """Terms both model forms share beyond their quadratic energy: a
    potential V with gradient g, a boundary vector z_bd and an input u."""

    def _init_terms(self, nonlinear_grad, potential, input_vector,
                    boundary_vector, dx, name):
        self.nonlinear_grad = nonlinear_grad
        self.potential = potential
        self.input_vector = _optional_array(input_vector)
        self.boundary_vector = _optional_array(boundary_vector)
        self.dx = float(dx)
        self.name = name
        self.J = CanonicalForm(self.n)

    def grad_extra(self, z):
        """Non-quadratic gradient terms: g(z) - z_bd."""
        out = None
        if self.nonlinear_grad is not None:
            out = np.asarray(self.nonlinear_grad(z), dtype=float)
        if self.boundary_vector is not None:
            out = -self.boundary_vector if out is None else out - self.boundary_vector
        return out

    def nonquadratic_energy(self, z, h: float = 0.0) -> float:
        """h + V(z) - z_bd . z, summed left to right; the energies pass
        their quadratic part as ``h``."""
        if self.potential is not None:
            h += float(self.potential(z))
        if self.boundary_vector is not None:
            h -= float(self.boundary_vector @ z)
        return h

    def _flow(self, force, z, drift=None):
        """dz/dt = J (force + g(z) - z_bd) - drift + u, where ``force`` is
        the gradient of the quadratic energy."""
        extra = self.grad_extra(z)
        if extra is not None:
            force = force + extra
        dz = self.J.apply(force)
        if drift is not None:
            dz = dz - drift
        if self.input_vector is not None:
            dz = dz + self.input_vector
        return dz


class TddSystem(_ExtraTerms):
    """Time-dispersive-dissipative model on a 2n-dimensional phase space.

    The state z is canonical: z = K^{-1}(f + chi F), where f is the
    co-state and F its memory integral. So z carries the memory integral,
    and the physical state, the one the plain dissipative form evolves, is
    K^{-1} f. The two agree only while the memory is empty (at t = 0, or
    where chi F vanishes).

    Parameters
    ----------
    K : ndarray, shape (2n, 2n)
        Full-rank stiffness factor; the quadratic energy is 0.5 ||K z||^2.
    chi : ndarray, shape (2n, 2n)
        Symmetric PSD susceptibility acting on the memory integral of f.
    z0 : ndarray, shape (2n,)
        Initial state; canonical and physical at once, since the memory
        integral starts at zero.
    nonlinear_grad, potential : callable, optional
        Gradient and value of an additional potential term. The gradient must
        not depend on the momentum block (the kick stages evaluate it at the
        start-of-stage momentum).
    input_vector : ndarray, optional
        Constant input u added to dz/dt; the associated supply rate is
        (K u)^T f.
    boundary_vector : ndarray, optional
        Constant z_bd subtracted inside the energy gradient (inhomogeneous
        boundary terms).
    dx : float
        Grid weight for L2 norms and the kinetic energy of PDE states.

    ``k_op`` and ``kt_op`` apply K and K^T: CSR matrices when at most 5 %
    of the entries of K are nonzero, K and its transpose otherwise. ``K``
    and ``chi`` themselves stay dense arrays.
    """

    def __init__(self, K, chi, z0, *, nonlinear_grad=None, potential=None,
                 input_vector=None, boundary_vector=None, dx: float = 1.0,
                 name: str = "", validate: bool = True):
        self.K = np.asarray(K, dtype=float)
        self.chi = np.asarray(chi, dtype=float)
        self.z0 = np.asarray(z0, dtype=float)
        if self.K.ndim != 2 or self.K.shape[0] != self.K.shape[1]:
            raise ValueError(f"K must be square, got {self.K.shape}")
        if self.K.shape[0] % 2:
            raise ValueError("phase space dimension must be even")
        self.dim = self.K.shape[0]
        self.n = self.dim // 2
        if self.chi.shape != self.K.shape:
            raise ValueError("chi must match K in shape")
        if self.z0.shape != (self.dim,):
            raise ValueError(f"z0 must have shape ({self.dim},)")
        self._init_terms(nonlinear_grad, potential, input_vector,
                         boundary_vector, dx, name)
        self.k_op = _operator(self.K)
        self.kt_op = self.K.T if self.k_op is self.K else _Csr(self.k_op.T)
        self._chi_diag = self._chi_op = None
        offdiag = self.chi - np.diag(np.diag(self.chi))
        if not offdiag.any():
            self._chi_diag = np.diag(self.chi).copy()
        else:
            self._chi_op = _operator(self.chi)
        if validate:
            self.validate()

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        scale = max(1.0, float(np.abs(self.chi).max()))
        if _sym_deviation(self.chi) > 1e-12 * scale:
            raise ValueError("susceptibility must be symmetric to 1e-12 relative")
        # both raise on eigenvalues < -1e-12*scale
        if self._chi_diag is not None:
            root = _diagonal_sqrt(self._chi_diag, 1e-12 * scale)
            residual = np.abs(root * root - self._chi_diag).max()
        else:
            root = symmetric_sqrt(self.chi)
            residual = np.abs(root @ root - self.chi).max()
        if residual > 1e-10 * scale:
            raise ValueError("susceptibility square root check failed at 1e-10")
        rcond = _reciprocal_condition(self.k_op)
        if rcond <= 1e-12:
            raise ValueError(
                f"K is numerically rank deficient: estimated 1/cond_1 = "
                f"{rcond:.3e}"
            )

    # -- building blocks ---------------------------------------------------

    def chi_apply(self, v):
        if self._chi_diag is not None:
            return (self._chi_diag * v.T).T
        return self._chi_op @ v

    def hamiltonian(self, z) -> float:
        """Energy 0.5 ||K z||^2 + potential(z) - z_bd . z."""
        kz = self.k_op @ z
        return self.nonquadratic_energy(z, 0.5 * float(kz @ kz))

    def state_derivative(self, z, f):
        """dz/dt given the co-state: J (K^T f + g(z) - z_bd) + u."""
        return self._flow(self.kt_op @ f, z)

    def supply_rate(self, z, f) -> float:
        """Instantaneous work rate of the input: (K u)^T f + (g(z) - z_bd)^T u.

        The second term vanishes without nonlinear/boundary terms; it is what
        the input feeds into the non-quadratic part of the energy.
        """
        if self.input_vector is None:
            return 0.0
        s = float((self.k_op @ self.input_vector) @ f)
        extra = self.grad_extra(z)
        if extra is not None:
            s += float(extra @ self.input_vector)
        return s

    def dissipation_rate(self, f) -> float:
        """f^T chi f >= 0; energy leaves the visible variables at this rate."""
        return float(f @ self.chi_apply(f))


class StringAccumulator:
    """Trapezoid bookkeeping of the memory integral of the co-state f.

    Tracks the running integral F = int_0^t f ds, the dissipated string
    energy int_0^t f^T chi f ds, and the input-work coordinate e with
    de/dt = -supply. ``tail`` is the part of the quadrature at the current
    node that excludes the current node's own contribution, i.e.
    F_{n-1} + (dt/2) f_{n-1}; the constraint at node n reads
    (I + (dt/2) chi) f_n = K z_n - chi tail_n.
    """

    def __init__(self, dim: int, dt: float):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.dim = dim
        self.dt = float(dt)
        self.head_weight = 0.5 * self.dt    # quadrature weight of a node
        self.t = 0.0
        self.steps = 0
        self.integral = np.zeros(dim)
        self.tail = np.zeros(dim)
        self.string_energy = 0.0
        self.work_coordinate = 0.0
        self.f = None
        self._diss = 0.0
        self._supply = 0.0

    def prime(self, f0, dissipation0: float, supply0: float) -> None:
        """Install the initial co-state; the node-0 tail stays zero."""
        if self.f is not None or self.steps:
            raise RuntimeError("accumulator already primed")
        self.f = np.asarray(f0, dtype=float).copy()
        self._diss = float(dissipation0)
        self._supply = float(supply0)

    def tail_next(self):
        """Tail of the next node: F_n + (dt/2) f_n."""
        if self.f is None:
            raise RuntimeError("accumulator not primed")
        return self.integral + self.head_weight * self.f

    def commit(self, f_new, dissipation_new: float, supply_new: float) -> None:
        """Advance one step: trapezoid updates of all three integrals."""
        if self.f is None:
            raise RuntimeError("accumulator not primed")
        f_new = np.asarray(f_new, dtype=float)
        w = self.head_weight
        self.tail = self.integral + w * self.f
        self.integral = self.tail + w * f_new
        self.string_energy += w * (self._diss + float(dissipation_new))
        self.work_coordinate -= w * (self._supply + float(supply_new))
        self.f = f_new.copy()
        self._diss = float(dissipation_new)
        self._supply = float(supply_new)
        self.steps += 1
        self.t = self.steps * self.dt

    def extended_energy(self, nonquad: float) -> float:
        """0.5 ||f||^2 + nonquad + E_string + e at the current node, where
        ``nonquad`` is the system's non-quadratic energy there."""
        return (0.5 * float(self.f @ self.f) + nonquad
                + self.string_energy + self.work_coordinate)


class _VerletStages:
    """Kick-drift-kick stages of dz/dt = J (M z + c + g(z) - z_bd) + u, the
    one Stoermer-Verlet kernel of both model forms.

    Per step (w = dt/2), with c split into a start-of-step constant ``cs``
    and an end-of-step one ``ce``:

    1. kick   p_h  from grad_q at (q_n, p_h) under cs,
    2. drift  q_1  from grad_p averaged over (q_n, p_h | cs) and
              (q_1, p_h | ce),
    3. kick   p_1  from grad_q at (q_1, p_h) under ce.

    Stages 1 and 2 are implicit only through the qp and pq blocks of the
    stage matrix M; each is solved with a precomputed LU factorization, or
    explicitly when its block is zero. The gradient g must not depend on
    the momentum block, so stage 2 uses its start-of-step p-block twice.
    """

    def _init_stages(self, terms: _ExtraTerms, m) -> None:
        """Split the stage matrix ``m`` (dense or CSR) and the input of
        ``terms`` into q/p blocks and factor the implicit stages."""
        w = 0.5 * self.dt
        n = terms.n
        self._grad_extra = terms.grad_extra
        self.m_qq = _as_stored(m[:n, :n])
        self.m_qp = _as_stored(m[:n, n:])
        self.m_pq = _as_stored(m[n:, :n])
        self.m_pp = _as_stored(m[n:, n:])
        self._lu_kick = self._lu_drift = None
        if abs(self.m_qp).max() != 0.0:
            self._lu_kick = scipy.linalg.lu_factor(
                np.eye(n) + w * _dense(self.m_qp))
        if abs(self.m_pq).max() != 0.0:
            self._lu_drift = scipy.linalg.lu_factor(
                np.eye(n) - w * _dense(self.m_pq))
        u = terms.input_vector
        self.u_q = u[:n] if u is not None else None
        self.u_p = u[n:] if u is not None else None

    def _kick_drift_kick(self, z, cs, ce):
        """The state one step after z."""
        dt = self.dt
        w = 0.5 * dt
        n = self.m_qq.shape[0]
        q, p = z[:n], z[n:]
        extra = self._grad_extra(z)

        # kick under the start-of-step constant
        rhs = p - w * (self.m_qq @ q + cs[:n])
        if extra is not None:
            rhs = rhs - w * extra[:n]
        if self.u_p is not None:
            rhs = rhs + w * self.u_p
        p_half = rhs if self._lu_kick is None else scipy.linalg.lu_solve(
            self._lu_kick, rhs, check_finite=False)

        # drift averaging the two constants; the extra gradient is
        # momentum-independent by contract, so its p-block enters twice
        rhs = q + w * (2.0 * (self.m_pp @ p_half) + cs[n:] + ce[n:])
        if extra is not None:
            rhs = rhs + dt * extra[n:]
        if self._lu_drift is not None:
            rhs = rhs + w * (self.m_pq @ q)
        if self.u_q is not None:
            rhs = rhs + dt * self.u_q
        q_new = rhs if self._lu_drift is None else scipy.linalg.lu_solve(
            self._lu_drift, rhs, check_finite=False)

        # second kick under the end-of-step constant
        extra2 = self._grad_extra(np.concatenate([q_new, p_half]))
        grad_q = self.m_qq @ q_new + ce[:n]
        if extra2 is not None:
            grad_q = grad_q + extra2[:n]
        if self._lu_kick is not None:
            grad_q = grad_q + self.m_qp @ p_half
        p_new = p_half - w * grad_q
        if self.u_p is not None:
            p_new = p_new + w * self.u_p
        return np.concatenate([q_new, p_new])


class VerletStepper(_VerletStages):
    """One Stoermer-Verlet step of the time-dispersive model.

    Eliminating the co-state f from each stage gradient yields the stage
    matrix M = K^T (I + w chi)^{-1} K of :class:`_VerletStages` and the
    constant -K^T (I + w chi)^{-1} chi h of the memory tail h (w = dt/2):
    the start-of-step tail h_n for the first kick and the first drift
    gradient, the end-of-step tail h_{n+1} (see :class:`StringAccumulator`)
    for the rest. The committed co-state then solves the node-(n+1)
    constraint at (q_1, p_1 | h_{n+1}).

    The stepper owns the memory: ``accumulator`` holds the co-state and the
    trapezoid integrals of the current node, primed with the empty-history
    co-state (I + w chi)^{-1} K z0 of ``system.z0``, and ``kz`` holds K z
    there. ``step(z)`` takes the state of that node. Each step reuses the
    previous step's end-of-step tail constant as its start-of-step one: the
    accumulator's committed tail is bitwise the tail the step computed for
    the end of the step.

    When the system applies K in CSR, K^T (I + w chi)^{-1} and the blocks of
    M are formed and stored in CSR as well, unless a non-diagonal chi makes
    them dense.
    """

    kind = "tdd"

    def __init__(self, system: TddSystem, dt: float):
        self.system = system
        self.accumulator = acc = StringAccumulator(system.dim, dt)
        self.dt = acc.dt
        self._diag = self._cho = None
        if system._chi_diag is not None:
            self._diag = 1.0 + acc.head_weight * system._chi_diag
        else:
            self._cho = scipy.linalg.cho_factor(
                np.eye(system.dim) + acc.head_weight * system.chi)
        wi_k = self._solve(system.k_op)
        m = system.kt_op @ wi_k
        self.kt_wi = _as_stored(wi_k.T)           # K^T (I + w chi)^{-1}
        self._init_stages(system, 0.5 * (m + m.T))
        self.kz = system.k_op @ system.z0
        f0 = self._solve(self.kz)
        acc.prime(f0, system.dissipation_rate(f0),
                  system.supply_rate(system.z0, f0))
        # start-of-step constant -K^T (I + w chi)^{-1} chi tail of the next step
        self._cs = -(self.kt_wi @ system.chi_apply(acc.tail))

    def _solve(self, rhs):
        """(I + w chi)^{-1} rhs for a vector or a (CSR) matrix."""
        if self._cho is not None:
            return scipy.linalg.cho_solve(self._cho, _dense(rhs),
                                          check_finite=False)
        if scipy.sparse.issparse(rhs):
            # divide row i by diag[i], as the dense path does
            out = _Csr(rhs, copy=True)
            out.data /= np.repeat(self._diag, np.diff(out.indptr))
            return out
        return (rhs.T / self._diag).T

    def step(self, z):
        """Advance the state z of the accumulator's node by one step and
        commit the new co-state; returns the new state."""
        sys_, acc = self.system, self.accumulator
        chi_tail_end = sys_.chi_apply(acc.tail_next())
        ce = -(self.kt_wi @ chi_tail_end)
        z_new = self._kick_drift_kick(z, self._cs, ce)
        self.kz = sys_.k_op @ z_new
        f_new = self._solve(self.kz - chi_tail_end)
        acc.commit(f_new, sys_.dissipation_rate(f_new),
                   sys_.supply_rate(z_new, f_new))
        self._cs = ce
        return z_new

    def observe(self, z):
        """Diagnostics at the current node z: H (from the step's K z), the
        string energy, the extended energy, the passivity residual
        -f^T chi f, and the largest entries of |f + chi F - K z| and |K z|."""
        sys_, acc, kz = self.system, self.accumulator, self.kz
        f = acc.f
        nonquad = sys_.nonquadratic_energy(z)
        # chi F; at node 0 the constraint reads (I + w chi) f0 = K z0
        memory = (sys_.chi_apply(acc.integral) if acc.steps
                  else acc.head_weight * sys_.chi_apply(f))
        return (0.5 * float(kz @ kz) + nonquad, acc.string_energy,
                acc.extended_energy(nonquad), -sys_.dissipation_rate(f),
                float(np.abs(kz - (f + memory)).max()),
                float(np.abs(kz).max()))

    def snapshot(self, z):
        """dz/dt and the co-state at the current node."""
        f = self.accumulator.f
        return self.system.state_derivative(z, f), f


@dataclass
class RunReport:
    """Time series and snapshots from one integration run.

    ``snapshots`` holds the state the integrator evolves. For a
    time-dispersive run (``kind == "tdd"``) that is the canonical state
    z = K^{-1}(f + chi F), which carries the memory integral F; the
    physical state is K^{-1} f, built from ``costates``, and its quadratic
    energy is 0.5 ||f||^2 rather than ``hamiltonian``'s 0.5 ||K z||^2.
    Runs of the plain dissipative form and of its reductions evolve the
    physical state (in reduced coordinates) and carry no co-states.
    """

    times: np.ndarray
    hamiltonian: np.ndarray
    string_energy: np.ndarray
    extended_energy: np.ndarray
    passivity_residual: np.ndarray
    snapshots: SnapshotSet
    derivatives: np.ndarray        # dz/dt columns, aligned with snapshots
    volterra_max: float
    kz_max: float
    dt: float
    n_steps: int
    wall_seconds: float
    kind: str = "tdd"
    costates: np.ndarray | None = None   # f = K z - chi F columns, aligned
                                         # with snapshots (tdd runs only)

    @property
    def snapshot_times(self):
        return self.snapshots.times

    def kinetic_series(self):
        """0.5 dx ||dq/dt||^2 on the snapshot grid."""
        v = self.derivatives[: self.derivatives.shape[0] // 2]
        return 0.5 * self.snapshots.dx * np.sum(v * v, axis=0)


def extended_hamiltonian(system: TddSystem, z,
                         accumulator: StringAccumulator) -> float:
    """Total energy of the closed extension at the accumulator's node, z
    being the state there.

    The system part enters through the co-state (0.5 ||f||^2 plus the
    non-quadratic terms), the strings through the accumulated dissipation
    integral, and input work through the autonomization coordinate. The
    value is conserved along the discrete flow and equals H(z0) at t=0
    whenever chi annihilates K z0 (strings at rest).
    """
    return accumulator.extended_energy(system.nonquadratic_energy(z))


def passivity_residual(system: TddSystem, z, accumulator: StringAccumulator,
                       dh_dt: float) -> float:
    """Stored-power balance dH/dt - supply at the accumulator's node, z
    being the state there.

    ``dh_dt`` is the caller's estimate of the stored-energy derivative
    (finite differences of 0.5 ||f||^2, say). Nonpositive along a passive
    trajectory; the analytic value is -f^T chi f.
    """
    return float(dh_dt) - system.supply_rate(z, accumulator.f)


def _drive(make_stepper, z0, dt: float, n_steps: int | None,
           t_final: float | None, snapshot_stride: int,
           dx: float) -> RunReport:
    """Run a stepper over the time grid and assemble its report.

    The stepper provides ``step(z)`` (the next state), ``observe(z)`` (H,
    string energy, extended energy, passivity residual, Volterra residual
    and |K z| at one instant) and ``snapshot(z)`` (dz/dt, plus the
    co-state for a tdd run), and a ``kind``. Every state is checked for
    finiteness as soon as it is stepped to; numpy's overflow and invalid
    warnings are silenced in the loop, which reports the blow-up instead.
    """
    if (n_steps is None) == (t_final is None):
        raise ValueError("specify exactly one of n_steps and t_final")
    if n_steps is None:
        n_steps = int(round(t_final / dt))
    if n_steps < 0:
        raise ValueError("step count must be nonnegative")
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be at least 1")
    t0 = time.perf_counter()
    stepper = make_stepper()
    z = np.array(z0, dtype=float)
    rows = [stepper.observe(z)]
    first = (z, *stepper.snapshot(z))
    store = np.empty((len(first), z.size, n_steps // snapshot_stride + 1))
    store[..., 0] = first
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            z = stepper.step(z)
            if not np.isfinite(z).all():
                raise NonFiniteError(i)
            rows.append(stepper.observe(z))
            if i % snapshot_stride == 0:
                store[..., i // snapshot_stride] = (z, *stepper.snapshot(z))
    ham, e_str, h_ext, passiv, volterra, kz = np.array(rows).T.copy()
    times = dt * np.arange(n_steps + 1)
    return RunReport(
        times=times, hamiltonian=ham, string_energy=e_str, extended_energy=h_ext,
        passivity_residual=passiv,
        snapshots=SnapshotSet(times[::snapshot_stride], store[0], dx),
        derivatives=store[1], volterra_max=float(volterra.max()),
        kz_max=float(kz.max()), dt=dt, n_steps=n_steps,
        wall_seconds=time.perf_counter() - t0, kind=stepper.kind,
        costates=store[2] if len(store) > 2 else None,
    )


def integrate(system: TddSystem, dt: float, n_steps: int | None = None,
              t_final: float | None = None,
              snapshot_stride: int = 1) -> RunReport:
    """Integrate the time-dispersive model and collect diagnostics.

    Records the visible energy H, the string energy, the conserved extended
    energy 0.5 ||f||^2 + potential(z) - z_bd . z + E_string + e, and the
    passivity residual dH_ext/dt - 0 = -f^T chi f <= 0 linking visible energy
    decay to the strings. Snapshots (state, dz/dt and co-state) are stored
    every ``snapshot_stride`` steps; ``n_steps == 0`` yields the initial
    instant only.

    Raises
    ------
    NonFiniteError
        When the state leaves floating point range; the exception names the
        offending step.
    """
    return _drive(lambda: VerletStepper(system, dt), system.z0, dt, n_steps,
                  t_final, snapshot_stride, system.dx)


# -- plain dissipative form (reference baselines) ---------------------------


class DissipativeModel(_ExtraTerms):
    """Plain dissipative form dz/dt = J grad H(z) - R z + u with
    H(z) = 0.5 z^T S z + potential(z) - z_bd . z."""

    def __init__(self, stiffness, drift=None, z0=None, *, nonlinear_grad=None,
                 potential=None, input_vector=None, boundary_vector=None,
                 dx: float = 1.0, name: str = ""):
        self.stiffness = np.asarray(stiffness, dtype=float)
        dim = self.stiffness.shape[0]
        if self.stiffness.shape != (dim, dim) or dim % 2:
            raise ValueError(f"stiffness must be square even-dim, got {self.stiffness.shape}")
        scale = max(1.0, float(np.abs(self.stiffness).max()))
        if _sym_deviation(self.stiffness) > 1e-10 * scale:
            raise ValueError("stiffness must be symmetric")
        self.stiffness = 0.5 * (self.stiffness + self.stiffness.T)
        self.drift = _optional_array(drift)
        if self.drift is not None and self.drift.shape != (dim, dim):
            raise ValueError("drift must match stiffness in shape")
        self.z0 = np.zeros(dim) if z0 is None else np.asarray(z0, dtype=float)
        self.dim = dim
        self.n = dim // 2
        self._init_terms(nonlinear_grad, potential, input_vector,
                         boundary_vector, dx, name)

    def hamiltonian(self, z) -> float:
        return self.nonquadratic_energy(z, 0.5 * float(z @ (self.stiffness @ z)))

    def state_derivative(self, z):
        return self._flow(self.stiffness @ z, z,
                          None if self.drift is None else self.drift @ z)

    def linear_operator(self) -> np.ndarray:
        """Dense J S - R, the generator of the linear part of the flow."""
        op = self.J.apply(self.stiffness)
        if self.drift is not None:
            op = op - self.drift
        return op


class _PlainStepper:
    """Series of a run without strings or memory, from the subclass's
    ``_hamiltonian`` and ``_derivative``: the extended energy is H, the
    other series are zero, and snapshots hold dz/dt."""

    def observe(self, z):
        h = self._hamiltonian(z)
        return h, 0.0, h, 0.0, 0.0, 0.0

    def snapshot(self, z):
        return (self._derivative(z),)


class DissipativeVerletStepper(_VerletStages, _PlainStepper):
    """Stoermer-Verlet for the plain dissipative form.

    dz/dt = J (S z + g(z) - z_bd) - R z + u is J (M z + g(z) - z_bd) + u
    with M = S + J R, so the drift -R z enters the stages of
    :class:`_VerletStages` through M, without a memory constant. The step
    stays time-symmetric: the first kick is implicit in the new
    half-momentum, the final kick is its adjoint, and the position update
    is trapezoidal, which keeps second order.
    """

    kind = "dissipative"

    def __init__(self, model: DissipativeModel, dt: float):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.model = model
        self.dt = float(dt)
        s, d = model.stiffness, model.drift
        self._init_stages(model, s if d is None else s + model.J.apply(d))
        self._no_tail = np.zeros(model.dim)
        self._hamiltonian = model.hamiltonian
        self._derivative = model.state_derivative

    def step(self, z):
        return self._kick_drift_kick(z, self._no_tail, self._no_tail)


def integrate_dissipative(model: DissipativeModel, dt: float,
                          n_steps: int | None = None,
                          t_final: float | None = None,
                          snapshot_stride: int = 1) -> RunReport:
    """Integrate the plain dissipative form with the symmetrized Verlet
    scheme. String and extended energies are not defined for this
    formulation and are reported as zero / equal to H."""
    return _drive(lambda: DissipativeVerletStepper(model, dt), model.z0, dt,
                  n_steps, t_final, snapshot_stride, model.dx)


class _Rk4Stepper(_PlainStepper):
    """Classical fourth-order Runge-Kutta step of dz/dt = rhs(z)."""

    kind = "rk4"

    def __init__(self, rhs, dt: float, hamiltonian):
        self.rhs = self._derivative = rhs
        self.dt = dt
        self._hamiltonian = (hamiltonian if hamiltonian is not None
                             else lambda z: 0.0)

    def step(self, z):
        rhs, dt = self.rhs, self.dt
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * dt * k1)
        k3 = rhs(z + 0.5 * dt * k2)
        k4 = rhs(z + dt * k3)
        return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_rk4(rhs, z0, dt: float, n_steps: int | None = None,
                  t_final: float | None = None, snapshot_stride: int = 1,
                  dx: float = 1.0, hamiltonian=None) -> RunReport:
    """Classical fourth-order Runge-Kutta loop for an arbitrary autonomous
    right-hand side. Used by the unstructured POD baseline. Per step the
    right-hand side is called for the four stages, then once more at each
    snapshot instant (from t = 0 on) for dz/dt."""
    return _drive(lambda: _Rk4Stepper(rhs, dt, hamiltonian), z0, dt, n_steps,
                  t_final, snapshot_stride, dx)
