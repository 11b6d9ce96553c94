"""Dissipative Hamiltonian dynamics in time-dispersive form.

The model class evolves

    dz/dt = J (K^T f + (g(q), 0) - z_bd) + u,
    f + chi * integral_0^t f ds = K z,

where the auxiliary co-state f carries the memory of hidden bath modes, g
is the gradient of a potential of the positions q alone, and the
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
    """A run left the range of floating point numbers: at node ``step``,
    the first whose state or per-node diagnostics (energies, rates and
    residuals) are non-finite; ``what`` says which of the two.
    ``step_map`` is the run's linear step map, as on :class:`RunReport`."""

    def __init__(self, step: int, what: str, step_map=None):
        self.step = step
        self.step_map = step_map
        super().__init__(f"{what} became non-finite at step {step}")


def _sym_deviation(m) -> float:
    return float(abs(m - m.T).max())


class _Csr(scipy.sparse.csr_array):
    """CSR array that reports the bytes of its data, indices and indptr as
    ``nbytes``, like the dense operators it stands in for."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


class _Diagonal:
    """A diagonal operator kept as its ``diagonal``. A product with a
    vector or a dense block scales its rows, a block coming back C-ordered
    as from a CSR product; a product with a sparse matrix (at setup) is the
    CSR product itself. The values are the CSR product's, each entry the
    one term d_i v_i, but for the sign of a zero: the CSR product adds the
    term to +0."""

    def __init__(self, diagonal: np.ndarray):
        self.diagonal = diagonal
        self.shape = (diagonal.size, diagonal.size)

    @property
    def nbytes(self) -> int:
        return self.diagonal.nbytes

    def __matmul__(self, v):
        if scipy.sparse.issparse(v):
            return _Csr(scipy.sparse.diags(self.diagonal)) @ v
        if v.ndim == 1:
            return self.diagonal * v
        return np.multiply(self.diagonal[:, None], v, order="C")


def _stored(m):
    """An operator as it is kept, public or derived: a sparse matrix as a
    float CSR one, any other as a float array (itself if it is one)."""
    if scipy.sparse.issparse(m):
        return _Csr(m, dtype=float)
    return np.asarray(m, dtype=float)


def _dense(m) -> np.ndarray:
    return m.toarray() if scipy.sparse.issparse(m) else m


def _entries(m) -> np.ndarray:
    """The stored entries of a sparse ``m``, else ``m`` itself."""
    return m.data if scipy.sparse.issparse(m) else m


def _canonical_times(j: CanonicalForm, m):
    """J m, a CSR matrix for a sparse ``m``."""
    if scipy.sparse.issparse(m):
        return _Csr(scipy.sparse.vstack([m[j.n:], -m[: j.n]]))
    return j.apply(m)


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


def cholesky_factor(m, name: str = "matrix"):
    """Upper-triangular factor L with L^T L = M, for symmetric PSD M.

    A dense M gives a dense L. A sparse M gives a CSR L, factored in band
    storage without a dense matrix: the banded factor of M, or, when only
    M's last row and column reach past the band of its leading block (a
    periodic stencil), the bordered factor [[U, u], [0, d]] with U the
    banded factor of the leading block, U^T u its last column and
    d^2 = M[-1, -1] - u . u. Both agree with the dense factor to roundoff
    (bitwise, as measured, on the tridiagonal sine-Gordon stencil).

    Raises ``np.linalg.LinAlgError`` naming the first failing pivot when M is
    not positive definite, and ``ValueError`` when M has a non-finite entry
    or is not symmetric to 1e-12 relative.
    """
    m = _stored(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    if not np.isfinite(_entries(m)).all():
        raise ValueError(f"{name} has a non-finite entry")
    scale = max(1.0, float(abs(m).max()))
    if _sym_deviation(m) > 1e-12 * scale:
        raise ValueError(f"{name} is not symmetric to 1e-12 relative")
    msym = 0.5 * (m + m.T)
    if scipy.sparse.issparse(msym):
        return _banded_cholesky(_Csr(msym), name)
    try:
        lower = np.linalg.cholesky(msym)
    except np.linalg.LinAlgError:
        # LAPACK's potrf reports the order of the first failing leading minor
        info = scipy.linalg.lapack.dpotrf(msym, lower=True)[1]
        _not_positive_definite(name, info)
    return lower.T


def _not_positive_definite(name: str, info: int):
    """Raise for a factorization whose LAPACK ``info`` (the order of the
    first failing leading minor, or 0) says M is not positive definite."""
    pivot = f": pivot {info - 1} fails" if info > 0 else ""
    raise np.linalg.LinAlgError(
        f"{name} is not positive definite{pivot}") from None


def _banded_cholesky(m: _Csr, name: str) -> _Csr:
    """CSR upper factor of the symmetric CSR ``m``: the banded or bordered
    factor of :func:`cholesky_factor`."""
    size = m.shape[0]
    entries = m.tocoo()
    offset = entries.col - entries.row
    # the band of the leading block, and whether the last column leaves it
    lead = (entries.row < size - 1) & (entries.col < size - 1)
    band = int(offset[lead].max(initial=0))
    bordered = int(offset.max(initial=0)) > band
    order = size - 1 if bordered else size
    # lower band storage: row d holds the d-th subdiagonal
    ab = np.zeros((band + 1, order))
    for d in range(band + 1):
        ab[d, : order - d] = m.diagonal(d)[: order - d]
    factor, info = scipy.linalg.lapack.dpbtrf(ab, lower=1)
    if info > 0:
        _not_positive_definite(name, info)
    upper = scipy.sparse.diags([factor[d, : order - d]
                                for d in range(band + 1)],
                               list(range(band + 1)), shape=(order, order))
    if bordered:
        column = m[[order]].toarray().ravel()     # the last row, by symmetry
        u, _ = scipy.linalg.lapack.dtbtrs(factor, column[:order], uplo="L")
        pivot = column[order] - u @ u
        if not pivot > 0.0:
            _not_positive_definite(name, size)
        upper = scipy.sparse.bmat(
            [[upper, u[:, None]], [None, np.array([[np.sqrt(pivot)]])]])
    return _Csr(upper)


def _require_psd(eigenvalues: np.ndarray, floor: float) -> None:
    """Raise unless every eigenvalue is at least ``-floor``."""
    if eigenvalues.min() < -floor:
        raise ValueError(
            f"susceptibility has negative eigenvalue {eigenvalues.min():.3e}")


def _diagonal(m):
    """The diagonal of a dense or CSR ``m`` whose nonzeros all lie on it,
    else None."""
    diagonal = m.diagonal().copy()
    if np.count_nonzero(_entries(m)) == np.count_nonzero(diagonal):
        return diagonal
    return None


def _shifted_inverse(m, weight: float, stage: str):
    """(I + weight * m)^{-1}: for a diagonal ``m`` (see :func:`_diagonal`),
    its diagonal of reciprocals kept as a :class:`_Diagonal`, else a dense
    inverse. A singular shift raises ValueError naming the ``stage`` of the
    step it inverts and dt = 2 |weight|."""
    diagonal = _diagonal(m)
    if diagonal is None:
        try:
            return np.linalg.inv(np.eye(m.shape[0]) + weight * _dense(m))
        except np.linalg.LinAlgError:
            pass
    elif (shift := 1.0 + weight * diagonal).all():
        return _Diagonal(1.0 / shift)
    raise ValueError(f"the {stage} of the Verlet step is singular at "
                     f"dt = {2.0 * abs(weight)!r}")


def _kept(block):
    """A stage block as a step applies it: a CSR block whose nonzeros all
    lie on its diagonal as a :class:`_Diagonal`, any other as it is."""
    if scipy.sparse.issparse(block):
        diagonal = _diagonal(block)
        if diagonal is not None:
            return _Diagonal(diagonal)
    return block


def _optional_array(v):
    return None if v is None else np.asarray(v, dtype=float)


def _column_dot(a, b):
    """a . b of two vectors, or of each pair of columns of two blocks."""
    return np.sum(a * b, axis=0)


class _ExtraTerms:
    """Terms both model forms share beyond their quadratic energy: a
    potential V(q) of the positions with gradient g(q), a boundary vector
    z_bd and an input u."""

    def _init_terms(self, nonlinear_grad, potential, input_vector,
                    boundary_vector, dx, name):
        self.nonlinear_grad = nonlinear_grad
        self.potential = potential
        self.input_vector = _optional_array(input_vector)
        self.boundary_vector = _optional_array(boundary_vector)
        self.dx = float(dx)
        self.name = name
        self.J = CanonicalForm(self.n)

    def constant_term(self):
        """u - J z_bd, the part of dz/dt that depends on no state; None
        without either."""
        u, bd = self.input_vector, self.boundary_vector
        if bd is None:
            return u
        return (0.0 if u is None else u) - self.J.apply(bd)

    def _column(self, v, z):
        """A constant vector v shaped to broadcast against z's columns."""
        return v.reshape((-1,) + (1,) * (np.ndim(z) - 1))

    def grad_extra(self, z):
        """Non-quadratic gradient terms (g(q), 0) - z_bd, of a state or of
        each column of a (dim, m) block; None without either."""
        if self.nonlinear_grad is None and self.boundary_vector is None:
            return None
        out = np.zeros(np.shape(z))
        if self.nonlinear_grad is not None:
            out[: self.n] = self.nonlinear_grad(z[: self.n])
        if self.boundary_vector is not None:
            out -= self._column(self.boundary_vector, z)
        return out

    def nonquadratic_energy(self, z, h=0.0, lift=None):
        """h + V(q) - z_bd . z, summed left to right, of a state or of each
        column of a (dim, m) block; the energies pass their quadratic part
        as ``h``. With a basis matrix ``lift`` A, z holds reduced
        coordinates and the terms are those of the lifted state A z, formed
        without lifting it: V(A_q z) - (A^T z_bd) . z."""
        if self.potential is not None:
            h = h + self.potential(z[: self.n] if lift is None
                                   else lift[: self.n] @ z)
        if self.boundary_vector is not None:
            bd = self.boundary_vector
            h = h - (bd if lift is None else lift.T @ bd) @ z
        return h

    def _flow(self, force, z, drift=None):
        """dz/dt = J (force + (g(q), 0)) - drift + u - J z_bd, where
        ``force`` is the gradient of the quadratic energy; of a state or of
        each column of a (dim, m) block."""
        dz = self.J.apply(force)
        if self.nonlinear_grad is not None:
            dz[self.n:] -= self.nonlinear_grad(z[: self.n])
        return self._plus_constant(dz, drift, slice(None))

    def _plus_constant(self, rates, drift, rows):
        """rates - drift + (u - J z_bd)[rows]: the rows ``rows`` of dz/dt
        given those of J (force + (g(q), 0)) as ``rates``."""
        if drift is not None:
            rates = rates - drift
        constant = self.constant_term()
        if constant is not None:
            rates = rates + self._column(constant[rows], rates)
        return rates


class TddSystem(_ExtraTerms):
    """Time-dispersive-dissipative model on a 2n-dimensional phase space.

    The state z is canonical: z = K^{-1}(f + chi F), where f is the
    co-state and F its memory integral. So z carries the memory integral,
    and the physical state, the one the plain dissipative form evolves, is
    K^{-1} f. The two agree only while the memory is empty (at t = 0, or
    where chi F vanishes).

    Parameters
    ----------
    K : ndarray or sparse matrix, shape (2n, 2n)
        Full-rank stiffness factor; the quadratic energy is 0.5 ||K z||^2.
    chi : ndarray or sparse matrix, shape (2n, 2n)
        Symmetric PSD susceptibility acting on the memory integral of f.
    z0 : ndarray, shape (2n,)
        Initial state; canonical and physical at once, since the memory
        integral starts at zero.
    nonlinear_grad, potential : callable, optional
        Gradient g(q) = dV/dq and value V(q) of an additional potential of
        the positions. Both take the positions q, of shape (n,) or an
        (n, m) block of columns; the gradient returns an array of the same
        shape, and the potential one value per column.
    input_vector : ndarray, optional
        Constant input u added to dz/dt; the associated supply rate is
        (K u)^T f.
    boundary_vector : ndarray, optional
        Constant z_bd subtracted inside the energy gradient (inhomogeneous
        boundary terms).
    dx : float
        Grid weight for L2 norms and the kinetic energy of PDE states.

    ``K`` and ``chi`` are kept and applied as given: a sparse matrix as a
    CSR one, and validated without a dense copy, any other as a dense
    array; ``kt_op`` is K^T in the same format. A diagonal chi is applied
    as its diagonal; any other chi is checked for PSD (and, in the closed
    Verlet step, inverted) as a dense matrix.

    The energy terms (``hamiltonian``, ``nonquadratic_energy``,
    ``dissipation_rate``, ``supply_rate`` and ``grad_extra``) accept a state
    or a (2n, m) block, and for a block return one value (or column) per
    column.
    """

    def __init__(self, K, chi, z0, *, nonlinear_grad=None, potential=None,
                 input_vector=None, boundary_vector=None, dx: float = 1.0,
                 name: str = ""):
        self.K = _stored(K)
        self.chi = _stored(chi)
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
        self.kt_op = _stored(self.K.T)
        self._chi_diag = _diagonal(self.chi)
        self.validate()

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        if not np.isfinite(_entries(self.K)).all():
            raise ValueError("K has a non-finite entry")
        chi_max = float(abs(self.chi).max())
        if not np.isfinite(chi_max):
            raise ValueError("susceptibility has a non-finite entry")
        scale = max(1.0, chi_max)
        if _sym_deviation(self.chi) > 1e-12 * scale:
            raise ValueError("susceptibility must be symmetric to 1e-12 relative")
        _require_psd(self._chi_diag if self._chi_diag is not None
                     else np.linalg.eigvalsh(_dense(self.chi)), 1e-12 * scale)
        rcond = _reciprocal_condition(self.K)
        if rcond <= 1e-12:
            raise ValueError(
                f"K is numerically rank deficient: estimated 1/cond_1 = "
                f"{rcond:.3e}"
            )

    # -- building blocks ---------------------------------------------------

    def chi_apply(self, v):
        if self._chi_diag is not None:
            return (self._chi_diag * v.T).T
        return self.chi @ v

    def hamiltonian(self, z, lift=None):
        """Energy 0.5 ||K z||^2 + V(q) - z_bd . z. With a basis matrix
        ``lift`` A, z holds reduced coordinates, a vector or a (k, m)
        block, and this is the energy H(A z) of the states they lift to,
        formed without lifting them, from the k x k Gram matrix
        G = (K A)^T (K A): 0.5 z^T G z + V(A_q z) - (A^T z_bd) . z."""
        if lift is None:
            kz = self.K @ z
            return self.nonquadratic_energy(z, 0.5 * _column_dot(kz, kz))
        ka = self.K @ lift
        return self.nonquadratic_energy(
            z, 0.5 * _column_dot(z, (ka.T @ ka) @ z), lift)

    def state_derivative(self, z, f):
        """dz/dt given the co-state: J (K^T f + (g(q), 0) - z_bd) + u."""
        return self._flow(self.kt_op @ f, z)

    def velocity(self, f):
        """dq/dt given the co-state, the q rows of :meth:`state_derivative`:
        (K^T f)_p - (z_bd)_p + u_q, of a co-state or of each column of a
        (2n, m) block. J sends the gradient's q rows, where g(q) sits, to
        the p rows of dz/dt, so no gradient is evaluated."""
        return self._plus_constant(self.kt_op[self.n:] @ f, None,
                                   slice(self.n))

    def supply_rate(self, z, f):
        """Instantaneous work rate of the input:
        (K u)^T f + ((g(q), 0) - z_bd)^T u.

        The second term vanishes without nonlinear/boundary terms; it is what
        the input feeds into the non-quadratic part of the energy.
        """
        if self.input_vector is None:
            return np.zeros(np.shape(f)[1:])
        s = (self.K @ self.input_vector) @ f
        extra = self.grad_extra(z)
        if extra is not None:
            s = s + self.input_vector @ extra
        return s

    def dissipation_rate(self, f):
        """f^T chi f >= 0; energy leaves the visible variables at this rate."""
        return _column_dot(f, self.chi_apply(f))


class _VerletStages:
    """Kick-drift-kick stages of dz/dt = J (M z + c + (g(q), 0) - z_bd) + u,
    the one Stoermer-Verlet kernel of both model forms.

    Per step (w = dt/2), with c split into a start-of-step constant ``cs``
    and an end-of-step one ``ce``:

    1. kick   p_h  from grad_q at (q_n, p_h) under cs,
    2. drift  q_1  from grad_p averaged over (q_n, p_h | cs) and
              (q_1, p_h | ce),
    3. kick   p_1  from grad_q at (q_1, p_h) under ce.

    Stages 1 and 2 are implicit only through the qp and pq blocks of the
    stage matrix M. The inverses (I + w m_qp)^{-1} and (I - w m_pq)^{-1}
    are formed once, a diagonal kept as a vector for a diagonal block and
    a dense matrix otherwise, so each implicit stage is one product; a
    stage whose block is zero is explicit and keeps ``None``. A CSR block
    of M whose nonzeros lie on its diagonal (m_pp of the wave and
    sine-Gordon models) is kept as its diagonal too, so its product is an
    elementwise one; dense blocks stay dense.

    Stage 1 takes the force m_qq q_n from the caller, and
    :meth:`_kick_drift_kick` returns stage 3's m_qq q_1 with the new state,
    so a stepper that carries it makes one m_qq product per step.

    The boundary vector is a constant, so -J z_bd joins the input u once,
    at setup, in the per-stage constants ``_wu_p`` = w u_p and ``_dtu_q`` =
    dt u_q (None where zero). The gradient g of the potential of the
    positions enters the two kicks only, each evaluated at its own q, so a
    step costs two gradient evaluations. A step is affine in its state and
    in those two gradients, which :func:`_step_map` probes by swapping
    ``_grad``.
    """

    def __init__(self, dt: float):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.dt = float(dt)

    def _init_stages(self, terms: _ExtraTerms, m) -> None:
        """Split the stage matrix ``m`` (dense or CSR) and the constants of
        ``terms`` into q/p blocks and invert the implicit stages."""
        w = 0.5 * self.dt
        n = terms.n
        self._grad = terms.nonlinear_grad
        # without a nonlinear gradient the step is affine in its state
        self.linear = self._grad is None
        qq, qp, pq, pp = (_stored(b) for b in (m[:n, :n], m[:n, n:],
                                                m[n:, :n], m[n:, n:]))
        self._kick_inv = self._drift_inv = None
        if abs(qp).max() != 0.0:
            self._kick_inv = _shifted_inverse(qp, w, "first kick")
        if abs(pq).max() != 0.0:
            self._drift_inv = _shifted_inverse(pq, -w, "drift")
        self.m_qq, self.m_qp, self.m_pq, self.m_pp = map(_kept,
                                                         (qq, qp, pq, pp))
        u = terms.constant_term()
        self._dtu_q = self._wu_p = None
        if u is not None:
            self._dtu_q = self.dt * u[:n] if u[:n].any() else None
            self._wu_p = w * u[n:] if u[n:].any() else None

    def _kick_drift_kick(self, z, force, cs, ce):
        """The state one step after z, and its force m_qq q_1, given z's
        force m_qq q_n."""
        w = 0.5 * self.dt
        n = self.m_qq.shape[0]
        q, p = z[:n], z[n:]

        # kick under the start-of-step constant
        rhs = p - w * (force + cs[:n])
        if not self.linear:
            rhs = rhs - w * self._grad(q)
        if self._wu_p is not None:
            rhs = rhs + self._wu_p
        p_half = rhs if self._kick_inv is None else self._kick_inv @ rhs

        # drift averaging the two constants
        rhs = q + w * (2.0 * (self.m_pp @ p_half) + cs[n:] + ce[n:])
        if self._drift_inv is not None:
            rhs = rhs + w * (self.m_pq @ q)
        if self._dtu_q is not None:
            rhs = rhs + self._dtu_q
        q_new = rhs if self._drift_inv is None else self._drift_inv @ rhs

        # second kick under the end-of-step constant
        force = self.m_qq @ q_new
        grad_q = force + ce[:n]
        if not self.linear:
            grad_q = grad_q + self._grad(q_new)
        if self._kick_inv is not None:
            grad_q = grad_q + self.m_qp @ p_half
        p_new = p_half - w * grad_q
        if self._wu_p is not None:
            p_new = p_new + self._wu_p
        return np.concatenate([q_new, p_new]), force


class VerletStepper(_VerletStages):
    """One Stoermer-Verlet step of the time-dispersive model.

    Eliminating the co-state f from each stage gradient yields the stage
    matrix M = K^T (I + w chi)^{-1} K of :class:`_VerletStages` and the
    constant -K^T (I + w chi)^{-1} chi h of the memory tail h (w = dt/2):
    the start-of-step tail h_n for the first kick and the first drift
    gradient, the end-of-step tail h_{n+1} for the rest. The committed
    co-state then solves the node-(n+1) constraint at (q_1, p_1 | h_{n+1}).

    The stepper owns the memory of its current node n: the co-state ``f``
    and the trapezoid integral ``integral`` = F_n, whose tail
    h_n = F_n - w f_n is the part of the quadrature that excludes the
    node's own contribution, so the constraint reads
    (I + w chi) f_n = K z_n - chi h_n, that is f_n = K z_n - chi F_n. The
    node state also holds the force m_qq q_n of stage 1 and the
    start-of-step tail constant, each the one the previous step left (its
    stage-3 force and its end-of-step constant), so a step makes one m_qq
    product. It starts at node 0 from ``system.z0`` and F_0 = 0, loaded by
    :meth:`_load`; ``step(z)`` takes the state of the current node.

    (I + w chi)^{-1} is formed once and every use multiplies by it: for a
    diagonal chi its diagonal of reciprocals, kept as a vector, else a
    dense inverse. When K is CSR, K^T (I + w chi)^{-1} and the blocks of M
    are formed and stored in CSR as well (a diagonal block as its
    diagonal), unless a non-diagonal chi makes them dense.
    """

    kind = "tdd"

    def __init__(self, system: TddSystem, dt: float):
        super().__init__(dt)
        self.system = system
        w = 0.5 * self.dt
        self._wi = _shifted_inverse(system.chi, w, "co-state solve")
        wi_k = self._wi @ system.K
        m = system.kt_op @ wi_k
        self.kt_wi = _stored(wi_k.T)           # K^T (I + w chi)^{-1}
        self._init_stages(system, 0.5 * (m + m.T))
        self._load(system.z0, np.zeros(system.dim))

    def step(self, z):
        """Advance the state z of the current node by one step and commit
        the new co-state and the trapezoid memory; returns the new state."""
        sys_ = self.system
        w = 0.5 * self.dt
        tail = self.integral + w * self.f
        chi_tail_end = sys_.chi_apply(tail)
        ce = -(self.kt_wi @ chi_tail_end)
        z_new, self._force = self._kick_drift_kick(z, self._force, self._cs,
                                                   ce)
        self.f = self._wi @ (sys_.K @ z_new - chi_tail_end)
        self.integral = tail + w * self.f
        self._cs = ce
        return z_new

    def _load(self, z, integral):
        """Make ``integral`` the memory of the current node, whose state is
        z, with the co-state K z - chi integral, and the force m_qq q and
        the start-of-step constant -K^T (I + w chi)^{-1} chi (integral - w f)
        that a step would leave."""
        sys_ = self.system
        self._force = self.m_qq @ z[: sys_.n]
        self.f = sys_.K @ z - sys_.chi_apply(integral)
        self.integral = integral
        tail = integral - 0.5 * self.dt * self.f
        self._cs = -(self.kt_wi @ sys_.chi_apply(tail))


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

    The four energy and passivity series hold one value per node of
    ``times``; they, ``volterra_max`` and ``kz_max`` are derived after the
    steps from the states (and co-states) the driver recorded in blocks. A
    Verlet run records no derivatives; its model's ``velocity`` gives dq/dt.

    ``step_map`` is the linear part of the map the run advanced by (see
    :func:`_record_blocks`): the columns of Phi or B on x, the step with
    any gradient frozen at zero. A run that did not take the map, stepped
    or RK4, has None.
    """

    times: np.ndarray
    hamiltonian: np.ndarray
    string_energy: np.ndarray
    extended_energy: np.ndarray
    passivity_residual: np.ndarray
    snapshots: SnapshotSet
    derivatives: np.ndarray | None   # dz/dt of an RK4 run, per snapshot
    volterra_max: float
    kz_max: float
    dt: float
    n_steps: int
    wall_seconds: float
    kind: str = "tdd"
    costates: np.ndarray | None = None   # f = K z - chi F columns, aligned
                                         # with snapshots (tdd runs only)
    step_map: np.ndarray | None = None

    def physical_snapshots(self, system: TddSystem) -> SnapshotSet:
        """Physical state K^{-1} f of a time-dispersive run of ``system`` on
        its snapshot grid; the plain dissipative model and its POD/Galerkin
        reductions evolve this state, whose quadratic energy is
        0.5 ||f||^2. A sparse K is solved by its sparse LU factors."""
        if self.costates is None:
            raise ValueError(f"a {self.kind} run carries no co-states")
        if scipy.sparse.issparse(system.K):
            # imported here, as in _reciprocal_condition
            from scipy.sparse import linalg as sparse_linalg
            states = sparse_linalg.splu(
                scipy.sparse.csc_array(system.K)).solve(self.costates)
        else:
            states = np.linalg.solve(system.K, self.costates)
        return SnapshotSet(self.snapshots.times, states)


# Nodes per recorded block: _record_blocks writes every node into a block
# of this length, and _drive derives the series of each block.
_BLOCK = 128

# Verlet models whose step map has at most this many columns advance by it
# (see _record_blocks): the map state x for a linear model, x and the n
# gradient entries for a nonlinear one, whose rows are x alone; so 5n
# columns and 4n rows for a closed sine-Gordon model of n nodes, 3n and 2n
# for its plain form. Measured with one BLAS thread over 5000 steps, probes
# included, the linear map beats the stepper up to about 400 columns on the
# closed CSR wave, the cheapest step per row (mapped over stepped time, the
# median of eleven alternating pairs on an Intel Xeon: 0.61 at 340 columns,
# 0.72-0.86 at 360-380, 1.00-1.03 at 400), and still at 800 on the dense
# closed ladder and 600 on its dissipative form; the preset ladder's full
# map has 200 columns, the 1000-dim wave's 2000. Over 2000 steps of the
# full sine-Gordon model with one BLAS thread, on a B that also gave the
# n entries of q_{n+1}, mapped over stepped time read 0.62 at 300 columns
# (closed, n = 60), 0.71 at 350 (n = 70), 1.08 at 375 (n = 75) and 1.32 at
# 400 (n = 80) in one best of seven; alternating pairs (best of eleven,
# Intel Xeon) read 0.66 at n = 70, 0.88-0.94 at n = 75 and 0.88-1.03 at
# n = 80, and for the plain form 0.87 at 360 (n = 120) and 1.00 at 399
# (n = 133). So up to the bound a nonlinear map costs at most about what
# stepping does, and the bound sits below the linear crossover. The
# reduced sine-Gordon maps are at most 120 x 150 (rdh k = 60; psd k = 60
# is 60 x 90).
_MAP_DIM = 400


def _closed_columns(system: TddSystem, states, memory, costates):
    """Per-node diagnostics of a closed run from (dim, m) blocks of states,
    memory integrals F and co-states f: H, 0.5 ||f||^2 plus the
    non-quadratic energy, f^T chi f, the supply rate, the passivity residual
    -f^T chi f, and the largest entries of |K z - f - chi F| (the Volterra
    residual) and of |K z|."""
    kz = system.K @ states
    nonquad = system.nonquadratic_energy(states, np.zeros(states.shape[1]))
    diss = system.dissipation_rate(costates)
    volterra = kz - (costates + system.chi_apply(memory))
    return np.array([0.5 * _column_dot(kz, kz) + nonquad,
                     0.5 * _column_dot(costates, costates) + nonquad,
                     diss, system.supply_rate(states, costates), -diss,
                     np.abs(volterra).max(axis=0), np.abs(kz).max(axis=0)])


def _plain_columns(hamiltonian, states):
    """The columns of :func:`_closed_columns` for a run without strings or
    memory: H from ``hamiltonian`` (zero when None), stored energy H, and
    zero rates and residuals."""
    zero = np.zeros(states.shape[1])
    h = zero if hamiltonian is None else hamiltonian(states)
    return np.array([h, h, zero, zero, zero, zero, zero])


def _trapezoid_sum(weight: float, rates):
    """Running trapezoid integral of per-node rates with node weight
    ``weight`` (dt/2), summed sequentially from zero at node 0."""
    steps = weight * (rates[:-1] + rates[1:])
    return np.cumsum(np.concatenate([[0.0], steps]))


def _step_map(stepper, closed: bool, dim: int):
    """The step of a Verlet stepper as products: x = (z, F) for a
    :class:`VerletStepper`, loaded with :meth:`VerletStepper._load`, and
    x = z otherwise.

    A linear stepper gives (Phi, c, None) with Phi x + c the state one step
    after x. With a nonlinear gradient the step is affine in x and in the
    two gradients it takes, g_n at stage 1 and g_{n+1} at stage 3, each of
    n = dim / 2 entries, so it gives (B, c, G_1) with

        x' = B [x; g_n] + c,  x_{n+1} = x' + G_1 grad(q'),

    where q' = q_{n+1}, the q rows of x', is the argument stage 3 passes
    to the gradient: G_1 is zero on the q rows. Everything comes from the
    stepper's own ``step``: c is the image of zero, and each column the
    image of a unit vector minus c. For the probes of a nonlinear stepper
    the stepper's gradient is swapped for one that returns the injected
    g_n and g_{n+1}, and restored after; the model's gradient is never
    called. The probes leave the stepper at an arbitrary state."""
    linear = stepper.linear
    xdim = (2 if closed else 1) * dim
    n = dim // 2
    injected = []

    def image(v):
        x = v[:xdim]
        injected[:] = [v[xdim: xdim + n], v[xdim + n:]]
        if closed:
            z, integral = x.reshape(2, dim)
            stepper._load(z, integral)
            return np.concatenate([stepper.step(z), stepper.integral])
        return stepper.step(x)

    unit = np.zeros(xdim if linear else xdim + 2 * n)
    real_grad = stepper._grad
    if not linear:
        stepper._grad = lambda q: injected.pop(0)
    try:
        c = image(unit)
        phi = np.empty((c.size, unit.size))
        for j in range(unit.size):
            unit[j] = 1.0
            phi[:, j] = image(unit) - c
            unit[j] = 0.0
    finally:
        stepper._grad = real_grad
    if linear:
        return phi, c, None
    return (np.ascontiguousarray(phi[:, : xdim + n]), c,
            np.ascontiguousarray(phi[:, xdim + n:]))


def _record_blocks(stepper, z, n_steps: int, snapshot_stride: int,
                   closed: bool, inline: bool):
    """The one node source of :func:`_drive`: every node of a run from the
    state z at node 0, written into blocks of _BLOCK nodes aligned at node
    0 and yielded as (layers, m, dim) views of one reused buffer (m is
    _BLOCK but in the last block), each with the ``step_map`` of
    :class:`RunReport` (None until it is built). The layers are the state
    z; for a :class:`VerletStepper` also its memory integral F and its
    co-state f; for an RK4 stepper (``inline``) also dz/dt from its
    ``rhs``, called at each snapshot node right after the step.

    Each node is written by ``stepper.step`` or by the step map; nothing
    here checks what it writes, so a run that leaves floating point range
    goes on to the end of its block, and :func:`_drive` raises. A Verlet
    step is affine in x = (z, F) for the closed form, whose co-state is
    then f = K z - chi F, and in z otherwise, and in its stage-1 gradient,
    once its stage-3 one is set apart. When the map has at most _MAP_DIM
    columns and the run more than one step, :func:`_step_map` builds it
    from the stepper's own step once node 1 is recorded, one probe step per
    column plus one, and every later node is advanced in place, x being the
    first layers of a node's row: x <- Phi x + c for a linear stepper (no
    nonlinear gradient), and for a nonlinear one x <- B [x; g] + c, the
    gradient g at that vector's q rows and x <- x + G_1 g, g starting from
    the gradient at node 1's q: one evaluation per mapped step, at the q
    the node records. The states agree with the stepped run to roundoff,
    not bitwise, since the map takes the gradient where the stepper does.
    """
    dim = z.size
    n = dim // 2
    system = stepper.system if closed else None
    rows = np.empty((_BLOCK, 3 if closed else 2 if inline else 1, dim))
    # the map state x of each node: the leading (z, F), or z, of its row
    xdim = (2 if closed else 1) * dim
    xs = rows.reshape(_BLOCK, -1)[:, :xdim]
    linear = stepper.linear
    # a nonlinear map also takes the gradient: n more columns
    mapped = (isinstance(stepper, _VerletStages) and n_steps > 1
              and xdim + (0 if linear else n) <= _MAP_DIM)
    phi = linear_block = None
    for start in range(0, n_steps + 1, _BLOCK):
        m = min(_BLOCK, n_steps + 1 - start)
        j = 0
        while phi is None and j < m:
            if start + j:
                z = stepper.step(z)
            rows[j, 0] = z
            if closed:
                rows[j, 1] = stepper.integral
                rows[j, 2] = stepper.f
            elif inline and (start + j) % snapshot_stride == 0:
                rows[j, 1] = stepper.rhs(z)
            j += 1
            if mapped and start + j == 2:
                # node 1 and, for a nonlinear model, its gradient
                x = xs[1].copy() if linear else np.concatenate(
                    [xs[1], stepper._grad(xs[1, :n])])
                phi, c, g1 = _step_map(stepper, closed, dim)
                linear_block = phi[:, :xdim]
                if not linear:
                    grad = stepper._grad
                    kick = np.empty(xdim)
                    # x = (x, g) of the current node
                    x_x, x_g = x[:xdim], x[xdim:]
        if phi is not None:             # map the rest of the block
            if linear:
                for row in xs[j:m]:
                    np.matmul(phi, x, out=row)
                    row += c
                    x = row
                x = x.copy()
            else:
                for row in xs[j:m]:
                    np.matmul(phi, x, out=row)
                    row += c
                    x_g[:] = grad(row[:n])
                    np.matmul(g1, x_g, out=kick)
                    row += kick
                    x_x[:] = row
            if closed:
                rows[j:m, 2] = (system.K @ rows[j:m, 0].T
                                - system.chi_apply(rows[j:m, 1].T)).T
        yield rows[:m].transpose(1, 0, 2), linear_block


def _drive(make_stepper, z0, dt: float, n_steps: int | None,
           t_final: float | None, snapshot_stride: int,
           hamiltonian=None) -> RunReport:
    """Run a stepper over the time grid and assemble its report.

    The stepper provides ``step(z)`` (the next state), a ``kind`` and
    ``linear``, true when its step is affine in its state. The nodes come
    from :func:`_record_blocks`, by the step or by the step map, whose
    linear block the report and the error carry as ``step_map``. Numpy's
    overflow and invalid warnings are silenced in the loop.

    Each block gives up its snapshot nodes and is reduced to per-node
    diagnostics column by column. This is the one place a run fails: it
    raises :class:`NonFiniteError` at the block's first node whose state,
    or whose H, stored energy, rates, Volterra residual or max |K z|, is
    non-finite. An RK4 run's derivative layer is not read, since its rows
    off the snapshot grid are never written. A grid of no finite step count
    or whose snapshots cannot be allocated raises ValueError at the start.

    For a :class:`VerletStepper` the string energy and the input work,
    trapezoid sums of f^T chi f and of the supply rate, are summed once
    after the loop, and the extended energy is 0.5 ||f||^2 + V(q)
    - z_bd . z + E_string + e. Other runs' energy
    is ``hamiltonian`` of their states (zero when None); their extended
    energy is H and their other series are zero.
    """
    if (n_steps is None) == (t_final is None):
        raise ValueError("specify exactly one of n_steps and t_final")
    if n_steps is None:
        if not np.isfinite(t_final / dt):
            raise ValueError("t_final / dt is not a finite step count")
        n_steps = int(round(t_final / dt))
    if n_steps < 0:
        raise ValueError("step count must be nonnegative")
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be at least 1")
    t0 = time.perf_counter()
    stepper = make_stepper()
    closed = isinstance(stepper, VerletStepper)
    inline = isinstance(stepper, _Rk4Stepper)
    w = 0.5 * dt
    z = np.array(z0, dtype=float)
    # the block layers kept at snapshot nodes, in the store's layer order
    kept = [0, 2] if closed else [0, 1] if inline else [0]
    try:
        store = np.empty((len(kept), z.size, n_steps // snapshot_stride + 1))
    except (ValueError, MemoryError):
        raise ValueError(f"the snapshots of {n_steps:.3g} steps cannot be "
                         "allocated") from None
    blocks = _record_blocks(stepper, z, n_steps, snapshot_stride, closed,
                            inline)
    columns = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start, (block, step_map) in zip(range(0, n_steps + 1, _BLOCK),
                                            blocks):
            first = -(-start // snapshot_stride)
            picks = np.arange(first * snapshot_stride - start, block.shape[1],
                              snapshot_stride)
            cols = slice(first, first + picks.size)
            store[:, :, cols] = block[kept][:, picks].transpose(0, 2, 1)
            diagnostics = (
                _closed_columns(stepper.system, *(r.T for r in block))
                if closed else _plain_columns(hamiltonian, block[0].T))
            bad_state = ~np.isfinite(block[0]).all(axis=1)
            bad = bad_state | ~np.isfinite(diagnostics).all(axis=0)
            if bad.any():
                node = int(bad.argmax())
                raise NonFiniteError(start + node, "state" if bad_state[node]
                                     else "energy or residual", step_map)
            columns.append(diagnostics)
        ham, stored, diss, supply, passiv, volterra, kz = np.concatenate(
            columns, axis=1)
        e_str = _trapezoid_sum(w, diss)
        h_ext = stored + e_str + _trapezoid_sum(-w, supply)
    times = dt * np.arange(n_steps + 1)
    return RunReport(
        times=times, hamiltonian=ham, string_energy=e_str, extended_energy=h_ext,
        passivity_residual=passiv,
        snapshots=SnapshotSet(times[::snapshot_stride], store[0]),
        derivatives=store[1] if inline else None,
        volterra_max=float(volterra.max()),
        kz_max=float(kz.max()), dt=dt, n_steps=n_steps,
        wall_seconds=time.perf_counter() - t0, kind=stepper.kind,
        costates=store[1] if closed else None, step_map=step_map,
    )


def integrate(system: TddSystem, dt: float, n_steps: int | None = None,
              t_final: float | None = None,
              snapshot_stride: int = 1) -> RunReport:
    """Integrate the time-dispersive model and collect diagnostics.

    Records the visible energy H, the string energy, the conserved extended
    energy 0.5 ||f||^2 + V(q) - z_bd . z + E_string + e, and the
    passivity residual dH_ext/dt - 0 = -f^T chi f <= 0 linking visible energy
    decay to the strings. Snapshots (state and co-state) are stored every
    ``snapshot_stride`` steps; ``n_steps == 0`` yields the initial instant
    only. The run records no derivatives: dq/dt of the snapshots is
    ``system.velocity(report.costates)``. A model whose step map is small
    enough advances by it, with one gradient evaluation per step for a
    nonlinear model (see :func:`_record_blocks`).

    Raises
    ------
    NonFiniteError
        At the first node whose state, energies, rates or residuals are
        non-finite (see :func:`_drive`), once the block that holds it is
        recorded; the exception names that node's step.
    """
    return _drive(lambda: VerletStepper(system, dt), system.z0, dt, n_steps,
                  t_final, snapshot_stride)


# -- plain dissipative form (reference baselines) ---------------------------


class DissipativeModel(_ExtraTerms):
    """Plain dissipative form dz/dt = J grad H(z) - R z + u with
    H(z) = 0.5 z^T S z + V(q) - z_bd . z.

    As for :class:`TddSystem`, the potential V(q) and its gradient g(q)
    take the positions, of shape (n,) or (n, m). The stiffness S and drift
    R are kept as given, a sparse matrix as a CSR one and any other as a
    dense array, and so are the operators derived from them."""

    def __init__(self, stiffness, drift=None, z0=None, *, nonlinear_grad=None,
                 potential=None, input_vector=None, boundary_vector=None,
                 dx: float = 1.0, name: str = ""):
        self.stiffness = _stored(stiffness)
        dim = self.stiffness.shape[0]
        if self.stiffness.shape != (dim, dim) or dim % 2:
            raise ValueError(f"stiffness must be square even-dim, got {self.stiffness.shape}")
        scale = max(1.0, float(abs(self.stiffness).max()))
        if _sym_deviation(self.stiffness) > 1e-10 * scale:
            raise ValueError("stiffness must be symmetric")
        self.stiffness = _stored(0.5 * (self.stiffness + self.stiffness.T))
        self.drift = None if drift is None else _stored(drift)
        if self.drift is not None and self.drift.shape != (dim, dim):
            raise ValueError("drift must match stiffness in shape")
        self.z0 = np.zeros(dim) if z0 is None else np.asarray(z0, dtype=float)
        self.dim = dim
        self.n = dim // 2
        self._init_terms(nonlinear_grad, potential, input_vector,
                         boundary_vector, dx, name)

    def hamiltonian(self, z):
        """H of a state, or of each column of a (dim, m) block."""
        return self.nonquadratic_energy(
            z, 0.5 * _column_dot(z, self.stiffness @ z))

    def state_derivative(self, z):
        return self._flow(self.stiffness @ z, z,
                          None if self.drift is None else self.drift @ z)

    def velocity(self, z):
        """dq/dt, the q rows of :meth:`state_derivative`:
        (S z)_p - (z_bd)_p - (R z)_q + u_q, of a state or of each column of
        a (dim, m) block; as for :meth:`TddSystem.velocity`, no gradient is
        evaluated."""
        n = self.n
        return self._plus_constant(
            self.stiffness[n:] @ z,
            None if self.drift is None else self.drift[:n] @ z, slice(n))

    def linear_operator(self):
        """J S - R, the generator of the linear part of the flow; CSR when
        S and R are."""
        op = _canonical_times(self.J, self.stiffness)
        if self.drift is not None:
            op = _stored(op - self.drift)
        return op


class DissipativeVerletStepper(_VerletStages):
    """Stoermer-Verlet for the plain dissipative form.

    dz/dt = J (S z + (g(q), 0) - z_bd) - R z + u is
    J (M z + (g(q), 0) - z_bd) + u with M = S + J R, so the drift -R z enters the stages of
    :class:`_VerletStages` through M, without a memory constant. The step
    stays time-symmetric: the first kick is implicit in the new
    half-momentum, the final kick is its adjoint, and the position update
    is trapezoidal, which keeps second order.
    """

    kind = "dissipative"

    def __init__(self, model: DissipativeModel, dt: float):
        super().__init__(dt)
        self.model = model
        s, d = model.stiffness, model.drift
        self._init_stages(model,
                          s if d is None else s + _canonical_times(model.J, d))
        self._no_tail = np.zeros(model.dim)

    def step(self, z):
        force = self.m_qq @ z[: self.model.n]
        return self._kick_drift_kick(z, force, self._no_tail,
                                     self._no_tail)[0]


def integrate_dissipative(model: DissipativeModel, dt: float,
                          n_steps: int | None = None,
                          t_final: float | None = None,
                          snapshot_stride: int = 1) -> RunReport:
    """Integrate the plain dissipative form with the symmetrized Verlet
    scheme. String and extended energies are not defined for this
    formulation and are reported as zero / equal to H. The run records no
    derivatives: dq/dt of the snapshots is ``model.velocity`` of their
    states. A model whose step map is small enough advances by it, with one
    gradient evaluation per step for a nonlinear model (see
    :func:`_record_blocks`). Raises :class:`NonFiniteError` at the first
    node whose state or H is non-finite."""
    return _drive(lambda: DissipativeVerletStepper(model, dt), model.z0, dt,
                  n_steps, t_final, snapshot_stride, model.hamiltonian)


class _Rk4Stepper:
    """Classical fourth-order Runge-Kutta step of dz/dt = rhs(z)."""

    kind = "rk4"
    linear = False      # the right-hand side is opaque

    def __init__(self, rhs, dt: float):
        self.rhs = rhs
        self.dt = dt

    def step(self, z):
        rhs, dt = self.rhs, self.dt
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * dt * k1)
        k3 = rhs(z + 0.5 * dt * k2)
        k4 = rhs(z + dt * k3)
        return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_rk4(rhs, z0, dt: float, n_steps: int | None = None,
                  t_final: float | None = None,
                  snapshot_stride: int = 1) -> RunReport:
    """Classical fourth-order Runge-Kutta loop for an arbitrary autonomous
    right-hand side. Used by the unstructured POD baseline, whose energy is
    evaluated on the lifted states, so every energy series is zero. Per step
    the right-hand side is called for the four stages, then once more at
    each snapshot instant (from t = 0 on) for dz/dt. Raises
    :class:`NonFiniteError` at the first node whose state is non-finite."""
    return _drive(lambda: _Rk4Stepper(rhs, dt), z0, dt, n_steps, t_final,
                  snapshot_stride)
