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
# the CSR product kernel behind scipy's own matmul (see _Csr)
from scipy.sparse import _sparsetools

from .symplectic import CanonicalForm, SnapshotSet

_FLOAT64 = np.dtype(np.float64)


class NonFiniteError(RuntimeError):
    """A run left the range of floating point numbers: at node ``step``,
    the first whose state or per-node diagnostics (energies, rates and
    residuals) are non-finite; ``what`` says which of the two.
    ``step_map`` is the run's linear step map, as on :class:`RunReport`."""

    def __init__(self, step: int, what: str, step_map=None):
        self.step = step
        self.step_map = step_map
        super().__init__(f"{what} became non-finite at step {step}")


class _Csr(scipy.sparse.csr_array):
    """CSR array that reports the bytes of its data, indices and indptr as
    ``nbytes``, like the dense operators it stands in for.

    Its product with a 1-D, C-contiguous float64 vector (an ndarray, not a
    subclass), for float64 entries, is the bare ``csr_matvec`` kernel
    writing into a fresh zero vector: what scipy's own vector product runs
    after its dispatch, so the result is bitwise the same, and each CSR
    product of a stepped Verlet step skips the dispatch (on the 1000-row
    sine-Gordon K, 9.0 us through scipy against 5.5 us for the kernel
    alone, one core of an Intel Xeon). Every other operand (a block, a
    strided view, another dtype, a sparse matrix) takes scipy's
    ``__matmul__``."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def __matmul__(self, v):
        shape = self.shape
        # ``is`` on the dtypes: an unusual float64 (say byte-swapped) only
        # takes scipy's path
        if (type(v) is np.ndarray and v.dtype is _FLOAT64
                and v.shape == shape[1:] and v.flags.c_contiguous
                and self.data.dtype is _FLOAT64):
            out = np.zeros(shape[0])
            _sparsetools.csr_matvec(shape[0], shape[1], self.indptr,
                                    self.indices, self.data, v, out)
            return out
        return super().__matmul__(v)


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
        if isinstance(v, np.ndarray) and v.ndim == 1:
            return self.diagonal * v
        if scipy.sparse.issparse(v):
            return _Csr(scipy.sparse.diags(self.diagonal)) @ v
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


def _require_finite(m, name: str) -> None:
    """Raise ValueError naming ``name`` unless every entry of ``m``, dense
    or sparse, is finite."""
    if not np.isfinite(_entries(m)).all():
        raise ValueError(f"{name} has a non-finite entry")


def _require_symmetric(m, name: str, tol: float) -> float:
    """The one operator check: raise ValueError naming ``name`` unless
    every entry of the square ``m``, dense or sparse, is finite and m is
    symmetric to ``tol`` relative to max(1, max |m|); returns that
    scale."""
    _require_finite(m, name)
    scale = max(1.0, float(abs(m).max()))
    if float(abs(m - m.T).max()) > tol * scale:
        raise ValueError(f"{name} is not symmetric to {tol:g} relative")
    return scale


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
    or is not symmetric to 1e-12 relative (see :func:`_require_symmetric`).
    """
    m = _stored(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    _require_symmetric(m, name, 1e-12)
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


def _vector(v, dim: int, field: str):
    """``v`` as a float vector, None for None; raise ValueError naming
    ``field`` unless its shape is (dim,)."""
    if v is None:
        return None
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise ValueError(f"{field} must have shape ({dim},), got {v.shape}")
    return v


def _column(v, z):
    """A constant vector v shaped to broadcast against z's columns."""
    return v.reshape((-1,) + (1,) * (np.ndim(z) - 1))


def _column_dot(a, b):
    """a . b of two vectors, or of each pair of columns of two blocks."""
    return np.sum(a * b, axis=0)


class _ExtraTerms:
    """What both model forms share beyond their quadratic energy: the
    phase space, its initial state, a potential V(q) of the positions with
    gradient g(q), a boundary vector z_bd and an input u."""

    def _init_terms(self, dim, z0, nonlinear_grad, potential, input_vector,
                    boundary_vector, dx, name):
        """Set the phase space of even dimension ``dim``, with n = dim / 2,
        and the shared terms; z0, u and z_bd must each have shape (dim,)."""
        if dim % 2:
            raise ValueError("phase space dimension must be even")
        self.dim = dim
        self.n = dim // 2
        self.z0 = _vector(z0, dim, "z0")
        self.nonlinear_grad = nonlinear_grad
        self.potential = potential
        self.input_vector = _vector(input_vector, dim, "input_vector")
        self.boundary_vector = _vector(boundary_vector, dim,
                                       "boundary_vector")
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

    def grad_extra(self, z):
        """Non-quadratic gradient terms (g(q), 0) - z_bd, of a state or of
        each column of a (dim, m) block; None without either."""
        if self.nonlinear_grad is None and self.boundary_vector is None:
            return None
        out = np.zeros(np.shape(z))
        if self.nonlinear_grad is not None:
            out[: self.n] = self.nonlinear_grad(z[: self.n])
        if self.boundary_vector is not None:
            out -= _column(self.boundary_vector, z)
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
            rates = rates + _column(constant[rows], rates)
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
        if self.K.ndim != 2 or self.K.shape[0] != self.K.shape[1]:
            raise ValueError(f"K must be square, got {self.K.shape}")
        if self.chi.shape != self.K.shape:
            raise ValueError("chi must match K in shape")
        self._init_terms(self.K.shape[0], z0, nonlinear_grad, potential,
                         input_vector, boundary_vector, dx, name)
        self.kt_op = _stored(self.K.T)
        self._chi_diag = _diagonal(self.chi)
        self.validate()

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        _require_finite(self.K, "K")
        scale = _require_symmetric(self.chi, "susceptibility", 1e-12)
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
        """chi v of a vector, or of each column of a (2n, m) block."""
        if self._chi_diag is None:
            return self.chi @ v
        if v.ndim == 1:
            return self._chi_diag * v
        return (self._chi_diag * v.T).T

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
    ``_grad``. Every stage is a product or an elementwise operation, so
    the state may be a (dim, m) block of columns, stepped as m states at
    once; that is how :func:`_step_map` probes a whole map in one step.

    The stages work in place on the temporaries they allocate themselves,
    in the order of operations of the plain expressions (the only swaps
    are exact ones, such as x + y for y + x), so the bits are theirs. They
    never write into what they are given or hand on: the state z, the
    incoming force and constants, the gradient's return value (during a
    probe a view of the probe block) and the returned force. So a state
    and a probe block take the one code path.
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
        force m_qq q_n; z is a state or a (dim, m) block of columns, and
        the constants cs and ce are in its shape, or None where zero."""
        w = 0.5 * self.dt
        n = self.m_qq.shape[0]
        q, p = z[:n], z[n:]

        # kick under the start-of-step constant
        if cs is None:
            rhs = w * force
        else:
            rhs = force + cs[:n]
            rhs *= w
        np.subtract(p, rhs, out=rhs)
        if not self.linear:
            rhs -= w * self._grad(q)
        if self._wu_p is not None:
            rhs += _column(self._wu_p, rhs)
        p_half = rhs if self._kick_inv is None else self._kick_inv @ rhs

        # drift averaging the two constants
        rhs = self.m_pp @ p_half
        rhs *= 2.0
        if cs is not None:
            rhs += cs[n:]
            rhs += ce[n:]
        rhs *= w
        np.add(q, rhs, out=rhs)
        if self._drift_inv is not None:
            drift = self.m_pq @ q
            drift *= w
            rhs += drift
        if self._dtu_q is not None:
            rhs += _column(self._dtu_q, rhs)
        q_new = rhs if self._drift_inv is None else self._drift_inv @ rhs

        # second kick under the end-of-step constant
        force = self.m_qq @ q_new
        grad_q = force.copy() if ce is None else force + ce[:n]
        if not self.linear:
            grad_q += self._grad(q_new)
        if self._kick_inv is not None:
            grad_q += self.m_qp @ p_half
        grad_q *= w
        p_new = np.subtract(p_half, grad_q, out=grad_q)
        if self._wu_p is not None:
            p_new += _column(self._wu_p, p_new)
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
    :meth:`_load`; ``step(z)`` takes the state of the current node. Both
    also take a (dim, m) block of states as columns, each with its own
    memory, which is how :func:`_step_map` probes the map.

    (I + w chi)^{-1} is formed once and every use multiplies by it: for a
    diagonal chi its diagonal of reciprocals, kept as a vector, else a
    dense inverse. When K is CSR, K^T (I + w chi)^{-1} and the blocks of M
    are formed and stored in CSR as well (a diagonal block as its
    diagonal), unless a non-diagonal chi makes them dense.

    :meth:`step` and :meth:`_load` work in place as the stages do, on
    temporaries of their own: never on z, ``f``, ``integral``, the force or
    the start-of-step constant they were given or keep.

    ``_live`` holds the columns of chi with a nonzero entry: the entries of
    F that chi F reads, so the only ones that act on the next step. An
    entry of F off them changes neither z nor f, bitwise but for the sign
    of a zero (each product with it is a zero), and :func:`_step_map`
    carries F on these columns alone.
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
        chi_diag = system._chi_diag
        self._live = np.flatnonzero(abs(_dense(system.chi)).max(axis=0)
                                    if chi_diag is None else chi_diag)
        self._init_stages(system, 0.5 * (m + m.T))
        self._load(system.z0, np.zeros(system.dim))

    def step(self, z):
        """Advance the state z of the current node by one step and commit
        the new co-state and the trapezoid memory; returns the new state."""
        sys_ = self.system
        w = 0.5 * self.dt
        tail = w * self.f
        tail += self.integral
        chi_tail_end = sys_.chi_apply(tail)
        ce = self.kt_wi @ chi_tail_end
        np.negative(ce, out=ce)
        z_new, self._force = self._kick_drift_kick(z, self._force, self._cs,
                                                   ce)
        kz = sys_.K @ z_new
        kz -= chi_tail_end
        self.f = self._wi @ kz
        tail += w * self.f
        self.integral = tail
        self._cs = ce
        return z_new

    def _load(self, z, integral):
        """Make ``integral`` the memory of the current node, whose state is
        z, with the co-state K z - chi integral, and the force m_qq q and
        the start-of-step constant -K^T (I + w chi)^{-1} chi (integral - w f)
        that a step would leave."""
        sys_ = self.system
        self._force = self.m_qq @ z[: sys_.n]
        f = sys_.K @ z
        f -= sys_.chi_apply(integral)
        self.f = f
        self.integral = integral
        tail = 0.5 * self.dt * f
        np.subtract(integral, tail, out=tail)
        cs = self.kt_wi @ sys_.chi_apply(tail)
        self._cs = np.negative(cs, out=cs)


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
    any gradient frozen at zero. A closed run's x is (z, F_live), F on the
    live columns of chi (see :func:`_step_map`), so its map is square of
    dim plus their number; F off them never acts on the state. A run that
    did not take the map, stepped or RK4, has None.
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
# gradient entries for a nonlinear one, whose rows are x alone. A closed x
# is (z, F_live), F on the live columns of chi only (see _step_map); so 4n
# columns and 3n rows for a closed sine-Gordon model of n nodes (chi damps
# its n momenta), 3n and 2n for its plain form, and 3n for a closed wave.
# The bound sat where mapping stopped paying. Mapped over stepped time,
# one BLAS thread, probes included, on an Intel Xeon: on the closed CSR
# wave, the cheapest step per row, a linear map read 0.61 at 340 columns,
# 0.72-0.86 at 360-380 and 1.00-1.03 at 400 against a stepper whose CSR
# products went through scipy's dispatch, and still beat it at 800 on the
# dense closed ladder and 600 on its plain form; a semi-linear map on the
# full sine-Gordon model read 0.66 at 350 columns, 0.88-1.03 at 375-400
# closed and 1.00 at 399 plain. Against the stepper of the bare CSR kernel
# and in-place stages (see _Csr and _VerletStages), the closed wave's
# linear map reads 0.73-0.95 at 339 columns, 0.75-0.81 at 360, 0.92-1.13
# at 381 and 1.13-1.17 at 399 (medians of 9 alternating runs of the
# preset horizon, two sessions), so its crossover sits near 380 columns,
# below the bound: there a mapped wave run costs up to about 15 % more
# than stepping would. The full
# closed sine-Gordon model maps up to n = 100, its plain form and the
# closed wave up to n = 133; the preset full wave and sine-Gordon runs
# (n = 500) step, and the full ladder (150 columns) and every rdh and psd
# run map.
_MAP_DIM = 400

# Most nodes a linear map advances per product (see _record_blocks): W =
# min(_WINDOW, 2**17 // d**2, n_steps), at least 1, for d columns, so its
# stacked powers hold at most 2**17 entries (1 MB): W is 16 up to 90
# columns, 9 at 120, 5 at 150 (the preset ladder), 3 at 200 and 1 past
# 362. W shrinks with d because a wide window stops paying. Per node,
# sequential -> windowed, one BLAS thread, an orthogonal map over 4000
# steps, best of seven on a noisy Intel Xeon: 1.9-2.2 -> 0.8-0.9 us at 60
# columns, 2.6-3.0 -> 1.7 at 90, 3.6-4.5 -> 2.3-3.7 at 120, 6.2-7.6 ->
# 5.6-8.2 at 200 (13-14 us with W = 8), and 11-16 -> 11-12 and 25 -> 22-23
# at 300 and 400 (W = 1).
_WINDOW = 16


def _closed_columns(system: TddSystem, states, costates, kz, chi_f):
    """Per-node diagnostics of a closed run from (dim, m) blocks of states
    z and co-states f and the products K z and chi F that
    :func:`_record_blocks` formed for their block: H, 0.5 ||f||^2 plus the
    non-quadratic energy, f^T chi f, the supply rate, the passivity
    residual -f^T chi f, and the largest entries of |K z - f - chi F| (the
    Volterra residual) and of |K z|.

    On a stepped block f is the stepper's own solve, so the Volterra
    residual measures how well that solve meets the constraint. On a
    mapped block f = K z - chi F was formed from these very products, so
    the residual is only the rounding of f so formed: the map's own error
    shows in the states, not here."""
    nonquad = system.nonquadratic_energy(states, np.zeros(states.shape[1]))
    diss = system.dissipation_rate(costates)
    volterra = kz - (costates + chi_f)
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
    """The step of a Verlet stepper as products: x = (z, F_live) for a
    :class:`VerletStepper`, F_live the memory integral F on the columns
    ``stepper._live`` that chi F reads, and x = z otherwise. F off those
    columns never acts on z or f, so it is left out, and a closed model
    with chi = 0 maps z alone.

    A linear stepper gives (Phi, c, None) with Phi x + c the state one step
    after x. With a nonlinear gradient the step is affine in x and in the
    two gradients it takes, g_n at stage 1 and g_{n+1} at stage 3, each of
    n = dim / 2 entries, so it gives (B, c, G_1) with

        x' = B [x; g_n] + c,  x_{n+1} = x' + G_1 grad(q'),

    where q' = q_{n+1}, the q rows of x', is the argument stage 3 passes
    to the gradient: G_1 is zero on the q rows. Everything comes from one
    ``step`` of the stepper on the probe block [0 | I], whose columns are
    the zero vector and the unit vectors: c is the image of column 0, and
    each column of the map the image of a unit vector minus c. A closed
    probe is loaded with F zero off the live columns, and its image keeps
    the live rows of the new F. The rows of the block past x hold the
    injected g_n and g_{n+1}: for the probe of a nonlinear stepper its
    gradient is swapped for one that returns those two row blocks in turn,
    and restored after; the model's gradient is never called. The probe
    leaves the stepper at an arbitrary state."""
    live = stepper._live if closed else np.arange(0)
    xdim = dim + live.size
    n = dim // 2
    size = xdim if stepper.linear else xdim + 2 * n
    probes = np.eye(size, size + 1, 1)
    injected = iter((probes[xdim: xdim + n], probes[xdim + n:]))
    real_grad = stepper._grad
    if not stepper.linear:
        stepper._grad = lambda q: next(injected)
    try:
        if closed:
            memory = np.zeros((dim, size + 1))
            memory[live] = probes[dim:xdim]
            stepper._load(probes[:dim], memory)
            images = np.concatenate([stepper.step(probes[:dim]),
                                     stepper.integral[live]])
        else:
            images = stepper.step(probes[:xdim])
    finally:
        stepper._grad = real_grad
    c = images[:, 0].copy()
    phi = images[:, 1:] - c[:, None]
    if stepper.linear:
        return phi, c, None
    return (np.ascontiguousarray(phi[:, : xdim + n]), c,
            np.ascontiguousarray(phi[:, xdim + n:]))


def _record_blocks(stepper, z, n_steps: int, snapshot_stride: int,
                   closed: bool, inline: bool, step_map):
    """The one node source of :func:`_drive`: every node of a run from the
    state z at node 0, written into blocks of _BLOCK nodes aligned at node
    0, each yielded as (layers, m, dim) views of one reused buffer (m is
    _BLOCK but in the last block) together with the products it formed.
    The layers are the state z; for a :class:`VerletStepper` also its
    memory integral F and its co-state f; for an RK4 stepper (``inline``)
    also dz/dt from its ``rhs``, called at each snapshot node right after
    the step.

    A block fills its nodes one of three ways. Without a ``step_map`` each
    node after node 0 comes from ``stepper.step``. With one, the
    (Phi, c, G_1) of :func:`_step_map`, every node is x advanced from x_0:
    the exact (z, 0) of node 0 for the closed form, and z otherwise. A
    plain x is the state layer of its row; a closed x = (z, F_live) has a
    buffer of its own, whose block is copied into the state layer and the
    live columns of the memory layer, which holds zero off them.

    - A linear map (no G_1) advances x <- Phi x + c a window of W nodes
      per product (see _WINDOW): from the stacked powers
      P = [Phi; Phi^2; ...; Phi^W] and shifts D = [c; Phi c + c; ...],
      formed once by that recurrence, P x + D are the next W nodes of the
      block (fewer at its end), and the last of them is the x of the next
      window.
    - A semi-linear map advances one node at a time, x <- B [x; g] + c,
      g the gradient at that vector's q rows and x <- x + G_1 g, g
      starting from the gradient at q_0: one evaluation per step, at the q
      the node records. The states agree with the stepped run's to
      roundoff, not bitwise: the map takes the gradient where the stepper
      does, in other arithmetic.

    Every closed block, stepped or mapped, then forms K z and chi F once
    from its state and memory layers and yields them as the pair
    (K z, chi F) of (dim, m) blocks, which :func:`_closed_columns` reads;
    a mapped block first forms its co-states f = K z - chi F from them. A
    plain block yields (). Nothing here checks what it writes, so a run
    that leaves floating point range goes on to the end of its block, and
    :func:`_drive` raises.
    """
    dim = z.size
    rows = np.empty((_BLOCK, 3 if closed else 2 if inline else 1, dim))
    phi, c, g1 = step_map or (None, None, None)
    if step_map is not None:
        xdim = c.size
        if closed:
            live = stepper._live
            xs = np.zeros((_BLOCK, xdim))
            rows[:, 1] = 0.0                  # F off the live columns
        else:
            xs = rows[:, 0]
        xs[0, :dim] = z
        x = xs[0]       # the last node's x, read in its row by a linear map
        if g1 is None:
            window = max(1, min(_WINDOW, 2**17 // xdim**2, n_steps))
            powers, shifts = [phi], [c]
            for _ in range(window - 1):
                powers.append(phi @ powers[-1])
                shifts.append(phi @ shifts[-1] + c)
            powers, shifts = np.array(powers), np.array(shifts)
        else:
            n = dim // 2
            grad = stepper._grad
            kick = np.empty(xdim)
            # x = (x, g) of the current node
            x = np.concatenate([x, grad(z[:n])])
            x_x, x_g = x[:xdim], x[xdim:]
    for start in range(0, n_steps + 1, _BLOCK):
        m = min(_BLOCK, n_steps + 1 - start)
        if step_map is None:
            for j in range(m):
                if start + j:
                    z = stepper.step(z)
                rows[j, 0] = z
                if closed:
                    rows[j, 1] = stepper.integral
                    rows[j, 2] = stepper.f
                elif inline and (start + j) % snapshot_stride == 0:
                    rows[j, 1] = stepper.rhs(z)
        else:
            todo = xs[0 if start else 1: m]     # node 0 is x_0
            if g1 is None:
                whole = len(todo) - len(todo) % window
                for nodes in todo[:whole].reshape(-1, window, xdim):
                    np.matmul(powers, x, out=nodes)
                    nodes += shifts
                    x = nodes[-1]
                rest = todo[whole:]
                np.matmul(powers[: len(rest)], x, out=rest)
                rest += shifts[: len(rest)]
                x = todo[-1]
            else:
                for row in todo:
                    np.matmul(phi, x, out=row)
                    row += c
                    x_g[:] = grad(row[:n])
                    np.matmul(g1, x_g, out=kick)
                    row += kick
                    x_x[:] = row
            if closed:
                rows[:m, 0] = xs[:m, :dim]
                rows[:m, 1][:, live] = xs[:m, dim:]
        products = ()
        if closed:
            products = (stepper.system.K @ rows[:m, 0].T,
                        stepper.system.chi_apply(rows[:m, 1].T))
            if step_map is not None:
                rows[:m, 2] = (products[0] - products[1]).T
        yield rows[:m].transpose(1, 0, 2), products


def _drive(make_stepper, z0, dt: float, n_steps: int | None,
           t_final: float | None, snapshot_stride: int,
           hamiltonian=None) -> RunReport:
    """Run a stepper over the time grid and assemble its report.

    The stepper provides ``step(z)`` (the next state) and a ``kind``. A
    Verlet stepper whose map has at most _MAP_DIM columns, on a run of
    more than one step, gives its step map (:func:`_step_map`, one block
    step) before node 0, and the run advances by it alone; any other run
    by ``step``. The nodes come from :func:`_record_blocks`; the report
    and the error carry the map's linear block as ``step_map``. Numpy's
    overflow and invalid warnings are silenced from the probe on.

    Each block gives up its snapshot nodes and is reduced to per-node
    diagnostics column by column: a closed block by
    :func:`_closed_columns` from the pair (K z, chi F) it yields, stepped
    or mapped, a plain one by :func:`_plain_columns`. This is the one
    place a run fails: it raises :class:`NonFiniteError` at the block's
    first node whose state, or whose H, stored energy, rates, Volterra
    residual or max |K z|, is non-finite. An RK4 run's derivative layer is
    not read, since its rows off the snapshot grid are never written. A
    grid of no finite step count or whose snapshots cannot be allocated
    raises ValueError at the start.

    For a :class:`VerletStepper` the string energy and the input work,
    trapezoid sums of f^T chi f and of the supply rate, are summed once
    after the loop, and the extended energy is 0.5 ||f||^2 + V(q)
    - z_bd . z + E_string + e. Other runs' energy is ``hamiltonian`` of
    their states (zero when None); their extended energy is H and their
    other series are zero.
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
    # the map state x = (z, F_live) or z; a nonlinear map also takes the
    # gradient: n more columns
    xdim = z.size + (stepper._live.size if closed else 0)
    mapped = (isinstance(stepper, _VerletStages) and n_steps > 1
              and xdim + (0 if stepper.linear else z.size // 2) <= _MAP_DIM)
    # the block layers kept at snapshot nodes, in the store's layer order
    kept = [0, 2] if closed else [0, 1] if inline else [0]
    try:
        store = np.empty((len(kept), z.size, n_steps // snapshot_stride + 1))
    except (ValueError, MemoryError):
        raise ValueError(f"the snapshots of {n_steps:.3g} steps cannot be "
                         "allocated") from None
    columns = []
    with np.errstate(over="ignore", invalid="ignore"):
        maps = _step_map(stepper, closed, z.size) if mapped else None
        step_map = None if maps is None else maps[0][:, :xdim]
        blocks = _record_blocks(stepper, z, n_steps, snapshot_stride, closed,
                                inline, maps)
        for start, (block, products) in zip(range(0, n_steps + 1, _BLOCK),
                                            blocks):
            first = -(-start // snapshot_stride)
            picks = np.arange(first * snapshot_stride - start, block.shape[1],
                              snapshot_stride)
            cols = slice(first, first + picks.size)
            store[:, :, cols] = block[kept][:, picks].transpose(0, 2, 1)
            diagnostics = (
                _closed_columns(stepper.system, block[0].T, block[2].T,
                                *products)
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
    enough advances by it alone from node 0, a nonlinear one evaluating
    its gradient at q_0 and once per step (see :func:`_record_blocks`).

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
        self.drift = None if drift is None else _stored(drift)
        dim = self.stiffness.shape[0]
        if self.stiffness.shape != (dim, dim):
            raise ValueError(f"stiffness must be square, got {self.stiffness.shape}")
        if self.drift is not None and self.drift.shape != (dim, dim):
            raise ValueError("drift must match stiffness in shape")
        self._init_terms(dim, np.zeros(dim) if z0 is None else z0,
                         nonlinear_grad, potential, input_vector,
                         boundary_vector, dx, name)
        _require_symmetric(self.stiffness, "stiffness", 1e-10)
        if self.drift is not None:
            _require_finite(self.drift, "drift")
        self.stiffness = _stored(0.5 * (self.stiffness + self.stiffness.T))

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

    def step(self, z):
        """The state one step after z, a state or a (dim, m) block."""
        force = self.m_qq @ z[: self.model.n]
        return self._kick_drift_kick(z, force, None, None)[0]


def integrate_dissipative(model: DissipativeModel, dt: float,
                          n_steps: int | None = None,
                          t_final: float | None = None,
                          snapshot_stride: int = 1) -> RunReport:
    """Integrate the plain dissipative form with the symmetrized Verlet
    scheme. String and extended energies are not defined for this
    formulation and are reported as zero / equal to H. The run records no
    derivatives: dq/dt of the snapshots is ``model.velocity`` of their
    states. A model whose step map is small enough advances by it alone
    from node 0, a nonlinear one evaluating its gradient at q_0 and once
    per step (see :func:`_record_blocks`). Raises :class:`NonFiniteError`
    at the first node whose state or H is non-finite."""
    return _drive(lambda: DissipativeVerletStepper(model, dt), model.z0, dt,
                  n_steps, t_final, snapshot_stride, model.hamiltonian)


class _Rk4Stepper:
    """Classical fourth-order Runge-Kutta step of dz/dt = rhs(z)."""

    kind = "rk4"

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
