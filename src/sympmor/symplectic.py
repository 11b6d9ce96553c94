"""Symplectic linear algebra.

Canonical Poisson structure, ortho-symplectic bases and their symplectic
inverses, greedy basis generation from trajectory snapshots, the cotangent
lift, and plain POD for reference baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DegenerateVector(Exception):
    """Candidate vector lies numerically in the span of the current basis."""


class CanonicalForm:
    """Canonical Poisson matrix J of size 2n, applied implicitly.

    J maps (q, p) to (p, -q); the transpose maps (q, p) to (-p, q). Both are
    O(n) block swaps with a sign flip, so no matrix is formed unless
    :meth:`matrix` is called explicitly.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"half dimension must be positive, got {n}")
        self.n = int(n)

    @property
    def dim(self) -> int:
        return 2 * self.n

    def _check(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.dim:
            raise ValueError(
                f"expected leading dimension {self.dim}, got {v.shape[0]}"
            )
        return v

    def apply(self, v):
        """Return J v for a vector of length 2n (or matrix with 2n rows)."""
        v = self._check(v)
        return np.concatenate([v[self.n:], -v[: self.n]], axis=0)

    def apply_transpose(self, v):
        """Return J^T v; J^T = -J = J^{-1}."""
        v = self._check(v)
        return np.concatenate([-v[self.n:], v[: self.n]], axis=0)

    def matrix(self) -> np.ndarray:
        """Explicit 2n x 2n matrix, for serialization and tests."""
        n = self.n
        j = np.zeros((2 * n, 2 * n))
        j[:n, n:] = np.eye(n)
        j[n:, :n] = -np.eye(n)
        return j


@dataclass
class SnapshotSet:
    """Trajectory samples: ``states[:, i]`` is the state at ``times[i]``.

    ``dx`` is the grid spacing of semi-discretized PDE states; L2 norms of
    such states carry a factor sqrt(dx). Plain ODE states use dx = 1.
    """

    times: np.ndarray
    states: np.ndarray
    dx: float = 1.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2:
            raise ValueError("states must be a 2-d array (dim x count)")
        if self.states.shape[0] % 2:
            raise ValueError("state dimension must be even")
        if self.states.shape[1] != self.times.shape[0]:
            raise ValueError(
                f"{self.states.shape[1]} states vs {self.times.shape[0]} times"
            )

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @property
    def count(self) -> int:
        return self.states.shape[1]


class OrthoSymplecticBasis:
    """Ortho-symplectic basis A = [E | J^T E] of shape (2n, 2k).

    The column pairing (column k+i equals J^T applied to column i) is
    maintained structurally, which makes the symplectic inverse A^+ equal
    the transpose A^T, so the reduced coordinates of z are A^T z. Lift and
    projection are products with the cached :attr:`matrix` and its
    transpose.
    """

    def __init__(self, lead: np.ndarray):
        lead = np.asarray(lead, dtype=float)
        if lead.ndim != 2 or lead.shape[0] % 2:
            raise ValueError(f"leading block must be (2n, k), got {lead.shape}")
        if lead.shape[1] < 1:
            raise ValueError("basis needs at least one column pair")
        self.lead = lead
        self.J = CanonicalForm(lead.shape[0] // 2)
        self._matrix = None

    @property
    def n(self) -> int:
        return self.lead.shape[0] // 2

    @property
    def k(self) -> int:
        return self.lead.shape[1]

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def n_columns(self) -> int:
        return 2 * self.k

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.hstack([self.lead, self.J.apply_transpose(self.lead)])
        return self._matrix

    def project(self, z):
        """Orthogonal (= symplectic) projection A A^T z."""
        a = self.matrix
        return a @ (a.T @ z)

    def lift(self, y):
        """Map reduced coordinates back: A y."""
        return self.matrix @ y

    def truncate(self, pairs: int) -> "OrthoSymplecticBasis":
        """Sub-basis of the first ``pairs`` column pairs (nested by design)."""
        if not 1 <= pairs <= self.k:
            raise ValueError(f"pairs must be in [1, {self.k}], got {pairs}")
        return OrthoSymplecticBasis(self.lead[:, :pairs])

    def validate(self, tol: float = 1e-10) -> None:
        """Check orthonormality and symplecticity; the column pairing holds
        by construction, since :attr:`matrix` is built from ``lead``."""
        a = self.matrix
        gram = a.T @ a - np.eye(2 * self.k)
        if np.abs(gram).max() > tol:
            raise ValueError(
                f"basis not orthonormal: |A^T A - I|_max = {np.abs(gram).max():.3e}"
            )
        jk = CanonicalForm(self.k).matrix()
        sympl = a.T @ self.J.apply(a) - jk
        if np.abs(sympl).max() > tol:
            raise ValueError(
                f"basis not symplectic: |A^T J A - J_2k|_max = {np.abs(sympl).max():.3e}"
            )


def symplectic_gram_schmidt(v, basis: OrthoSymplecticBasis | None,
                            tol: float = 1e-12) -> np.ndarray:
    """Orthogonalize ``v`` against an ortho-symplectic basis and normalize.

    Subtracts the (symplectic = Euclidean, for paired bases) projection twice
    for numerical re-orthogonalization.

    Raises
    ------
    DegenerateVector
        If the residual norm falls below ``tol * ||v||``; the caller is
        expected to skip the candidate.
    """
    v = np.asarray(v, dtype=float)
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0:
        raise DegenerateVector("candidate vector is zero")
    r = v.copy()
    if basis is not None:
        for _ in range(2):
            r = r - basis.project(r)
    norm_r = np.linalg.norm(r)
    if norm_r < tol * norm_v:
        raise DegenerateVector(
            f"residual {norm_r:.3e} below {tol:.1e} * ||v|| = {tol * norm_v:.3e}"
        )
    return r / norm_r


@dataclass
class GreedyResult:
    basis: OrthoSymplecticBasis
    worst_errors: np.ndarray   # max projection error at 1, ..., k pairs
    selected: list = field(default_factory=list)


def _projection_errors(basis: OrthoSymplecticBasis, states: np.ndarray) -> np.ndarray:
    resid = states - basis.project(states)
    return np.linalg.norm(resid, axis=0)


def _greedy_start(z0: np.ndarray) -> np.ndarray:
    """The first greedy basis vector: the first snapshot, normalized. A zero
    first snapshot (a run at rest) raises ValueError."""
    norm0 = np.linalg.norm(z0)
    if norm0 == 0.0:
        raise ValueError(
            "first snapshot is zero: the run starts at rest, and greedy "
            "initialization normalizes the initial state (use the cotangent "
            "lift)"
        )
    return z0 / norm0


def greedy_basis(snapshots: SnapshotSet, max_pairs: int) -> GreedyResult:
    """Greedy ortho-symplectic basis of ``max_pairs`` pairs from trajectory
    snapshots.

    Starts from the normalized initial state, then repeatedly adds the
    snapshot with the worst projection error (earliest instant on ties),
    orthogonalized by :func:`symplectic_gram_schmidt`, together with its
    J^T partner. Degenerate candidates are skipped in favor of the
    next-worst instant; snapshots that are all degenerate before
    ``max_pairs`` pairs are reached raise ValueError.

    Each snapshot's squared projection error is downdated by the squared
    coefficients of each new pair, since the basis is orthonormal. A
    downdated square below 1e-8 of the snapshot's squared norm has lost
    most of its digits to cancellation, so it is recomputed exactly by
    projection (the norm-downdating safeguard of LAPACK's xGEQP3).

    Returns
    -------
    GreedyResult
        Basis, the non-increasing history of worst projection errors, and
        the selected snapshot indices.
    """
    if max_pairs < 1:
        raise ValueError("max_pairs must be at least 1")
    states = snapshots.states
    norm2 = np.einsum("ij,ij->j", states, states)
    sq = norm2
    basis = OrthoSymplecticBasis(_greedy_start(states[:, 0])[:, None])
    selected = [0]
    history = []
    while True:
        e = basis.lead[:, -1]
        coeffs = np.vstack([e, basis.J.apply_transpose(e)]) @ states
        sq = sq - np.einsum("ij,ij->j", coeffs, coeffs)
        lost = sq < 1e-8 * norm2
        if lost.any():
            sq[lost] = _projection_errors(basis, states[:, lost]) ** 2
        errs = np.sqrt(sq)
        history.append(float(errs.max()))
        if basis.k == max_pairs:
            break
        # stable sort on negated errors: earliest instant wins ties
        for idx in np.argsort(-errs, kind="stable"):
            try:
                e_new = symplectic_gram_schmidt(states[:, idx], basis)
            except DegenerateVector:
                continue
            basis = OrthoSymplecticBasis(np.hstack([basis.lead, e_new[:, None]]))
            selected.append(int(idx))
            break
        else:
            raise ValueError(
                f"requested {max_pairs} greedy pairs but the snapshots have "
                f"symplectic rank {basis.k}: every remaining snapshot is "
                f"degenerate"
            )
    return GreedyResult(basis=basis, worst_errors=np.asarray(history),
                        selected=selected)


def _leading_left_singular_vectors(block: np.ndarray, count: int,
                                   what: str):
    """The ``count`` leading left singular vectors of ``block`` and its full
    singular value sequence. A request past the numerical rank, or a block
    of rank zero, raises ValueError.

    A block with more columns than rows is first reduced to the square
    factor ``r^T`` of ``block^T = q r`` (Chan's R-SVD): ``block = r^T q^T``
    with orthonormal ``q``, so ``r^T`` has the block's left singular vectors
    and singular values, and the long right singular vectors are never
    formed. LAPACK's SVD already QR-factors a tall block first."""
    if block.shape[1] > block.shape[0]:
        block = np.linalg.qr(block.T, mode="r").T
    u, s, _ = np.linalg.svd(block, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-14)) if s.size else 0
    if rank == 0:
        raise ValueError("snapshot set has rank zero")
    if count > rank:
        raise ValueError(
            f"requested {count} {what} but the snapshots have rank {rank}"
        )
    return u[:, :count], s


def cotangent_lift(snapshots: SnapshotSet, pairs: int):
    """Cotangent-lift basis: shared SVD factor for the q and p blocks.

    Stacks the q- and p-parts of all snapshots side by side, takes the
    ``pairs`` leading left singular vectors Phi and returns the (exactly
    ortho-symplectic) basis blockdiag(Phi, Phi).

    Returns
    -------
    (OrthoSymplecticBasis, ndarray)
        The basis and the full singular value sequence of the stacked block.
    """
    n = snapshots.dim // 2
    stacked = np.hstack([snapshots.states[:n], snapshots.states[n:]])
    phi, s = _leading_left_singular_vectors(stacked, pairs, "cotangent pairs")
    return OrthoSymplecticBasis(np.vstack([phi, np.zeros_like(phi)])), s


def pod_basis(snapshots: SnapshotSet, modes: int):
    """Plain POD basis: leading left singular vectors of the snapshot matrix,
    and the full singular value sequence.

    No symplectic structure; reference baseline only.
    """
    return _leading_left_singular_vectors(snapshots.states, modes,
                                          "POD modes")
