"""Symplectic linear algebra: canonical form, paired bases, greedy and
SVD-based basis generation."""

import numpy as np
import pytest

import sympmor as sm
from sympmor import (CanonicalForm, DegenerateVector, OrthoSymplecticBasis,
                     SnapshotSet)
from sympmor.symplectic import (_leading_left_singular_vectors,
                                symplectic_gram_schmidt)

from conftest import coefficients, random_ortho_symplectic, symplectic_inverse


def test_canonical_form_blocks():
    j = CanonicalForm(3)
    q = np.arange(1.0, 4.0)
    p = np.arange(4.0, 7.0)
    z = np.concatenate([q, p])
    assert np.array_equal(j.apply(z), np.concatenate([p, -q]))
    assert np.array_equal(j.apply_transpose(z), np.concatenate([-p, q]))
    jm = j.matrix()
    assert np.array_equal(jm @ z, j.apply(z))
    assert np.array_equal(jm.T @ jm, np.eye(6))
    with pytest.raises(ValueError):
        CanonicalForm(0)
    with pytest.raises(ValueError):
        j.apply(np.zeros(5))


def test_symplectic_inverse_identity():
    assert np.array_equal(symplectic_inverse(np.eye(4)), np.eye(4))


def test_symplectic_inverse_of_canonical_matrix():
    j = CanonicalForm(2).matrix()
    j_plus = symplectic_inverse(j)
    assert np.array_equal(j_plus, -j)
    assert np.array_equal(j_plus @ j, np.eye(4))


def test_symplectic_inverse_random_basis():
    basis = random_ortho_symplectic(4, 2, rng=0)
    a = basis.matrix
    a_plus = symplectic_inverse(a)
    assert np.abs(a_plus @ a - np.eye(4)).max() <= 1e-12
    # the column pairing makes A^+ the transpose, bitwise
    assert np.array_equal(a.T, a_plus)


def test_symplectic_inverse_rejects_odd_shapes():
    with pytest.raises(ValueError):
        symplectic_inverse(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        symplectic_inverse(np.zeros((4, 3)))


def test_gram_schmidt_empty_basis_normalizes():
    v = np.array([0.0, 3.0, 4.0, 0.0])
    e = symplectic_gram_schmidt(v, None)
    assert abs(np.linalg.norm(e) - 1.0) <= 1e-15
    assert np.abs(e - v / 5.0).max() <= 1e-15


def test_gram_schmidt_degenerate_candidates():
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    basis = OrthoSymplecticBasis(e1[:, None])
    with pytest.raises(DegenerateVector):
        symplectic_gram_schmidt(e1, basis)
    # the paired partner column J^T e1 is already in the basis as well
    with pytest.raises(DegenerateVector):
        symplectic_gram_schmidt(basis.J.apply_transpose(e1), basis)
    with pytest.raises(DegenerateVector):
        symplectic_gram_schmidt(np.zeros(4), None)


def test_gram_schmidt_extends_basis():
    rng = np.random.default_rng(1)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    basis = OrthoSymplecticBasis(e1[:, None])
    e_new = symplectic_gram_schmidt(rng.standard_normal(4), basis)
    assert abs(np.linalg.norm(e_new) - 1.0) <= 1e-14
    assert np.abs(basis.matrix.T @ e_new).max() <= 1e-14
    extended = OrthoSymplecticBasis(np.hstack([basis.lead, e_new[:, None]]))
    extended.validate(tol=1e-12)
    a = extended.matrix
    j4 = CanonicalForm(2).matrix()
    assert np.abs(a.T @ (j4 @ a) - CanonicalForm(2).matrix()).max() <= 1e-12


def test_greedy_constant_snapshots():
    z = np.array([1.0, 2.0, 3.0, 4.0])
    snaps = SnapshotSet(times=np.arange(5.0), states=np.tile(z, (5, 1)).T)
    result = sm.greedy_basis(snaps, max_pairs=1)
    assert result.basis.n_columns == 2
    assert result.worst_errors.shape == (1,)
    assert result.worst_errors[0] <= 1e-12
    assert result.selected == [0]
    # a second pair needs a snapshot outside the first pair's span
    with pytest.raises(ValueError, match="degenerate"):
        sm.greedy_basis(snaps, max_pairs=3)


def test_greedy_rejects_zero_start():
    states = np.zeros((4, 3))
    states[0, 1:] = 1.0
    snaps = SnapshotSet(times=np.arange(3.0), states=states)
    with pytest.raises(ValueError, match="cotangent"):
        sm.greedy_basis(snaps, max_pairs=2)


def test_greedy_history_matches_brute_force(wave_n100):
    _, report = wave_n100
    result = sm.greedy_basis(report.snapshots, max_pairs=10)
    basis = result.basis
    assert basis.k == 10
    assert result.selected[0] == 0
    assert len(result.selected) == 10
    errs = result.worst_errors
    assert errs.shape == (10,)
    assert np.all(np.diff(errs) <= 1e-12)
    states = report.snapshots.states
    for pairs in range(1, 11):
        a = basis.truncate(pairs).matrix
        proj = a @ (symplectic_inverse(a) @ states)
        brute = float(np.linalg.norm(states - proj, axis=0).max())
        assert abs(brute - errs[pairs - 1]) <= 1e-10 * (1.0 + brute)


def _exact_greedy(states, max_pairs):
    """Reference greedy: every pick from the projection errors of the whole
    snapshot matrix, recomputed for each basis. Returns the selected
    indices and the worst-error history."""
    basis = OrthoSymplecticBasis(states[:, :1] / np.linalg.norm(states[:, 0]))
    selected, history = [0], []
    while True:
        errs = np.linalg.norm(states - basis.project(states), axis=0)
        history.append(errs.max())
        if basis.k == max_pairs:
            return selected, np.asarray(history)
        for idx in np.argsort(-errs, kind="stable"):
            try:
                e_new = symplectic_gram_schmidt(states[:, idx], basis)
            except DegenerateVector:
                continue
            basis = OrthoSymplecticBasis(np.hstack([basis.lead,
                                                    e_new[:, None]]))
            selected.append(int(idx))
            break


def test_greedy_recomputes_cancelled_errors():
    """Snapshots within 1e-9 of the first keep about 1e-18 of their squared
    norm past the first pair, below the rounding error of a downdated
    square: greedy_basis recomputes them by projection, so its picks and
    history follow the exact projection."""
    rng = np.random.default_rng(3)
    z0 = rng.standard_normal(40)
    states = np.column_stack(
        [z0] + [z0 + 1e-9 * rng.standard_normal(40) for _ in range(11)])
    snaps = SnapshotSet(times=np.arange(12.0), states=states)
    result = sm.greedy_basis(snaps, max_pairs=4)
    selected, history = _exact_greedy(states, 4)
    assert result.selected == selected
    assert np.all(np.abs(result.worst_errors - history) <= 1e-10 * history)


def test_cotangent_single_snapshot():
    q0 = np.array([3.0, 4.0])
    z = np.concatenate([q0, np.zeros(2)])
    snaps = SnapshotSet(times=np.zeros(1), states=z[:, None])
    basis, sv = sm.cotangent_lift(snaps, 1)
    assert basis.n_columns == 2
    # block-diagonal with the same normalized factor in both blocks
    assert np.abs(basis.lead[2:]).max() == 0.0
    phi = basis.lead[:2, 0]
    assert np.abs(np.outer(phi, phi) - np.outer(q0, q0) / 25.0).max() <= 1e-14
    assert np.abs(basis.matrix[:2, 1]).max() == 0.0
    assert np.abs(basis.matrix[2:, 1] - phi).max() <= 1e-15
    assert abs(sv[0] - 5.0) <= 1e-12


def test_cotangent_coordinate_directions():
    states = np.zeros((4, 2))
    states[0, 0] = 2.0
    states[1, 1] = 1.0
    snaps = SnapshotSet(times=np.arange(2.0), states=states)
    basis, _ = sm.cotangent_lift(snaps, 2)
    basis.validate(tol=1e-12)
    proj = basis.lead @ basis.lead.T
    assert np.abs(proj - np.diag([1.0, 1.0, 0.0, 0.0])).max() <= 1e-12
    with pytest.raises(ValueError, match="rank 2"):
        sm.cotangent_lift(snaps, 3)


def test_cotangent_wave_invariants(wave_n100):
    _, report = wave_n100
    basis, sv = sm.cotangent_lift(report.snapshots, 10)
    basis.validate(tol=1e-10)
    a = basis.matrix
    j = basis.J
    assert np.abs(a.T @ j.apply(a) - CanonicalForm(10).matrix()).max() <= 1e-12
    assert np.all(np.diff(sv) <= 1e-12 * sv[0])


def test_pod_single_and_orthogonal_snapshots():
    z = np.array([1.0, 2.0, 2.0, 0.0])
    snaps = SnapshotSet(times=np.zeros(1), states=z[:, None])
    v, s = sm.pod_basis(snaps, 1)
    assert np.abs(v @ v.T - np.outer(z, z) / 9.0).max() <= 1e-14
    assert abs(s[0] - 3.0) <= 1e-12

    states = np.diag([2.0, 1.0, 0.5, 0.25])
    snaps = SnapshotSet(times=np.arange(4.0), states=states)
    v, s = sm.pod_basis(snaps, 4)
    assert np.abs(v.T @ v - np.eye(4)).max() <= 1e-12
    assert np.abs(v @ v.T - np.eye(4)).max() <= 1e-12
    with pytest.raises(ValueError, match="rank 1"):
        sm.pod_basis(SnapshotSet(times=np.zeros(1), states=z[:, None]), 2)


def test_pod_wave_orthonormal(wave_n100):
    _, report = wave_n100
    v, s = sm.pod_basis(report.snapshots, 20)
    assert v.shape == (200, 20)
    assert np.abs(v.T @ v - np.eye(20)).max() <= 1e-12
    assert np.all(np.diff(s) <= 1e-12 * s[0])


def test_basis_singular_values(wave_n100):
    """The singular values that pod_basis and cotangent_lift return: the
    leading ones of the snapshot matrix and of the stacked q/p block, one
    per mode or pair."""
    _, report = wave_n100
    _, sv = sm.pod_basis(report.snapshots, 20)
    ref = np.linalg.svd(report.snapshots.states, compute_uv=False)
    assert sv.shape == (20,)
    assert np.abs(sv - ref[:20]).max() <= 1e-12 * ref[0]
    n = report.snapshots.dim // 2
    stacked = np.hstack([report.snapshots.states[:n],
                         report.snapshots.states[n:]])
    _, sv = sm.cotangent_lift(report.snapshots, 10)
    ref = np.linalg.svd(stacked, compute_uv=False)
    assert sv.shape == (10,)
    assert np.abs(sv - ref[:10]).max() <= 1e-12 * ref[0]

    z = np.array([1.0, -1.0, 0.5, 2.0])
    repeated = SnapshotSet(times=np.arange(5.0), states=np.tile(z, (5, 1)).T)
    _, sv = sm.pod_basis(repeated, 1)
    assert sv.shape == (1,)
    assert abs(sv[0] - np.sqrt(5.0) * np.linalg.norm(z)) <= 1e-12

    zeros = SnapshotSet(times=np.arange(3.0), states=np.zeros((4, 3)))
    for build in (sm.pod_basis, sm.cotangent_lift):
        with pytest.raises(ValueError, match="rank zero"):
            build(zeros, 1)


def _svd_route(block, count):
    """The SVD route of the helper, as the sole route before the Gram one:
    the R-SVD of a wide block, LAPACK's SVD of a tall or square one."""
    if block.shape[1] > block.shape[0]:
        block = np.linalg.qr(block.T, mode="r").T
    u, s, _ = np.linalg.svd(block, full_matrices=False)
    return u[:, :count], s[:count]


def _without_svd(monkeypatch, block, count):
    """The helper's answer with the SVD patched to fail: the Gram route."""
    def no_svd(*args, **kwargs):
        raise AssertionError("the Gram route ran an SVD")
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", no_svd)
        return _leading_left_singular_vectors(block, count, "modes")


@pytest.mark.parametrize("shape, base", [
    ((12, 300), 2.0), ((300, 12), 2.0), ((12, 12), 2.0),
    ((12, 300), 10.0), ((300, 12), 10.0), ((12, 12), 10.0),
], ids=["wide", "tall", "square", "wide-svd", "tall-svd", "square-svd"])
def test_leading_left_singular_vectors_match_lapack(shape, base,
                                                    monkeypatch):
    """A spectrum 2^-i stays above the Gram route's cut (s_11 / s_0 =
    4.9e-4 >= 1e-4), and the Gram route gives np.linalg.svd's singular
    values and, up to sign, its left singular vectors on well separated
    modes. A spectrum 10^-i falls below it (s_7 / s_0 = 1e-7), and the SVD
    route returns bitwise the R-SVD or LAPACK SVD answer. A rank-deficient
    block is rejected past its rank on either route."""
    rng = np.random.default_rng(9)
    m, n = shape
    r = min(shape)
    u0 = np.linalg.qr(rng.standard_normal((m, r)))[0]
    v0 = np.linalg.qr(rng.standard_normal((n, r)))[0]
    block = (u0 * base ** -np.arange(r)) @ v0.T
    u_ref, s_ref, _ = np.linalg.svd(block, full_matrices=False)
    for count in (r, r - 4):
        if base == 2.0:
            u, s = _without_svd(monkeypatch, block, count)
            assert s.shape == (count,)
            assert np.abs(s - s_ref[:count]).max() <= 1e-13 * s_ref[0]
            signs = np.sign(np.sum(u * u_ref[:, :count], axis=0))
            assert np.abs(u * signs - u_ref[:, :count]).max() <= 1e-10
        else:
            u, s = _leading_left_singular_vectors(block, count, "modes")
            u_svd, s_svd = _svd_route(block, count)
            assert np.array_equal(u, u_svd) and np.array_equal(s, s_svd)

    deficient = u0[:, :3] @ v0[:, :3].T
    assert _leading_left_singular_vectors(deficient, 3, "modes")[0].shape \
        == (m, 3)
    with pytest.raises(ValueError, match="requested 4 modes .* rank 3"):
        _leading_left_singular_vectors(deficient, 4, "modes")


@pytest.mark.parametrize("last, gram", [(1.05e-4, True), (0.95e-4, False)],
                         ids=["above", "below"])
def test_tall_block_on_either_side_of_the_cut(last, gram, monkeypatch):
    """A tall block whose 40th singular value sits just above the cut
    (s_39 / s_0 = 1.05e-4) takes the Gram route, and its mapped modes
    ``x v`` are orthonormalized by QR: |U^T U - I| stays at roundoff, far
    below the 1e-10 a POD basis file must meet (normalizing ``x v`` alone
    reads about 3e-10 here), and the basis spans the SVD's leading modes.
    Just below the cut (0.95e-4) the block takes the SVD route."""
    rng = np.random.default_rng(3)
    u0 = np.linalg.qr(rng.standard_normal((400, 200)))[0]
    v0 = np.linalg.qr(rng.standard_normal((200, 200)))[0]
    block = (u0 * last ** (np.arange(200) / 39)) @ v0.T
    u_svd, s_svd = _svd_route(block, 40)
    if not gram:
        u, s = _leading_left_singular_vectors(block, 40, "modes")
        assert np.array_equal(u, u_svd) and np.array_equal(s, s_svd)
        return
    u, s = _without_svd(monkeypatch, block, 40)
    assert np.abs(u.T @ u - np.eye(40)).max() <= 1e-13
    assert np.linalg.norm(u - u_svd @ (u_svd.T @ u), 2) <= 1e-8
    assert np.abs(s - s_svd).max() <= 1e-13 * s_svd[0]


def test_bases_of_power_of_two_scaled_snapshots():
    """Snapshots scaled by 2^900 or 2^-900, whose Gram would overflow or
    underflow to a false rank zero unscaled, give bitwise the POD and
    cotangent bases of the unscaled ones, with exactly scaled singular
    values."""
    config = sm.make_config("wave", {"n": 16})
    bench = sm.build_benchmark("wave", config)
    snaps = sm.integrate(bench.system, dt=config.dt, t_final=config.t_final,
                         snapshot_stride=config.snapshot_stride).snapshots
    for build, count in ((sm.pod_basis, 16), (sm.cotangent_lift, 8)):
        basis, sv = build(snaps, count)
        matrix = getattr(basis, "matrix", basis)
        for exponent in (900, -900):
            scaled = SnapshotSet(snaps.times, np.ldexp(snaps.states,
                                                       exponent))
            other, other_sv = build(scaled, count)
            assert np.array_equal(getattr(other, "matrix", other), matrix)
            assert np.array_equal(other_sv, np.ldexp(sv, exponent))


def test_random_ortho_symplectic_deterministic():
    a = random_ortho_symplectic(5, 3, rng=42)
    b = random_ortho_symplectic(5, 3, rng=42)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.matrix.shape == (10, 6)
    a.validate(tol=1e-10)


def test_basis_truncation_is_nested(wave_n100):
    _, report = wave_n100
    basis, _ = sm.cotangent_lift(report.snapshots, 8)
    sub = basis.truncate(3)
    assert np.array_equal(sub.lead, basis.lead[:, :3])
    sub.validate(tol=1e-10)
    with pytest.raises(ValueError):
        basis.truncate(0)
    with pytest.raises(ValueError):
        basis.truncate(9)


def test_basis_validate_flags_bad_columns():
    lead = 2.0 * np.eye(4)[:, :1]
    with pytest.raises(ValueError, match="orthonormal"):
        OrthoSymplecticBasis(lead).validate()
    with pytest.raises(ValueError):
        OrthoSymplecticBasis(np.zeros((4, 0)))
    with pytest.raises(ValueError):
        OrthoSymplecticBasis(np.zeros((5, 1)))


def test_projection_idempotent(wave_n100):
    _, report = wave_n100
    basis, _ = sm.cotangent_lift(report.snapshots, 6)
    for b in (basis, random_ortho_symplectic(6, 2, rng=3)):
        a = b.matrix
        proj = a @ symplectic_inverse(a)
        assert np.abs(proj @ proj - proj).max() <= 1e-8
    z = np.random.default_rng(4).standard_normal(200)
    assert np.abs(basis.project(basis.project(z))
                  - basis.project(z)).max() <= 1e-10


def test_lift_and_coefficients_are_adjoint_routes(wave_n100):
    """Lift and projection are products with the cached basis matrix A,
    bitwise, and agree, as do the coefficients A^T z, with the symplectic
    inverse A^+ that the transpose stands for."""
    _, report = wave_n100
    basis, _ = sm.cotangent_lift(report.snapshots, 5)
    a = basis.matrix
    a_plus = symplectic_inverse(a)
    rng = np.random.default_rng(7)
    for shape in ((), (3,)):        # one state, and a block of states
        y = rng.standard_normal((10, *shape))
        z = rng.standard_normal((200, *shape))
        assert np.array_equal(basis.lift(y), a @ y)
        assert np.array_equal(coefficients(basis, z), a.T @ z)
        assert np.array_equal(basis.project(z), a @ (a.T @ z))
        assert np.abs(a_plus @ basis.lift(y) - y).max() <= 1e-13
        assert np.abs(coefficients(basis, z) - a_plus @ z).max() <= 1e-13
        assert np.abs(basis.project(z) - a @ (a_plus @ z)).max() <= 1e-13


def test_snapshot_set_validation():
    with pytest.raises(ValueError, match="even"):
        SnapshotSet(times=np.zeros(1), states=np.zeros((3, 1)))
    with pytest.raises(ValueError, match="times"):
        SnapshotSet(times=np.zeros(2), states=np.zeros((4, 1)))
    with pytest.raises(ValueError, match="2-d"):
        SnapshotSet(times=np.zeros(1), states=np.zeros(4))
    s = SnapshotSet(times=np.zeros(1), states=np.zeros((4, 1)))
    assert s.dim == 4 and s.count == 1
