"""Structure-preserving reduction and the reference baselines."""

import numpy as np
import pytest

import sympmor as sm
from sympmor import CanonicalForm, OrthoSymplecticBasis, SnapshotSet
from sympmor.reduction import terminal_growth

from conftest import (build_oscillator, coefficients,
                      random_ortho_symplectic, symplectic_inverse)


def _wave(n=16, **overrides):
    config = sm.make_config("wave", {"n": n, **overrides})
    return sm.build_benchmark("wave", config)


def _identity_basis(dim):
    return OrthoSymplecticBasis(np.eye(dim)[:, : dim // 2])


def test_identity_reduction_reproduces_full():
    bench = _wave(n=16)
    red = sm.rdh_reduce(bench.system, _identity_basis(32))
    k_scale = np.abs(bench.system.K).max()
    assert np.abs(red.system.K - bench.system.K).max() <= 1e-12 * k_scale
    assert np.abs(red.system.chi - bench.system.chi).max() <= 1e-15
    assert np.array_equal(red.system.z0, bench.system.z0)
    full = sm.integrate(bench.system, dt=0.01, n_steps=100)
    reduced = sm.integrate(red.system, dt=0.01, n_steps=100)
    assert np.abs(full.snapshots.states
                  - reduced.snapshots.states).max() <= 1e-10


def test_identity_reduction_error_over_long_run():
    bench = _wave(n=16)
    red = sm.rdh_reduce(bench.system, _identity_basis(32))
    full = sm.integrate(bench.system, dt=0.01, n_steps=1000,
                        snapshot_stride=10)
    reduced = sm.integrate(red.system, dt=0.01, n_steps=1000,
                           snapshot_stride=10)
    recon = sm.reconstruct(red.basis.matrix, reduced.snapshots)
    error = sm.l2_error(full.snapshots, recon, bench.system.dx)
    assert error.max_weighted / np.sqrt(bench.system.dx) <= 1e-8


def test_chi_zero_reduction_matches_symplectic_baseline(run_registry):
    bench = _wave(n=16, chi_scale=0.0)
    basis = random_ortho_symplectic(16, 4, rng=7)
    red = sm.rdh_reduce(bench.system, basis)
    rep_rdh = sm.integrate(red.system, dt=0.01, n_steps=1000)
    run_registry.add("wave-n16-conservative-rdh", rep_rdh)
    model = sm.DissipativeModel(bench.system.K.T @ bench.system.K,
                                z0=bench.system.z0)
    psd = sm.psd_baseline(model, basis)
    rep_psd = sm.integrate_dissipative(psd.model, dt=0.01, n_steps=1000)
    assert np.abs(rep_rdh.snapshots.states
                  - rep_psd.snapshots.states).max() <= 1e-10


def test_reduced_operators_greedy_wave(wave_n100):
    bench, report = wave_n100
    basis = sm.greedy_basis(report.snapshots, 20).basis
    red = sm.rdh_reduce(bench.system, basis)
    chi = red.system.chi
    assert np.abs(chi - chi.T).max() <= 1e-12
    chi_scale = max(1.0, np.abs(chi).max())
    assert np.linalg.eigvalsh(chi).min() >= -1e-12 * chi_scale
    k = red.system.K
    assert red.system.dim == 40
    assert np.abs(np.tril(k, -1)).max() == 0.0
    ka = bench.system.K @ basis.matrix
    gram = ka.T @ ka
    assert np.abs(k.T @ k - gram).max() <= 1e-10 * np.abs(gram).max()
    z0_ref = symplectic_inverse(basis.matrix) @ bench.system.z0
    assert np.abs(red.system.z0 - z0_ref).max() <= 1e-12


def test_reduction_dimension_mismatch():
    bench = _wave(n=16)
    small = random_ortho_symplectic(8, 2, rng=0)
    with pytest.raises(ValueError, match="dimension"):
        sm.rdh_reduce(bench.system, small)
    with pytest.raises(ValueError, match="dimension"):
        sm.psd_baseline(bench.dissipative_model(), small)
    with pytest.raises(ValueError, match="dimension"):
        sm.pod_baseline(bench.dissipative_model(), np.eye(8))


def test_galerkin_identity_basis_is_conservative_limit():
    bench = _wave(n=16)
    red = sm.symplectic_galerkin(bench.system, _identity_basis(32))
    assert np.abs(red.system.chi).max() == 0.0
    conservative = _wave(n=16, chi_scale=0.0)
    a = sm.integrate(red.system, dt=0.01, n_steps=200)
    b = sm.integrate(conservative.system, dt=0.01, n_steps=200)
    assert np.abs(a.snapshots.states - b.snapshots.states).max() <= 1e-10


def test_galerkin_conserves_reduced_energy(wave_n100):
    bench, report = wave_n100
    basis, _ = sm.cotangent_lift(report.snapshots, 10)
    red = sm.symplectic_galerkin(bench.system, basis)
    rep = sm.integrate(red.system, dt=bench.config.dt,
                       t_final=bench.config.t_final)
    h = rep.hamiltonian
    assert np.abs(h - h[0]).max() / abs(h[0]) <= 1e-3
    assert np.abs(rep.string_energy).max() == 0.0


def test_reduced_trajectory_obeys_conditioning_bound(wave_n100):
    bench, report = wave_n100
    basis, _ = sm.cotangent_lift(report.snapshots, 10)
    red = sm.rdh_reduce(bench.system, basis)
    rep = sm.integrate(red.system, dt=bench.config.dt, t_final=10.0)
    sup = np.linalg.norm(rep.snapshots.states, axis=0).max()
    bound = 2.0 * np.linalg.norm(red.system.z0) * np.linalg.cond(red.system.K)
    assert sup <= bound


def test_psd_identity_basis_recovers_model():
    bench = _wave(n=16)
    model = bench.dissipative_model()
    red = sm.psd_baseline(model, _identity_basis(32))
    assert np.abs(red.model.stiffness - model.stiffness).max() <= 1e-15
    assert np.abs(red.model.drift - model.drift).max() <= 1e-15
    a = sm.integrate_dissipative(model, dt=0.01, n_steps=200)
    b = sm.integrate_dissipative(red.model, dt=0.01, n_steps=200)
    assert np.abs(a.snapshots.states - b.snapshots.states).max() <= 1e-13


def test_psd_without_drift_matches_galerkin():
    bench = _wave(n=16, chi_scale=0.0)
    basis = random_ortho_symplectic(16, 5, rng=9)
    model = sm.DissipativeModel(bench.system.K.T @ bench.system.K,
                                z0=bench.system.z0)
    psd = sm.psd_baseline(model, basis)
    assert psd.model.drift is None
    gal = sm.symplectic_galerkin(bench.system, basis)
    a = sm.integrate_dissipative(psd.model, dt=0.01, n_steps=200)
    b = sm.integrate(gal.system, dt=0.01, n_steps=200)
    assert np.abs(a.snapshots.states - b.snapshots.states).max() <= 1e-10


def test_structured_reduction_beats_plain_symplectic(wave_n100_sweep):
    cells = wave_n100_sweep["cells"]
    assert (cells["rdh", 40]["error"].mean_weighted
            < cells["psd", 60]["error"].mean_weighted)


def test_pod_square_basis_is_similarity():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((6, 6))
    stiffness = b.T @ b + 0.5 * np.eye(6)
    c = rng.standard_normal((6, 6))
    model = sm.DissipativeModel(
        stiffness, drift=0.1 * (c.T @ c), z0=rng.standard_normal(6),
        input_vector=rng.standard_normal(6),
        boundary_vector=rng.standard_normal(6))
    v = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    pm = sm.pod_baseline(model, v)
    eig_full = np.linalg.eigvals(model.linear_operator())
    eig_red = np.linalg.eigvals(pm.matrix)
    dist = np.abs(eig_full[:, None] - eig_red[None, :]).min(axis=1).max()
    assert dist <= 1e-8
    j = CanonicalForm(3)
    expected = v.T @ (j.apply(-model.boundary_vector) + model.input_vector)
    assert np.abs(pm.constant - expected).max() <= 1e-12
    assert np.abs(pm.y0 - v.T @ model.z0).max() <= 1e-15


def test_pod_on_symplectic_basis_matches_galerkin_generator():
    rng = np.random.default_rng(13)
    b = rng.standard_normal((8, 8))
    stiffness = b.T @ b + 0.5 * np.eye(8)
    model = sm.DissipativeModel(stiffness, z0=rng.standard_normal(8))
    basis = random_ortho_symplectic(4, 2, rng=14)
    pm = sm.pod_baseline(model, basis.matrix)
    a = basis.matrix
    generator = CanonicalForm(2).matrix() @ (a.T @ model.stiffness @ a)
    assert np.abs(pm.matrix - generator).max() \
        <= 1e-12 * np.abs(model.stiffness).max()


def test_pod_wave_energy_growth_is_flagged(wave_n500):
    """The unstructured 40-mode model drops the sign structure of the
    dissipative coupling; the run is expected to lose stability, tripping
    either the positive-abscissa or the terminal-growth flag. The POD model
    evolves the physical state, so its basis and energy reference come from
    K^{-1} f rather than from the canonical state, which also carries the
    memory integral. ``sympmor compare`` still builds its POD cells from
    the canonical state; on that basis this flow is stable (abscissa
    -4.4e-4), so the program's own POD baseline on wave does not show the
    instability checked here until compare moves to the physical state."""
    bench, full = wave_n500
    config = bench.config
    physical = full.physical_snapshots(bench.system)
    v, _ = sm.pod_basis(physical, 40)
    pm = sm.pod_baseline(bench.dissipative_model(), v)
    abscissa = sm.spectral_abscissa(pm.matrix)
    rep = sm.integrate_rk4(pm.rhs, pm.y0, dt=config.dt,
                           t_final=config.t_final,
                           snapshot_stride=config.snapshot_stride)
    energy_full = bench.system.hamiltonian(physical.states)
    recon = sm.reconstruct(v, rep.snapshots)
    dev = np.abs(bench.system.hamiltonian(recon.states) - energy_full)
    quarter = len(dev) // 4
    means = [float(dev[i * quarter:(i + 1) * quarter].mean())
             for i in range(4)]
    assert abscissa > 0.0 or terminal_growth(dev), (
        "expected unbounded energy drift in the unstructured 40-mode model, "
        f"but the reduced flow is stable: spectral abscissa {abscissa:.4e}, "
        f"energy-deviation quarter means {means[0]:.4g}, {means[1]:.4g}, "
        f"{means[2]:.4g}, {means[3]:.4g}, peak {dev.max():.4g} in the first "
        f"half, final value {dev[-1]:.4g}")


def test_terminal_growth():
    """Growth is a series that ends at its maximum, tenfold past its first
    half, or one that starts finite and later turns non-finite, as the
    energy error of a cell whose lifted energy overflows does."""
    assert terminal_growth([1.0, 1.0, 2.0, 20.0])
    assert not terminal_growth([1.0, 1.0, 20.0, 19.0])   # not at its max
    assert not terminal_growth([1.0, 1.0, 2.0, 9.0])     # under tenfold
    assert not terminal_growth([0.0, 0.0, 0.0, 5.0])     # no early scale
    assert not terminal_growth([1.0])
    for bad in (np.inf, np.nan):
        assert terminal_growth([1.0, 2.0, bad, bad])
        assert terminal_growth([1.0, 1e300, bad, 3.0])
        assert not terminal_growth([bad, 1.0, 2.0, 20.0])


def _separable_basis(n: int, pairs: int, rng) -> OrthoSymplecticBasis:
    """Random ortho-symplectic basis that keeps q and p apart: its lead
    block is (Phi, 0) for an n x pairs Phi with orthonormal columns."""
    phi, _ = np.linalg.qr(np.random.default_rng(rng).standard_normal(
        (n, pairs)))
    return OrthoSymplecticBasis(np.vstack([phi, np.zeros((n, pairs))]))


def test_pulled_back_gradients_on_a_block():
    """Every reduction pulls the sine-Gordon gradient g back through its
    basis, for a block of reduced states as columns: Phi^T g(Phi y_q) of
    the reduced positions for rdh and psd, on a basis with q rows
    Phi = E_q that keeps q and p apart, and -V_p^T g(V_q y) for the POD
    nonlinear term, on a matrix that mixes them."""
    bench = sm.build_benchmark("sine-gordon",
                               sm.make_config("sine-gordon", {"n": 40}))
    model = bench.dissipative_model()
    n, grad = bench.system.n, bench.system.nonlinear_grad
    separable = _separable_basis(n, 5, rng=41)
    phi = separable.lead[:n]
    v = random_ortho_symplectic(n, 5, rng=41).matrix
    y = np.random.default_rng(42).standard_normal((10, 7))
    y_q = y[:5]
    cases = [
        (sm.rdh_reduce(bench.system, separable).system.nonlinear_grad, y_q,
         phi.T @ grad(phi @ y_q)),
        (sm.psd_baseline(model, separable).model.nonlinear_grad, y_q,
         phi.T @ grad(phi @ y_q)),
        (sm.pod_baseline(model, v).nonlinear, y,
         -v[n:].T @ grad(v[:n] @ y)),
    ]
    for reduced, arg, expected in cases:
        scale = np.abs(expected).max()
        assert scale > 0.0
        assert reduced(arg).shape == expected.shape
        assert np.abs(reduced(arg) - expected).max() <= 1e-14 * scale
        assert np.abs(reduced(arg[:, 3]) - expected[:, 3]).max() \
            <= 1e-14 * scale


def _sine_gordon_n40(t_final=4.0):
    config = sm.make_config("sine-gordon", {"n": 40, "t_final": t_final})
    return config, sm.build_benchmark("sine-gordon", config)


def _reductions(bench, basis):
    """The rdh, psd and pod models of one basis (POD on its matrix)."""
    model = bench.dissipative_model()
    return (sm.rdh_reduce(bench.system, basis).system,
            sm.psd_baseline(model, basis).model,
            sm.pod_baseline(model, basis.matrix))


@pytest.mark.parametrize("method", ["cotangent", "greedy"])
def test_position_rows_pull_back_matches_every_row(method):
    """The reductions pull the sine-Gordon potential back through the
    basis's q rows alone. The cells at 8 modes, rdh, psd and pod on a
    cotangent basis and pod on a greedy one that mixes q and p, agree to
    1e-12 relative with the same cells rebuilt on the gradient lifted
    through every row of the basis matrix: the reduced-position rows of
    A^T (g(q), 0) at q the position rows of A (y_q, 0) for rdh and psd, and
    V^T J (g(q), 0) at q those of V y for pod."""
    config, bench = _sine_gordon_n40()
    grid = {"dt": config.dt, "t_final": config.t_final,
            "snapshot_stride": config.snapshot_stride}
    full = sm.integrate(bench.system, **grid)
    basis = (sm.cotangent_lift(full.snapshots, 4)[0] if method == "cotangent"
             else sm.greedy_basis(full.snapshots, 4).basis)
    assert basis.n_columns == 8
    n, k = bench.system.n, basis.k
    a = basis.matrix
    grad = bench.system.nonlinear_grad
    j = CanonicalForm(n)

    def lifted(y):
        z = a @ y
        return np.concatenate([grad(z[:n]), np.zeros_like(z[n:])])
    model = bench.dissipative_model()
    pod = sm.pod_baseline(model, a)
    runs = {"pod": lambda: sm.integrate_rk4(pod.rhs, pod.y0, **grid)}
    if method == "cotangent":
        rdh = sm.rdh_reduce(bench.system, basis).system
        psd = sm.psd_baseline(model, basis).model
        runs["rdh"] = lambda: sm.integrate(rdh, **grid)
        runs["psd"] = lambda: sm.integrate_dissipative(psd, **grid)
    else:
        assert np.abs(basis.lead[n:]).max() > 0.0
    cells = {name: run().snapshots.states for name, run in runs.items()}

    if method == "cotangent":
        rdh.nonlinear_grad = psd.nonlinear_grad = lambda y_q: (a.T @ lifted(
            np.concatenate([y_q, np.zeros_like(y_q)])))[:k]
    pod.nonlinear = lambda y: a.T @ j.apply(lifted(y))
    for name, run in runs.items():
        want = run().snapshots.states
        assert np.abs(cells[name] - want).max() \
            <= 1e-12 * np.abs(want).max(), name


def test_symplectic_reductions_reject_a_mixing_basis():
    """rdh, psd and the symplectic Galerkin projection of a nonlinear model
    need a basis whose lead block has zero momentum rows: on one that
    mixes q and p the reduced potential would read the reduced momentum,
    so each raises ValueError naming the basis. POD reduces onto the same
    matrix, and the linear wave onto the same kind of basis."""
    _, bench = _sine_gordon_n40()
    n = bench.system.n
    basis = random_ortho_symplectic(n, 4, rng=43)
    assert np.abs(basis.lead[n:]).max() > 0.0
    model = bench.dissipative_model()
    for reduce in (lambda: sm.rdh_reduce(bench.system, basis),
                   lambda: sm.symplectic_galerkin(bench.system, basis),
                   lambda: sm.psd_baseline(model, basis)):
        with pytest.raises(ValueError,
                           match="the 8-column basis mixes q and p"):
            reduce()
    assert sm.pod_baseline(model, basis.matrix).nonlinear is not None
    assert sm.rdh_reduce(bench.system,
                         _separable_basis(n, 4, rng=43)).system.n == 4
    wave = sm.build_benchmark("wave", sm.make_config("wave", {"n": n}))
    mixing = random_ortho_symplectic(n, 4, rng=44)
    assert sm.rdh_reduce(wave.system, mixing).system.nonlinear_grad is None
    assert sm.psd_baseline(wave.dissipative_model(),
                           mixing).model.nonlinear_grad is None


def test_reconstruct_routes():
    basis = random_ortho_symplectic(4, 2, rng=21)
    rng = np.random.default_rng(22)
    y = rng.standard_normal((4, 3))
    times = np.arange(3.0)
    lifted = sm.reconstruct(basis.matrix, SnapshotSet(times=times, states=y))
    assert lifted.states.shape == (8, 3)
    assert np.array_equal(lifted.states, basis.lift(y))
    z = basis.lift(rng.standard_normal(4))
    assert np.abs(basis.lift(coefficients(basis, z)) - z).max() <= 1e-12
    v = rng.standard_normal((8, 4))
    plain = sm.reconstruct(
        v, SnapshotSet(times=times, states=rng.standard_normal((4, 3))))
    assert plain.states.shape == (8, 3)


def test_l2_error_aggregates():
    times = np.arange(4.0)
    rng = np.random.default_rng(23)
    states = rng.standard_normal((6, 4))
    ref = SnapshotSet(times=times, states=states)
    same = sm.l2_error(ref, SnapshotSet(times=times, states=states.copy()),
                       0.25)
    assert same.max_weighted == 0.0
    assert same.mean_weighted == 0.0
    zero = sm.l2_error(ref, SnapshotSet(times=times,
                                        states=np.zeros_like(states)), 0.25)
    norms = 0.5 * np.linalg.norm(states, axis=0)
    assert np.abs(zero.per_instant - norms).max() <= 1e-14
    assert abs(zero.max_relative - 1.0) <= 1e-12
    assert abs(zero.mean_relative - norms.mean() / norms.max()) <= 1e-12
    unweighted = np.linalg.norm(states, axis=0)
    assert np.abs(zero.per_instant / np.sqrt(0.25)
                  - unweighted).max() <= 1e-13
    with pytest.raises(ValueError, match="shapes"):
        sm.l2_error(ref, SnapshotSet(times=np.zeros(1),
                                     states=np.zeros((6, 1))), 0.25)
    with pytest.raises(ValueError, match="time"):
        sm.l2_error(ref, SnapshotSet(times=times + 1.0, states=states), 0.25)


def test_relative_errors_against_a_zero_reference():
    """Against an all-zero reference the relative aggregates read 0 for a
    zero error and inf for any other, not a division by zero."""
    times = np.arange(3.0)
    zero = SnapshotSet(times=times, states=np.zeros((4, 3)))
    same = sm.l2_error(zero, SnapshotSet(times=times,
                                         states=np.zeros((4, 3))), 0.5)
    assert same.max_relative == 0.0 and same.mean_relative == 0.0
    states = np.zeros((4, 3))
    states[1, 2] = 1.0
    off = sm.l2_error(zero, SnapshotSet(times=times, states=states), 0.5)
    assert off.max_relative == np.inf and off.mean_relative == np.inf


def test_symplectic_inverse_swaps_canonical_forms():
    for n, k, seed in ((4, 2, 31), (10, 3, 32)):
        basis = random_ortho_symplectic(n, k, rng=seed)
        lhs = symplectic_inverse(basis.matrix) @ CanonicalForm(n).matrix()
        rhs = CanonicalForm(k).matrix() @ basis.matrix.T
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_spectral_abscissa_values():
    assert sm.spectral_abscissa(np.diag([-1.0, 2.0])) == 2.0
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert abs(sm.spectral_abscissa(rotation)) <= 1e-12


@pytest.mark.parametrize("h_omega", [0.5, 1.9, 2.5, 4.0])
def test_step_radius_of_the_undamped_oscillator(h_omega):
    """Verlet on q'' = -omega^2 q: the spectral radius of the step map is 1
    for h omega < 2, and |b| + sqrt(b^2 - 1) with b = 1 - (h omega)^2 / 2
    past it. The plain form's map and the closed form's, whose memory
    integral does not feed back without damping, read the same."""
    omega = 2.0
    bench = build_oscillator(k=omega ** 2, r=0.0)
    b = 1.0 - 0.5 * h_omega ** 2
    want = 1.0 if h_omega < 2.0 else abs(b) + np.sqrt(b * b - 1.0)
    for model, run in ((bench.dissipative_model(), sm.integrate_dissipative),
                       (bench.system, sm.integrate)):
        step_map = run(model, dt=h_omega / omega, n_steps=2).step_map
        assert sm.spectral_radius(step_map) == pytest.approx(
            want, rel=1e-12, abs=0.0)


def _rdh_psd_physical_gap(bench, basis, dt):
    """Per node, max |K_r^{-1} f_r - y_psd| over max |y_psd| of the rdh
    and psd runs of one basis at step ``dt``, on the snapshot grid of
    ``bench``'s config."""
    config = bench.config
    rdh, psd, _ = _reductions(bench, basis)
    grid = dict(dt=dt, t_final=config.t_final,
                snapshot_stride=round(config.snapshot_stride * config.dt / dt))
    closed = sm.integrate(rdh, **grid).physical_snapshots(rdh).states
    plain = sm.integrate_dissipative(psd, **grid).snapshots.states
    return np.abs(closed - plain).max(axis=0) / np.abs(plain).max()


@pytest.mark.parametrize("name, overrides", [
    ("wave", {"t_final": 2.0}),
    ("sine-gordon", {"t_final": 4.0, "velocity": 0.0}),
    ("sine-gordon", {"t_final": 4.0}),
])
def test_rdh_and_psd_are_one_reduced_ode_on_a_cotangent_basis(name,
                                                              overrides):
    """With K = blockdiag(L, I), chi on the momenta only and a basis that
    keeps q and p apart, the physical state w = K_r^{-1} f_r of the closed
    reduced model obeys psd's equation: the generators agree to roundoff,
    and the runs differ by the two Verlet schemes, O(dt^2), also on a
    run that starts moving (the default kink): both start from the
    initial data, the closed one with the empty memory F = 0."""
    config = sm.make_config(name, {"n": 40, **overrides})
    bench = sm.build_benchmark(name, config)
    full = sm.integrate(bench.system, dt=config.dt, t_final=config.t_final,
                        snapshot_stride=config.snapshot_stride)
    basis, _ = sm.cotangent_lift(full.snapshots, 4)
    rdh, psd, _ = _reductions(bench, basis)
    k_r = np.asarray(rdh.K)
    closed = (rdh.J.matrix() @ k_r.T @ k_r
              - np.linalg.solve(k_r, np.asarray(rdh.chi) @ k_r))
    plain = psd.linear_operator()
    assert np.abs(closed - plain).max() <= 1e-12 * np.abs(plain).max()
    coarse = _rdh_psd_physical_gap(bench, basis, config.dt)
    fine = _rdh_psd_physical_gap(bench, basis, 0.5 * config.dt)
    assert coarse.max() / fine.max() == pytest.approx(4.0, abs=0.2)
