"""Time-dispersive dynamics: factorizations, the memory constraint, the
staggered integrator and its diagnostics."""

import copy
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import sympmor as sm
from sympmor import cholesky_factor, dynamics
from sympmor.dynamics import VerletStepper

from conftest import (assert_volterra, build_oscillator, extended_drift,
                      oscillator_exact, passivity_fd, symmetric_sqrt)


def _wave(n=16, **overrides):
    config = sm.make_config("wave", {"n": n, **overrides})
    return sm.build_benchmark("wave", config)


# -- factorizations -----------------------------------------------------------


def test_cholesky_identity_and_diagonal():
    assert np.array_equal(cholesky_factor(np.eye(3)), np.eye(3))
    assert np.array_equal(cholesky_factor(np.diag([4.0, 9.0])),
                          np.diag([2.0, 3.0]))


def test_cholesky_wave_stiffness(wave_n100):
    bench, _ = wave_n100
    l = cholesky_factor(bench.stiffness, name="stiffness").toarray()
    m = bench.stiffness.toarray()
    assert np.abs(np.tril(l, -1)).max() == 0.0
    assert np.abs(l.T @ l - m).max() <= 1e-10 * np.abs(m).max()


def test_cholesky_reports_failing_pivot():
    for form in (np.asarray, scipy.sparse.csr_array):   # dense and band
        with pytest.raises(np.linalg.LinAlgError, match="pivot 1"):
            cholesky_factor(form(np.diag([1.0, -1.0])))
        with pytest.raises(np.linalg.LinAlgError, match="pivot 0"):
            cholesky_factor(form(np.diag([-1.0, 1.0])))
        with pytest.raises(np.linalg.LinAlgError, match="pivot 1"):
            cholesky_factor(form(np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                                           [0.0, 0.0, 1.0]])))
        # the last pivot fails; its column leaves the leading block's band
        with pytest.raises(np.linalg.LinAlgError, match="pivot 2"):
            cholesky_factor(form(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                                           [1.0, 0.0, 1.0]])))


def test_sparse_cholesky_factors_of_band_and_periodic_matrices():
    """The band factor of a sparse matrix, and the bordered factor of one
    whose last row and column leave the band, match the dense factor."""
    n = 30
    band = (np.diag(np.full(n, 6.0)) - np.eye(n, k=1) - np.eye(n, k=-1)
            + 0.5 * (np.eye(n, k=2) + np.eye(n, k=-2)))
    periodic = band.copy()
    periodic[0, -1] = periodic[-1, 0] = -1.0
    for m in (band, periodic):
        factor = cholesky_factor(scipy.sparse.csr_array(m))
        assert isinstance(factor, dynamics._Csr)
        assert np.abs(factor.toarray() - cholesky_factor(m)).max() <= 1e-14
        assert abs(factor.T @ factor - m).max() <= 1e-14 * 6.0


def test_cholesky_input_validation():
    with pytest.raises(ValueError, match="symmetric"):
        cholesky_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        cholesky_factor(np.zeros((2, 3)))
    # inf - inf is NaN, which a symmetry check alone lets through
    for form in (np.asarray, scipy.sparse.csr_array):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError,
                               match="stiffness has a non-finite entry"):
                cholesky_factor(form(np.diag([1.0, bad])), name="stiffness")


def test_symmetric_sqrt_paths():
    root = symmetric_sqrt(np.diag([4.0, 0.0, -1e-14]))
    assert np.array_equal(root, np.diag([2.0, 0.0, 0.0]))
    rng = np.random.default_rng(0)
    b = rng.standard_normal((5, 5))
    chi = b.T @ b
    root = symmetric_sqrt(chi)
    assert np.abs(root - root.T).max() == 0.0
    assert np.abs(root @ root - chi).max() <= 1e-10 * np.abs(chi).max()
    with pytest.raises(ValueError, match="negative"):
        symmetric_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="negative"):
        symmetric_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))


# -- memory constraint --------------------------------------------------------


def test_solve_auxiliary_without_dissipation():
    bench = build_oscillator(chi_scale=0.0)
    z = np.array([0.3, -1.2])
    system = sm.TddSystem(bench.system.K, bench.system.chi, z)
    f0 = VerletStepper(system, 0.1).f
    assert np.array_equal(f0, system.K @ z)


@pytest.mark.parametrize("p0", [0.0, 1.0])
def test_solve_auxiliary_matches_trapezoid_history(p0):
    """Every co-state solves its node's constraint with the trapezoid
    tail of the raw history, node 0's included: there F_0 = 0, so its tail
    is -w f_0, which a moving start (p0 = 1, chi on the momentum) tells
    apart from the empty-history solve."""
    bench = build_oscillator(k=1.0, r=1.0, p0=p0)
    system = bench.system
    dt = 1e-3
    stepper = VerletStepper(system, dt)
    z = system.z0
    states = [z.copy()]
    history = [stepper.f.copy()]
    for _ in range(50):
        z = stepper.step(z)
        states.append(z.copy())
        history.append(stepper.f.copy())
    # reconstruct every co-state from the raw history with an explicit
    # trapezoid tail and a dense solve
    lhs = np.eye(2) + 0.5 * dt * system.chi
    for node, z in enumerate(states):
        tail = -0.5 * dt * history[0]
        if node:
            tail = dt * (0.5 * history[0] + sum(history[1:node]))
        f_ref = np.linalg.solve(lhs, system.K @ z - system.chi @ tail)
        assert np.abs(f_ref - history[node]).max() <= 1e-12


# -- staggered integrator -----------------------------------------------------


def test_verlet_matches_classical_scheme_without_memory():
    bench = _wave(n=16, chi_scale=0.0)
    system = bench.system
    dt = 0.01
    n = system.n
    m = system.K.T @ system.K
    m = 0.5 * (m + m.T)
    assert np.abs(m[:n, n:]).max() == 0.0
    m_qq, m_pp = m[:n, :n], m[n:, n:]
    z = system.z0.copy()
    classic = [z.copy()]
    w = 0.5 * dt
    for _ in range(100):
        q, p = z[:n], z[n:]
        p_half = p - w * (m_qq @ q)
        q_new = q + dt * (m_pp @ p_half)
        p_new = p_half - w * (m_qq @ q_new)
        z = np.concatenate([q_new, p_new])
        classic.append(z.copy())
    report = sm.integrate(system, dt=dt, n_steps=100)
    assert np.abs(report.snapshots.states - np.array(classic).T).max() <= 1e-13


def test_verlet_matches_classical_implicit_scheme_without_memory():
    """A ladder without memory whose capacitance differs from its
    inductance has qp and pq stage blocks well above roundoff, and an input,
    so both implicit stages run: check them against the scheme
    dq/dt = m_pq q + m_pp p + u_q, dp/dt = -(m_qq q + m_qp p) + u_p with
    each implicit stage solved directly."""
    config = sm.make_config("ladder", {"chi_scale": 0.0, "capacitance": 0.5})
    bench = sm.build_benchmark("ladder", config)
    system = bench.system
    dt = bench.config.dt
    n = system.n
    m = system.K.T @ system.K
    m = 0.5 * (m + m.T)
    m_qq, m_qp, m_pq, m_pp = m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]
    u_q, u_p = system.input_vector[:n], system.input_vector[n:]
    cross = min(np.abs(m_qp).max(), np.abs(m_pq).max())
    assert cross > 0.01 * np.abs(m).max()
    assert np.abs(system.input_vector).max() > 0.0
    eye = np.eye(n)
    w = 0.5 * dt
    z = system.z0.copy()
    classic = [z.copy()]
    for _ in range(100):
        q, p = z[:n], z[n:]
        p_half = np.linalg.solve(eye + w * m_qp,
                                 p - w * (m_qq @ q) + w * u_p)
        q_new = np.linalg.solve(eye - w * m_pq,
                                q + w * (m_pq @ q) + dt * (m_pp @ p_half)
                                + dt * u_q)
        p_new = p_half - w * (m_qq @ q_new + m_qp @ p_half) + w * u_p
        z = np.concatenate([q_new, p_new])
        classic.append(z.copy())
    classic = np.array(classic).T
    report = sm.integrate(system, dt=dt, n_steps=100)
    assert (np.abs(report.snapshots.states - classic).max()
            <= 1e-12 * np.abs(classic).max())


def test_verlet_energy_error_bounded_conservative():
    bench = build_oscillator(r=0.0)
    h0 = bench.system.hamiltonian(bench.system.z0)
    dev = {}
    for t_final in (20.0, 40.0):
        rep = sm.integrate(bench.system, dt=1e-2, t_final=t_final)
        dev[t_final] = np.abs(rep.hamiltonian - h0).max()
    assert dev[20.0] <= 1e-4
    # time symmetry: doubling the horizon must not grow the peak error
    assert dev[40.0] <= 1.01 * dev[20.0]


def test_verlet_second_order_damped_oscillator():
    bench = build_oscillator(k=1.0, r=0.5)
    dt = 1e-3
    rep = sm.integrate(bench.system, dt=dt, t_final=10.0)
    exact = oscillator_exact(1.0, 0.5, 1.0, rep.times)
    assert np.abs(rep.snapshots.states[0] - exact).max() <= dt ** 2


def test_integrate_zero_horizon():
    bench = build_oscillator()
    rep = sm.integrate(bench.system, dt=0.1, t_final=0.0)
    assert rep.n_steps == 0
    assert rep.times.shape == (1,)
    assert rep.snapshots.count == 1
    h0 = bench.system.hamiltonian(bench.system.z0)
    assert abs(rep.hamiltonian[0] - h0) <= 1e-15


def test_integrate_argument_validation():
    bench = build_oscillator()
    with pytest.raises(ValueError, match="exactly one"):
        sm.integrate(bench.system, dt=0.1)
    with pytest.raises(ValueError, match="exactly one"):
        sm.integrate(bench.system, dt=0.1, n_steps=5, t_final=1.0)
    with pytest.raises(ValueError, match="stride"):
        sm.integrate(bench.system, dt=0.1, n_steps=5, snapshot_stride=0)
    with pytest.raises(ValueError):
        VerletStepper(bench.system, dt=0.0)
    # M = K^T K = [[1, 2], [2, 5]]: at dt = 1 the drift's diagonal shift
    # 1 - (dt / 2) m_pq is exactly zero
    sheared = sm.TddSystem(K=np.array([[1.0, 2.0], [0.0, 1.0]]),
                           chi=np.zeros((2, 2)), z0=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match=r"the drift of the Verlet step is "
                                         r"singular at dt = 1\.0$"):
        sm.integrate(sheared, dt=1.0, n_steps=1)


def test_integrate_conservative_wave_full_size(run_registry):
    bench = _wave(n=500, chi_scale=0.0)
    rep = sm.integrate(bench.system, dt=bench.config.dt, t_final=1.0)
    run_registry.add("wave-n500-conservative", rep)
    h0 = rep.hamiltonian[0]
    assert np.abs(rep.hamiltonian - h0).max() / h0 <= 1e-4
    assert np.abs(rep.string_energy).max() == 0.0
    assert np.abs(rep.passivity_residual).max() == 0.0
    assert np.abs(rep.extended_energy - rep.hamiltonian).max() <= 1e-12 * h0


def test_integrate_small_wave_diagnostics(wave_n100):
    _, rep = wave_n100
    assert extended_drift(rep).max() <= 1e-3
    # string energy collects what the visible variables lose
    assert np.all(np.diff(rep.string_energy) >= -1e-15)
    assert rep.string_energy[-1] > 0.0
    assert rep.passivity_residual.max() <= 0.0
    assert rep.hamiltonian[-1] < rep.hamiltonian[0]
    scale = rep.hamiltonian[0]
    assert abs(rep.extended_energy[0] - rep.hamiltonian[0]) <= 1e-14 * scale
    assert_volterra(rep, "wave-n100")


# -- extended energy and passivity ---------------------------------------------


@pytest.mark.parametrize("name, overrides", [
    ("sine-gordon", {"n": 20}),
    ("ladder", {"cells": 10}),
])
def test_hamiltonian_through_a_lift_is_the_energy_of_the_lifted_states(
        name, overrides):
    """hamiltonian(Y, A) equals hamiltonian(A Y) for any basis matrix A,
    formed without the lift: with a sparse K, a potential and a boundary
    vector (sine-gordon), and with a dense K (the ladder)."""
    system = sm.build_benchmark(name, sm.make_config(name, overrides)).system
    rng = np.random.default_rng(0)
    lift = rng.standard_normal((system.dim, 6))
    y = rng.standard_normal((6, 5))
    h = system.hamiltonian(lift @ y)
    np.testing.assert_allclose(system.hamiltonian(y, lift), h,
                               rtol=0.0, atol=1e-12 * np.abs(h).max())
    assert system.hamiltonian(y[:, 0], lift) == pytest.approx(
        h[0], rel=1e-12)


def test_extended_hamiltonian_at_start():
    bench = build_oscillator()
    rep = sm.integrate(bench.system, dt=1e-3, n_steps=0)
    h0 = bench.system.hamiltonian(bench.system.z0)
    assert abs(rep.extended_energy[0] - h0) <= 1e-14


def test_closed_run_starts_from_the_initial_data():
    """Node 0 of a closed run that starts moving holds the empty memory
    F = 0: the co-state is K z0, the physical state K^{-1} f is z0, and
    H_ext starts at H. (An empty-history co-state (I + w chi)^{-1} K z0
    would put w f0 in the memory, 1e-3 off on this kink.)"""
    bench = _sine_gordon_n40()
    system, config = bench.system, bench.config
    assert system.z0[system.n:].any()
    rep = sm.integrate(system, dt=config.dt, t_final=config.t_final,
                       snapshot_stride=config.snapshot_stride)
    kz0 = system.K @ system.z0
    assert np.abs(rep.costates[:, 0] - kz0).max() <= 1e-15 * np.abs(kz0).max()
    physical = rep.physical_snapshots(system).states[:, 0]
    assert (np.abs(physical - system.z0).max()
            <= 1e-14 * np.abs(system.z0).max())
    h0 = rep.hamiltonian[0]
    assert abs(rep.extended_energy[0] - h0) <= 1e-14 * abs(h0)


def test_extended_hamiltonian_without_memory_tracks_h():
    bench = _wave(n=16, chi_scale=0.0)
    system = bench.system
    rep = sm.integrate(system, dt=0.01, n_steps=20)
    h = system.hamiltonian(rep.snapshots.states)
    assert np.all(np.abs(rep.extended_energy - h)
                  <= 1e-12 * np.maximum(1.0, np.abs(h)))


def test_extended_hamiltonian_conserved_damped_oscillator(run_registry):
    bench = build_oscillator(k=1.0, r=0.5)
    system = bench.system
    dt = 1e-3
    rep = sm.integrate(system, dt=dt, t_final=5.0)
    run_registry.add("oscillator-damped", rep)
    assert extended_drift(rep).max() <= 1e-3
    # the last node from a manual stepper loop: 0.5 ||f||^2 plus the
    # trapezoid string energy (no potential, no input)
    stepper = VerletStepper(system, dt)
    z = system.z0
    e_string = 0.0
    diss = float(stepper.f @ system.chi @ stepper.f)
    for _ in range(rep.n_steps):
        z = stepper.step(z)
        new = float(stepper.f @ system.chi @ stepper.f)
        e_string += 0.5 * dt * (diss + new)
        diss = new
    h_ext = 0.5 * float(stepper.f @ stepper.f) + e_string
    assert abs(h_ext - rep.extended_energy[-1]) <= 1e-12


def test_extended_energy_balances_an_input_on_a_potential():
    """An input u on a model with a potential and a boundary vector also
    feeds the non-quadratic energy, at the rate ((g(q), 0) - z_bd)^T u of
    ``supply_rate``: with it counted, H_ext of a sine-Gordon kink driven by
    u, which quadruples H, keeps the Verlet scheme's O(dt^2) drift (1.8e-4
    at dt, 4.4e-5 at dt/2); without it H_ext drifts by 4.5 of H(0)."""
    config = sm.make_config("sine-gordon", {"n": 20, "t_final": 4.0})
    s = sm.build_benchmark("sine-gordon", config).system
    system = sm.TddSystem(s.K, s.chi, s.z0, nonlinear_grad=s.nonlinear_grad,
                          potential=s.potential,
                          input_vector=np.full(s.dim, 0.5),
                          boundary_vector=s.boundary_vector, dx=s.dx)
    coarse, fine = (
        extended_drift(sm.integrate(system, dt=dt, t_final=config.t_final))
        for dt in (config.dt, 0.5 * config.dt))
    assert coarse.max() <= 1e-3
    assert coarse.max() / fine.max() == pytest.approx(4.0, abs=0.2)


def test_passivity_residual_definition(ladder50):
    """The passivity residual is -f^T chi f at every node; on the driven
    ladder the supply rate is nonzero, so it is not dH/dt itself."""
    bench, rep = ladder50
    system = bench.system
    nodes = np.rint(rep.snapshots.times / rep.dt).astype(int)
    f = rep.costates
    diss = np.einsum("ij,ik,kj->j", f, system.chi, f)
    assert diss.max() > 0.0
    assert np.abs(rep.passivity_residual[nodes] + diss).max() \
        <= 1e-13 * diss.max()
    supply = system.supply_rate(rep.snapshots.states, f)
    assert np.abs(supply).max() > 0.0


def test_passivity_ladder_every_instant(ladder50):
    bench, rep = ladder50
    assert rep.passivity_residual.max() <= 1e-8
    assert passivity_fd(bench.system, rep).max() <= 1e-8
    assert_volterra(rep, "ladder-50")


def test_nonfinite_state_detected():
    """Wave n = 16 at dt = 1.0 overflows its energy at step 82, long before
    its state does; the run raises there and names the energy."""
    bench = _wave(n=16)
    with pytest.raises(sm.NonFiniteError,
                       match="energy or residual became non-finite at "
                             "step 82$") as exc_info:
        sm.integrate(bench.system, dt=1.0, t_final=100.0)
    assert exc_info.value.step == 82
    rep = sm.integrate(bench.system, dt=1.0, n_steps=81)
    assert np.isfinite(rep.hamiltonian).all()
    assert np.isfinite(rep.snapshots.states).all()


def _series_by_hand(system, dt, n_steps):
    """States, co-states and the six diagnostics of a closed run from a
    manual stepper loop, node by node, with the per-step formulas: H, the
    running trapezoid string energy and input work, H_ext, -f^T chi f, and
    the Volterra residual and |K z| against the memory F."""
    stepper = VerletStepper(system, dt)
    w = 0.5 * dt
    u = system.input_vector
    z = system.z0
    states, costates, rows = [], [], []
    e_string = work = 0.0
    for i in range(n_steps + 1):
        if i:
            z = stepper.step(z)
        f = stepper.f
        kz = system.K @ z
        nonquad = system.nonquadratic_energy(z)
        diss = float(f @ system.chi @ f)
        supply = 0.0
        if u is not None:
            supply = float((system.K @ u) @ f)
            extra = system.grad_extra(z)
            if extra is not None:
                supply += float(extra @ u)
        if i:
            e_string += w * (diss_prev + diss)
            work -= w * (supply_prev + supply)
        diss_prev, supply_prev = diss, supply
        rows.append((0.5 * float(kz @ kz) + nonquad, e_string,
                     0.5 * float(f @ f) + nonquad + e_string + work, -diss,
                     np.abs(kz - f - system.chi @ stepper.integral).max(),
                     np.abs(kz).max()))
        states.append(z)
        costates.append(f)
    return np.array(states).T, np.array(costates).T, np.array(rows).T


def _with_step_counts(cases):
    """Each (id, args) case with two and a half recording blocks of steps,
    under its own id, and with _BLOCK - 1, _BLOCK and _BLOCK + 1 steps,
    whose last node fills the first block, opens the second, and is the
    second node of the second."""
    block = dynamics._BLOCK
    return [pytest.param(*args, n, id=case if n == 5 * block // 2
                         else f"{case}-{n}")
            for case, args in cases
            for n in (5 * block // 2, block - 1, block, block + 1)]


@pytest.mark.parametrize("name, overrides, n_steps", _with_step_counts([
    # input: the work coordinate moves
    ("ladder-overrides0", ("ladder", {"cells": 10})),
    # potential and boundary vector
    ("sine-gordon-overrides1", ("sine-gordon", {"n": 30})),
]))
def test_series_across_block_boundaries(name, overrides, n_steps):
    """The series a run derives block by block after the loop match the
    per-node values of a manual loop, over two and a half recording blocks
    and around the end of the first, with a snapshot stride that does not
    divide the block length."""
    config = sm.make_config(name, overrides)
    system = sm.build_benchmark(name, config).system
    stride = 7
    assert dynamics._BLOCK % stride
    rep = sm.integrate(system, dt=config.dt, n_steps=n_steps,
                       snapshot_stride=stride)
    states, costates, rows = _series_by_hand(system, config.dt, n_steps)
    # both models advance by the step map, so to roundoff
    assert _close(rep.snapshots.states, states[:, ::stride])
    assert _close(rep.costates, costates[:, ::stride])
    ham, e_string, h_ext, passivity, volterra, kz = rows
    if name == "ladder":
        assert np.abs(h_ext - ham - e_string).max() > 1e-6   # e != 0
    tol = 1e-13 * np.abs(ham).max()
    for got, want in ((rep.hamiltonian, ham), (rep.string_energy, e_string),
                      (rep.extended_energy, h_ext),
                      (rep.passivity_residual, passivity),
                      (rep.volterra_max, volterra.max()),
                      (rep.kz_max, kz.max())):
        assert np.abs(got - want).max() <= tol


class _MapCount:
    """Counts the step maps :func:`dynamics._step_map` builds and keeps the
    shape of each map's first matrix, Phi or B."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.shapes = []
        build = dynamics._step_map

        def counted(*args):
            self.calls += 1
            built = build(*args)
            self.shapes.append(built[0].shape)
            return built
        monkeypatch.setattr(dynamics, "_step_map", counted)


def _greedy_wave_rdh():
    config = sm.make_config("wave", {"n": 30, "t_final": 1.0})
    bench = sm.build_benchmark("wave", config)
    full = sm.integrate(bench.system, dt=config.dt, t_final=config.t_final)
    basis = sm.greedy_basis(full.snapshots, 10).basis
    return sm.rdh_reduce(bench.system, basis).system, config.dt


def _ladder_with_input():
    config = sm.make_config("ladder", {"cells": 10})
    return sm.build_benchmark("ladder", config).system, config.dt


def _close(got, want):
    return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("make, n_steps", _with_step_counts(
    [(make.__name__, (make,)) for make in (_ladder_with_input,
                                           _greedy_wave_rdh)]))
def test_closed_map_path_matches_stepper_loop(make, n_steps, monkeypatch):
    """A linear closed model advances by its step map; over two and a half
    recording blocks, and around the end of the first, with stride 7 its
    states, co-states and velocities match a manual stepper loop within
    1e-12 of their max, and its energy series within 1e-12 of max |H|."""
    system, dt = make()
    assert system.nonlinear_grad is None
    maps = _MapCount(monkeypatch)
    rep = sm.integrate(system, dt=dt, n_steps=n_steps, snapshot_stride=7)
    assert maps.calls == 1
    _assert_closed_run_matches_loop(rep, system, dt, n_steps)


def _assert_closed_run_matches_loop(rep, system, dt, n_steps):
    """States, co-states and velocities of a closed run with stride 7
    within 1e-12 of their max of a manual stepper loop's, its energy series
    within 1e-12 of max |H|, and its Volterra residual within bound. The
    run records no derivatives."""
    states, costates, rows = _series_by_hand(system, dt, n_steps)
    states, costates = states[:, ::7], costates[:, ::7]
    assert _close(rep.snapshots.states, states)
    assert _close(rep.costates, costates)
    assert rep.derivatives is None
    assert _close(system.velocity(rep.costates),
                  system.state_derivative(states, costates)[: system.n])
    ham, e_string, h_ext, passivity, _, kz = rows
    # the energy series against the run's energy scale: H_ext balances
    # terms of the size of H and ends near zero on the driven ladder
    tol = 1e-12 * np.abs(ham).max()
    for got, want in ((rep.hamiltonian, ham), (rep.string_energy, e_string),
                      (rep.extended_energy, h_ext),
                      (rep.passivity_residual, passivity)):
        assert np.abs(got - want).max() <= tol
    assert rep.kz_max == pytest.approx(kz.max(), rel=1e-12)
    assert_volterra(rep, system.name)


def test_dissipative_map_path_matches_stepper_loop(ladder50, monkeypatch):
    """The psd model of the ladder advances by its step map and matches a
    manual DissipativeVerletStepper loop within 1e-12 of the max."""
    bench, full = ladder50
    basis, _ = sm.cotangent_lift(full.snapshots, 10)
    model = sm.psd_baseline(bench.dissipative_model(), basis).model
    assert model.nonlinear_grad is None and model.input_vector is not None
    dt = bench.config.dt
    n_steps = 5 * dynamics._BLOCK // 2
    maps = _MapCount(monkeypatch)
    rep = sm.integrate_dissipative(model, dt=dt, n_steps=n_steps,
                                   snapshot_stride=7)
    assert maps.calls == 1
    _assert_plain_run_matches_loop(rep, model, dt, n_steps)


def _plain_loop(model, dt, n_steps):
    """States of a manual DissipativeVerletStepper loop, one per node."""
    stepper = dynamics.DissipativeVerletStepper(model, dt)
    states = [model.z0]
    for _ in range(n_steps):
        states.append(stepper.step(states[-1]))
    return np.array(states).T


def _assert_plain_run_matches_loop(rep, model, dt, n_steps):
    """States and velocities of a plain run with stride 7, and its H,
    within 1e-12 of their max of a manual stepper loop's. The run records
    no derivatives."""
    states = _plain_loop(model, dt, n_steps)
    assert _close(rep.snapshots.states, states[:, ::7])
    assert rep.derivatives is None
    assert _close(model.velocity(rep.snapshots.states), np.array(
        [model.state_derivative(c)[: model.n] for c in states[:, ::7].T]).T)
    assert _close(rep.hamiltonian, model.hamiltonian(states))


@pytest.mark.parametrize("which", ["full", "dissipative", "rdh", "psd"],
                         ids=["full", "dissipative", "rdh-cotangent",
                              "psd-cotangent"])
def test_nonlinear_map_path_matches_stepper_loop(which, monkeypatch):
    """A sine-Gordon n = 30 Verlet run, full or reduced, advances by its
    semi-linear step map: over two and a half recording blocks with stride
    7 it matches a manual stepper loop within 1e-12 of the max, since the
    map takes the gradient at the stage-3 argument the stepper does."""
    dt, n_steps = 0.02, 5 * dynamics._BLOCK // 2
    model, run = _sine_gordon_run(which, dt, n_steps, n=30)
    maps = _MapCount(monkeypatch)
    rep = run(model, dt=dt, n_steps=n_steps, snapshot_stride=7)
    assert maps.calls == 1
    if run is sm.integrate:
        _assert_closed_run_matches_loop(rep, model, dt, n_steps)
    else:
        _assert_plain_run_matches_loop(rep, model, dt, n_steps)


def _unstable(bench, closed, dt):
    """A model of ``bench`` past the Verlet limit, its integrator and the
    first step at which a manual stepper loop's state or per-node
    diagnostics (:func:`dynamics._closed_columns` closed, ``hamiltonian``
    plain) are non-finite, together with the states of that loop up to
    the step before."""
    if closed:
        model, run = bench.system, sm.integrate
        stepper = VerletStepper(model, dt)

        def diagnostics(z):
            states, memory = z[:, None], stepper.integral[:, None]
            return dynamics._closed_columns(
                model, states, stepper.f[:, None], model.K @ states,
                model.chi_apply(memory))
    else:
        model, run = bench.dissipative_model(), sm.integrate_dissipative
        stepper = dynamics.DissipativeVerletStepper(model, dt)
        diagnostics = model.hamiltonian
    states = [model.z0]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, 601):
            z = stepper.step(states[-1])
            if not (np.isfinite(z).all()
                    and np.isfinite(diagnostics(z)).all()):
                break
            states.append(z)
    assert 1 < step < 600      # past the first step, within the run
    return model, run, step, np.array(states).T


def _unstable_wave(closed, dt):
    return _unstable(_wave(n=16), closed, dt)


def _unstable_sine_gordon(closed, dt):
    return _unstable(sm.build_benchmark(
        "sine-gordon", sm.make_config("sine-gordon", {"n": 16})), closed, dt)


@pytest.mark.parametrize("dt", [0.25, 0.5])
@pytest.mark.parametrize("closed", [True, False])
def test_unstable_linear_model_fails_at_the_stepper_loop_step(closed, dt,
                                                              monkeypatch):
    """Past the Verlet limit a run by the step map raises NonFiniteError
    at the step where the manual stepper loop's state or diagnostics first
    leave floating point range, and so does the stepped run."""
    model, run, step, _ = _unstable_wave(closed, dt)
    _assert_fails_mapped_and_stepped(model, run, dt, step, monkeypatch)


def _assert_fails_mapped_and_stepped(model, run, dt, step, monkeypatch):
    """A 600-step run of ``model`` fails at ``step``, by its step map and
    with the map turned off."""
    maps = _MapCount(monkeypatch)
    with pytest.raises(sm.NonFiniteError) as exc_info:
        run(model, dt=dt, n_steps=600)
    assert maps.calls == 1
    assert exc_info.value.step == step
    assert exc_info.value.step_map is not None
    monkeypatch.setattr(dynamics, "_MAP_DIM", 0)
    with pytest.raises(sm.NonFiniteError) as exc_info:
        run(model, dt=dt, n_steps=600)
    assert maps.calls == 1
    assert exc_info.value.step == step
    assert exc_info.value.step_map is None


@pytest.mark.parametrize("dt", [5.0, 6.0])
@pytest.mark.parametrize("closed", [True, False])
def test_unstable_nonlinear_model_fails_at_the_stepper_loop_step(
        closed, dt, monkeypatch):
    """A sine-Gordon model past the Verlet limit raises NonFiniteError at
    the manual stepper loop's step, by its semi-linear map and stepped."""
    model, run, step, _ = _unstable_sine_gordon(closed, dt)
    _assert_fails_mapped_and_stepped(model, run, dt, step, monkeypatch)


def _assert_failure_step(unstable, closed, dt, rtol=1e-12):
    """A run that ends one to three steps before the manual stepper loop
    leaves floating point range completes with that loop's states, within
    ``rtol`` of their max, and one that ends at or just past that step
    fails there. The step lies past the first block, in a block the map
    writes from its first node."""
    model, run, step, states = unstable(closed, dt)
    assert dynamics._BLOCK < step
    for n_steps in (step - 3, step - 1):
        want = states[:, : n_steps + 1]
        rep = run(model, dt=dt, n_steps=n_steps)
        assert np.abs(rep.snapshots.states - want).max() \
            <= rtol * np.abs(want).max()
    for n_steps in (step, step + 2):
        with pytest.raises(sm.NonFiniteError) as exc_info:
            run(model, dt=dt, n_steps=n_steps)
        assert exc_info.value.step == step


@pytest.mark.parametrize("closed", [True, False])
def test_unstable_run_ending_near_its_failure_step(closed):
    """A linear run ending near its failure step: see
    :func:`_assert_failure_step`."""
    _assert_failure_step(_unstable_wave, closed, 0.25)


@pytest.mark.parametrize("closed", [True, False])
def test_unstable_nonlinear_run_ending_near_its_failure_step(closed):
    """The same on sine-Gordon, by its semi-linear map. Within 1e-11:
    without the sine the gap between map and loop stays at 4e-14 of the
    max, but over the first twenty steps, as |q| grows from 6 to 1e14, the
    sine amplifies it to 1.7e-12 closed and 7e-13 dissipative."""
    _assert_failure_step(_unstable_sine_gordon, closed, 5.0, rtol=1e-11)


def test_map_path_selection(monkeypatch):
    """The step map is taken for a Verlet model whose map has at most
    _MAP_DIM columns, whatever the run's length past one step: the map
    state x for a linear model, x and the n gradient entries for a
    nonlinear one. A closed x carries F on the live columns of chi alone,
    so 4n columns for a closed sine-Gordon model of n nodes (chi damps the
    n momenta), dim + 50 for the ladder (50 damped coordinates) and 3n for
    a plain sine-Gordon model. A larger map keeps the stepper."""
    ladder = sm.build_benchmark("ladder").system         # dim + 50 = 150
    assert sm.integrate(ladder, dt=0.01, n_steps=2).step_map.shape \
        == (150, 150)

    def sine_gordon(n):
        return sm.build_benchmark(
            "sine-gordon", sm.make_config("sine-gordon", {"n": n}))
    small = sine_gordon(30).system                        # 4n = 120
    edge = sine_gordon(100).system                        # 4n = 400
    large = sine_gordon(101).system                       # 4n = 404
    assert VerletStepper(edge, 0.01)._live.size == edge.n
    assert 4 * edge.n <= dynamics._MAP_DIM < 4 * large.n
    plain = sine_gordon(133).dissipative_model()          # 3n = 399
    plain_large = sine_gordon(134).dissipative_model()    # 3n = 402
    assert 3 * plain.n <= dynamics._MAP_DIM < 3 * plain_large.n
    wave = _wave(n=150).system                            # 3n = 450
    assert 3 * wave.n > dynamics._MAP_DIM
    for model, n_steps, mapped in ((ladder, 2, True),
                                   (ladder, 1, False),
                                   (small, 400, True),
                                   (edge, 400, True),
                                   (large, 400, False),
                                   (plain, 400, True),
                                   (plain_large, 400, False),
                                   (wave, 601, False)):
        maps = _MapCount(monkeypatch)
        run = (sm.integrate if isinstance(model, sm.TddSystem)
               else sm.integrate_dissipative)
        run(model, dt=0.001, n_steps=n_steps)
        assert maps.calls == int(mapped), (model.name, model.n, n_steps)


def test_state_derivative_of_a_block_is_per_column():
    """The input vector adds to every column of a block, square or not."""
    bench = sm.build_benchmark("ladder", sm.make_config("ladder",
                                                        {"cells": 4}))
    system, model = bench.system, bench.dissipative_model()
    rng = np.random.default_rng(7)
    for m in (3, system.dim):
        z = rng.standard_normal((system.dim, m))
        f = rng.standard_normal((system.dim, m))
        want = np.array([system.state_derivative(z[:, j], f[:, j])
                         for j in range(m)]).T
        assert np.allclose(system.state_derivative(z, f), want,
                           rtol=1e-14, atol=1e-14)
        want = np.array([model.state_derivative(z[:, j])
                         for j in range(m)]).T
        assert np.allclose(model.state_derivative(z), want,
                           rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("name, overrides", [
    ("wave", {"n": 20}), ("ladder", {"cells": 6}),
    ("sine-gordon", {"n": 20})])
def test_velocity_is_the_q_rows_of_the_state_derivative(name, overrides):
    """``velocity`` equals the q rows of ``state_derivative`` within 1e-13
    of their max, of a vector and of a block, on the closed and the plain
    form of the wave (diagonal chi, CSR operators), the ladder (dense K, an
    input vector) and sine-Gordon (a boundary vector), and on their rdh and
    psd reductions onto a cotangent basis. No Verlet run of them records
    derivatives."""
    config = sm.make_config(name, overrides)
    bench = sm.build_benchmark(name, config)
    full = sm.integrate(bench.system, dt=config.dt, n_steps=40)
    basis, _ = sm.cotangent_lift(full.snapshots, 3)
    model = bench.dissipative_model()
    rng = np.random.default_rng(11)
    for system, run in (
            (bench.system, sm.integrate),
            (sm.rdh_reduce(bench.system, basis).system, sm.integrate),
            (model, sm.integrate_dissipative),
            (sm.psd_baseline(model, basis).model, sm.integrate_dissipative)):
        closed = run is sm.integrate
        z, f = rng.standard_normal((2, system.dim, 5))
        for cols in (0, slice(None)):
            if closed:
                got = system.velocity(f[:, cols])
                want = system.state_derivative(z[:, cols], f[:, cols])
            else:
                got = system.velocity(z[:, cols])
                want = system.state_derivative(z[:, cols])
            want = want[: system.n]
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert run(system, dt=config.dt, n_steps=3).derivatives is None


def test_plain_series_across_block_boundaries():
    """A psd run's H is the reduced model's energy of each recorded state,
    across block boundaries; its extended energy is H and its string
    energy and passivity residual are zero."""
    config = sm.make_config("sine-gordon", {"n": 30, "t_final": 4.0})
    bench = sm.build_benchmark("sine-gordon", config)
    full = sm.integrate(bench.system, dt=config.dt, t_final=config.t_final)
    basis, _ = sm.cotangent_lift(full.snapshots, 10)
    model = sm.psd_baseline(bench.dissipative_model(), basis).model
    rep = sm.integrate_dissipative(model, dt=config.dt,
                                   n_steps=5 * dynamics._BLOCK // 2)
    states = rep.snapshots.states
    want = np.array([model.hamiltonian(states[:, i])
                     for i in range(states.shape[1])])
    assert np.abs(rep.hamiltonian - want).max() \
        <= 1e-13 * np.abs(want).max()
    assert np.array_equal(rep.extended_energy, rep.hamiltonian)
    assert not rep.string_energy.any() and not rep.passivity_residual.any()
    with pytest.raises(ValueError, match="co-states"):
        rep.physical_snapshots(bench.system)


def test_physical_snapshots_solve_the_costates(ladder50):
    bench, rep = ladder50
    physical = rep.physical_snapshots(bench.system)
    assert np.array_equal(physical.times, rep.snapshots.times)
    assert np.array_equal(physical.states,
                          np.linalg.solve(bench.system.K, rep.costates))


# -- reference integrators ------------------------------------------------------


def test_dissipative_verlet_second_order_dense_drift():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 4))
    stiffness = b.T @ b + 0.5 * np.eye(4)
    c = rng.standard_normal((4, 4))
    model = sm.DissipativeModel(stiffness, drift=0.1 * (c.T @ c),
                                z0=rng.standard_normal(4))
    t_final = 2.0
    exact = scipy.linalg.expm(t_final * model.linear_operator()) @ model.z0
    errors = []
    for dt in (0.04, 0.02, 0.01):
        n_steps = int(round(t_final / dt))
        rep = sm.integrate_dissipative(model, dt=dt, n_steps=n_steps,
                                       snapshot_stride=n_steps)
        errors.append(np.abs(rep.snapshots.states[:, -1] - exact).max())
    assert 3.5 <= errors[0] / errors[1] <= 4.5
    assert 3.5 <= errors[1] / errors[2] <= 4.5


def test_dissipative_verlet_second_order_wave_drift():
    model = _wave(n=16).dissipative_model()
    t_final = 2.0
    exact = (scipy.linalg.expm(t_final * model.linear_operator().toarray())
             @ model.z0)
    errors = []
    for dt in (0.02, 0.01, 0.005):
        n_steps = int(round(t_final / dt))
        rep = sm.integrate_dissipative(model, dt=dt, n_steps=n_steps,
                                       snapshot_stride=n_steps)
        errors.append(np.abs(rep.snapshots.states[:, -1] - exact).max())
    assert 3.5 <= errors[0] / errors[1] <= 4.5
    assert 3.5 <= errors[1] / errors[2] <= 4.5


@pytest.mark.parametrize("name, overrides", [
    ("ladder", {"cells": 50, "t_final": 5.0}),        # input, implicit stages
    ("sine-gordon", {"n": 60, "t_final": 4.0}),       # nonlinear, boundary
    ("wave", {"n": 40, "t_final": 1.0}),              # explicit stages
])
def test_closed_and_dissipative_steppers_agree_without_memory(name, overrides):
    """At chi = 0 the closed form is the dissipative one with S = K^T K and
    no drift, and both steppers run the same kick-drift-kick stages."""
    config = sm.make_config(name, {**overrides, "chi_scale": 0.0})
    system = sm.build_benchmark(name, config).system
    model = sm.DissipativeModel(
        system.K.T @ system.K, z0=system.z0,
        nonlinear_grad=system.nonlinear_grad, potential=system.potential,
        input_vector=system.input_vector,
        boundary_vector=system.boundary_vector, dx=system.dx)
    closed = sm.integrate(system, dt=config.dt, t_final=config.t_final)
    plain = sm.integrate_dissipative(model, dt=config.dt,
                                     t_final=config.t_final)
    a, b = closed.snapshots.states, plain.snapshots.states
    assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


# -- gradient evaluations of a Verlet run ------------------------------------


def _sine_gordon_n40():
    config = sm.make_config("sine-gordon", {"n": 40})
    return sm.build_benchmark("sine-gordon", config)


class _GradCount:
    """Counts the calls of a model's nonlinear gradient."""

    def __init__(self, model):
        self.calls = 0
        grad = model.nonlinear_grad

        def counted(z):
            self.calls += 1
            return grad(z)
        model.nonlinear_grad = counted


def _sine_gordon_run(which, dt, n_steps, n=40):
    """(model, integrate) of one sine-Gordon Verlet run: the full closed or
    dissipative model of n nodes, or its rdh or psd reduction on 4
    cotangent pairs of the full run's n_steps."""
    bench = sm.build_benchmark("sine-gordon",
                               sm.make_config("sine-gordon", {"n": n}))
    if which == "full":
        return bench.system, sm.integrate
    if which == "dissipative":
        return bench.dissipative_model(), sm.integrate_dissipative
    full = sm.integrate(bench.system, dt=dt, n_steps=n_steps)
    basis = sm.cotangent_lift(full.snapshots, 4)[0]
    if which == "rdh":
        return sm.rdh_reduce(bench.system, basis).system, sm.integrate
    return (sm.psd_baseline(bench.dissipative_model(), basis).model,
            sm.integrate_dissipative)


@pytest.mark.parametrize("which", ["full", "dissipative", "rdh", "psd"])
def test_mapped_verlet_runs_evaluate_the_gradient_once_per_mapped_step(
        which):
    """A run of n steps calls the gradient n + 1 times: at q_0 for the map
    input and once in each of the n mapped steps."""
    dt, n_steps = 0.01, 150
    model, run = _sine_gordon_run(which, dt, n_steps)
    count = _GradCount(model)
    run(model, dt=dt, n_steps=n_steps, snapshot_stride=7)
    assert count.calls == n_steps + 1


@pytest.mark.parametrize("which", ["full", "dissipative", "rdh", "psd",
                                   "ladder"])
def test_mapped_verlet_runs_step_only_to_probe(which, monkeypatch):
    """A mapped run calls its stepper's ``step`` once, in
    :func:`dynamics._step_map`, on a probe block of one column more than
    the map probes (x, and for a nonlinear model both injected gradients),
    and never for a node: an 80 x 201 block for the closed sine-Gordon
    model of n = 40, whose x = (z, F_live) has 120 entries."""
    dt, n_steps = 0.01, 150
    if which == "ladder":
        model, run = _ladder_with_input()[0], sm.integrate
    else:
        model, run = _sine_gordon_run(which, dt, n_steps)
    calls, columns, probing = [], [], []
    build = dynamics._step_map

    def probed(*args):
        probing.append(True)
        try:
            phi, c, g1 = build(*args)
        finally:
            probing.pop()
        columns.append(phi.shape[1] + (0 if g1 is None else g1.shape[1]))
        return phi, c, g1
    monkeypatch.setattr(dynamics, "_step_map", probed)
    for cls in (VerletStepper, dynamics.DissipativeVerletStepper):
        def counted(stepper, z, step=cls.step):
            calls.append(("probe" if probing else "node", np.shape(z)))
            return step(stepper, z)
        monkeypatch.setattr(cls, "step", counted)
    run(model, dt=dt, n_steps=n_steps)
    assert len(columns) == 1
    assert calls == [("probe", (model.dim, columns[0] + 1))]
    if which == "full":
        assert calls[0][1] == (80, 201)


def _probed_map(stepper, closed: bool, dim: int):
    """The map of :func:`dynamics._step_map` probed one ``step`` per
    column, as a reference: c the image of zero, and each column the
    image of a unit vector minus c, the G_1 columns last; a closed x is
    (z, F_live), loaded with F zero off the live columns of chi; a
    nonlinear stepper's gradient returns the injected g_n, then
    g_{n+1}."""
    live = stepper._live if closed else np.arange(0)
    xdim = dim + live.size
    n = dim // 2
    size = xdim if stepper.linear else xdim + 2 * n
    injected = []
    stepper._grad = lambda q: injected.pop(0)

    def image(v):
        injected[:] = [v[xdim: xdim + n], v[xdim + n:]]
        if closed:
            memory = np.zeros(dim)
            memory[live] = v[dim:xdim]
            stepper._load(v[:dim], memory)
            return np.concatenate([stepper.step(v[:dim]),
                                   stepper.integral[live]])
        return stepper.step(v[:xdim])
    c = image(np.zeros(size))
    return np.array([image(unit) - c for unit in np.eye(size)]).T, c


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "plain"])
@pytest.mark.parametrize("name, n", [("ladder", 10), ("sine-gordon", 30)])
def test_block_step_map_matches_a_probe_per_column(name, n, closed):
    """The map :func:`dynamics._step_map` images in one block step matches
    the map probed one column at a time within 1e-12 of its max, and so
    does c: for both Verlet steppers, linear with an input (the ladder)
    and nonlinear with a boundary vector (sine-Gordon)."""
    key = "cells" if name == "ladder" else "n"
    bench = sm.build_benchmark(name, sm.make_config(name, {key: n}))
    config = bench.config
    model = bench.system if closed else bench.dissipative_model()
    stepper = VerletStepper if closed else dynamics.DissipativeVerletStepper
    assert (model.nonlinear_grad is None) == (name == "ladder")
    assert (model.input_vector is not None) == (name == "ladder")
    assert (model.boundary_vector is not None) == (name == "sine-gordon")
    phi, c, g1 = dynamics._step_map(stepper(model, config.dt), closed,
                                    model.dim)
    got = phi if g1 is None else np.hstack([phi, g1])
    want, want_c = _probed_map(stepper(model, config.dt), closed, model.dim)
    assert got.shape == want.shape
    assert _close(got, want)
    assert _close(c, want_c)


def _cotangent_wave_rdh():
    config = sm.make_config("wave", {"n": 16, "t_final": 1.0})
    bench = sm.build_benchmark("wave", config)
    full = sm.integrate(bench.system, dt=config.dt, t_final=config.t_final)
    basis = sm.cotangent_lift(full.snapshots, 6)[0]
    return sm.rdh_reduce(bench.system, basis).system, config.dt


@pytest.mark.parametrize("make", [_ladder_with_input, _cotangent_wave_rdh],
                         ids=["ladder", "wave-rdh-cotangent"])
def test_memory_off_the_live_columns_acts_on_nothing(make):
    """chi F reads F only on the columns of chi with a nonzero entry, the
    stepper's ``_live``: one step from (z, F) and from (z, F + e_i), with
    i a zero column of chi, gives bitwise-equal z and f, and the same F on
    the live columns. So the step map carries F_live alone."""
    system, dt = make()
    stepper = VerletStepper(system, dt)
    live = stepper._live
    dead = np.setdiff1d(np.arange(system.dim), live)
    chi = np.asarray(dynamics._dense(system.chi))
    assert dead.size == system.dim // 2 and not chi[:, dead].any()
    rng = np.random.default_rng(3)
    z, memory = rng.standard_normal((2, system.dim))

    def step(integral):
        fresh = VerletStepper(system, dt)
        fresh._load(z, integral)
        return fresh.step(z), fresh.f, fresh.integral[live]
    want = step(memory)
    for i in dead[[0, -1]]:
        shifted = memory.copy()
        shifted[i] += 1.0
        for got, expected in zip(step(shifted), want):
            np.testing.assert_array_equal(got, expected)


def test_closed_map_without_memory_is_the_plain_map():
    """A closed model with chi = 0 maps z alone, and its map and states
    equal those of its plain form (stiffness K^T K, zero drift) to
    roundoff."""
    config = sm.make_config("ladder", {"cells": 10, "chi_scale": 0.0})
    bench = sm.build_benchmark("ladder", config)
    closed = sm.integrate(bench.system, dt=config.dt, n_steps=300)
    plain = sm.integrate_dissipative(bench.dissipative_model(),
                                     dt=config.dt, n_steps=300)
    assert closed.step_map.shape == plain.step_map.shape == (20, 20)
    assert _close(closed.step_map, plain.step_map)
    assert _close(closed.snapshots.states, plain.snapshots.states)


@pytest.mark.parametrize("make", [_ladder_with_input, _greedy_wave_rdh],
                         ids=["ladder", "wave-rdh-greedy"])
def test_mapped_block_diagnostics_are_the_recomputed_columns(make,
                                                             monkeypatch):
    """Every closed block, of a mapped run and of a stepped one
    (``_MAP_DIM`` = 0), yields the pair (K z, chi F): bitwise
    ``system.K @ states`` and ``system.chi_apply(memory)`` of that block's
    own state and memory layers. :func:`dynamics._closed_columns`
    receives that very pair for every block."""
    system, dt = make()
    source, columns = dynamics._record_blocks, dynamics._closed_columns
    blocks, received = [], []

    def recorded(*args):
        for block, products in source(*args):
            # copies of the layers, laid out as the block's (m, dim) rows
            blocks.append((block[0].copy().T, block[1].copy().T, products))
            yield block, products

    def checked(system, states, costates, kz, chi_f):
        received.append((kz, chi_f))
        return columns(system, states, costates, kz, chi_f)
    monkeypatch.setattr(dynamics, "_record_blocks", recorded)
    monkeypatch.setattr(dynamics, "_closed_columns", checked)
    for map_dim in (dynamics._MAP_DIM, 0):
        monkeypatch.setattr(dynamics, "_MAP_DIM", map_dim)
        blocks.clear()
        received.clear()
        rep = sm.integrate(system, dt=dt, n_steps=5 * dynamics._BLOCK // 2)
        assert (rep.step_map is not None) == (map_dim > 0)
        assert len(blocks) == len(received) == 3
        for (states, memory, products), pair in zip(blocks, received):
            assert len(products) == 2
            assert pair[0] is products[0] and pair[1] is products[1]
            np.testing.assert_array_equal(products[0], system.K @ states)
            np.testing.assert_array_equal(products[1],
                                          system.chi_apply(memory))


def _ladder_plain():
    config = sm.make_config("ladder", {"cells": 10})
    return sm.build_benchmark("ladder", config).dissipative_model(), config.dt


@pytest.mark.parametrize("n_steps", [
    2, dynamics._WINDOW - 1, dynamics._WINDOW, dynamics._WINDOW + 1,
    dynamics._BLOCK - 1, dynamics._BLOCK, dynamics._BLOCK + 1])
@pytest.mark.parametrize("make, run", [
    (_ladder_with_input, sm.integrate),
    (_ladder_plain, sm.integrate_dissipative),
    (_greedy_wave_rdh, sm.integrate),
    (_cotangent_wave_rdh, sm.integrate)],
    ids=["ladder", "ladder-plain", "wave-rdh", "wave-rdh-cotangent"])
def test_windowed_map_runs_match_stepped_runs(make, run, n_steps,
                                              monkeypatch):
    """A linear map of at most 90 columns advances _WINDOW nodes per
    product; a closed map's columns are z and F on the live columns of
    chi alone, fewer than all of F on each closed model here. Runs of a
    window's length and around it, and around a block's length, with
    stride 3, match the stepped run (``_MAP_DIM`` = 0): the states and
    co-states within 1e-12 of their max, the energy series within 1e-12
    of max |H|."""
    model, dt = make()
    assert model.nonlinear_grad is None
    xdim = model.dim
    if run is sm.integrate:
        xdim += VerletStepper(model, dt)._live.size
        assert xdim < 2 * model.dim
    assert xdim <= 90
    maps = _MapCount(monkeypatch)
    got = run(model, dt=dt, n_steps=n_steps, snapshot_stride=3)
    assert maps.shapes == [(xdim, xdim)]
    monkeypatch.setattr(dynamics, "_MAP_DIM", 0)
    want = run(model, dt=dt, n_steps=n_steps, snapshot_stride=3)
    assert maps.calls == 1 and want.step_map is None
    assert _close(got.snapshots.states, want.snapshots.states)
    if run is sm.integrate:
        assert _close(got.costates, want.costates)
    tol = 1e-12 * np.abs(want.hamiltonian).max()
    for series in ("hamiltonian", "string_energy", "extended_energy",
                   "passivity_residual"):
        assert (np.abs(getattr(got, series) - getattr(want, series)).max()
                <= tol)


@pytest.mark.parametrize("which", ["full", "dissipative", "rdh", "psd"])
def test_stepped_verlet_runs_evaluate_the_gradient_at_each_kick(
        which, monkeypatch):
    """Without the step map each kick evaluates the gradient at its own q:
    a run of n steps calls it 2 n times, and nowhere else."""
    dt, n_steps = 0.01, 150
    model, run = _sine_gordon_run(which, dt, n_steps)
    monkeypatch.setattr(dynamics, "_MAP_DIM", 0)
    count = _GradCount(model)
    run(model, dt=dt, n_steps=n_steps, snapshot_stride=7)
    assert count.calls == 2 * n_steps


@pytest.mark.parametrize("which", ["rdh", "psd"])
def test_nonlinear_step_map_is_the_linear_models_map(which, monkeypatch):
    """A reduced sine-Gordon run carries the linear block of its
    semi-linear map, the x' rows on x, as its step map: the map of the same
    model without its nonlinear gradient, to 1e-13 relative. A stepped run
    carries none."""
    dt = 0.02
    model, run = _sine_gordon_run(which, dt, 100)
    got = run(model, dt=dt, n_steps=2).step_map
    linear = copy.copy(model)
    linear.nonlinear_grad = None
    want = run(linear, dt=dt, n_steps=2).step_map
    assert got.shape == want.shape == (want.shape[1],) * 2
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    monkeypatch.setattr(dynamics, "_MAP_DIM", 0)
    assert run(model, dt=dt, n_steps=2).step_map is None


@pytest.mark.parametrize("which, shape", [("rdh", (90, 120)),
                                          ("psd", (60, 90))],
                         ids=["rdh-150", "psd-90"])
def test_default_sine_gordon_k60_maps(which, shape, monkeypatch):
    """The default sine-Gordon compare's k = 60 cells advance by a
    semi-linear map B from x and the 30 reduced-position gradient entries
    to x: 90 x 120 for rdh, whose x = (z, F_live) has 90 entries (the
    cotangent chi_red is zero on the 30 reduced positions), and 60 x 90
    for psd, whose x = z has 60."""
    config = sm.make_config("sine-gordon")
    bench = sm.build_benchmark("sine-gordon", config)
    full = sm.integrate(bench.system, dt=config.dt, t_final=config.t_final,
                        snapshot_stride=config.snapshot_stride)
    basis = sm.cotangent_lift(full.snapshots, 30)[0]
    maps = _MapCount(monkeypatch)
    if which == "rdh":
        sm.integrate(sm.rdh_reduce(bench.system, basis).system,
                     dt=config.dt, n_steps=2)
    else:
        sm.integrate_dissipative(sm.psd_baseline(
            bench.dissipative_model(), basis).model, dt=config.dt, n_steps=2)
    assert maps.shapes == [shape]


@pytest.mark.parametrize("which", ["full", "rdh", "psd"])
def test_mapped_gradient_argument_is_the_recorded_position(which,
                                                           monkeypatch):
    """A mapped sine-Gordon run evaluates the gradient at the q it records:
    at q_0 for the map input and at q_i in the mapped step to node i,
    bitwise."""
    dt, n_steps = 0.01, 150
    model, run = _sine_gordon_run(which, dt, n_steps)
    args = []
    grad = model.nonlinear_grad

    def recorded(q):
        args.append(np.array(q))
        return grad(q)
    model.nonlinear_grad = recorded
    maps = _MapCount(monkeypatch)
    rep = run(model, dt=dt, n_steps=n_steps, snapshot_stride=1)
    assert maps.calls == 1
    q = rep.snapshots.states[: model.n]
    want = list(q.T)
    assert len(args) == len(want) == n_steps + 1
    for got, node in zip(args, want):
        np.testing.assert_array_equal(got, node)


def test_fresh_stepper_reproduces_a_recorded_node_bitwise():
    """A plain Verlet step reads its state alone, each kick evaluating
    the gradient at its own q: stepping a node of a stepper loop with a
    new stepper gives the next node bitwise."""
    bench = _sine_gordon_n40()
    model, dt = bench.dissipative_model(), bench.config.dt
    states = _plain_loop(model, dt, 40)
    for node in (0, 17, 39):
        stepper = dynamics.DissipativeVerletStepper(model, dt)
        np.testing.assert_array_equal(stepper.step(states[:, node]),
                                      states[:, node + 1])


def test_stepper_given_another_state_evaluates_the_gradient():
    """Every step evaluates the gradient twice, from the state the last
    step returned or from another, and a stepper given another state
    steps it as a fresh stepper does."""
    bench = _sine_gordon_n40()
    model, dt = bench.dissipative_model(), bench.config.dt
    count = _GradCount(model)
    stepper = dynamics.DissipativeVerletStepper(model, dt)
    z1 = stepper.step(model.z0)
    assert count.calls == 2
    stepper.step(z1)
    assert count.calls == 4
    other = z1.copy()
    other[3] += 1e-3
    got = stepper.step(other)
    assert count.calls == 6
    want = dynamics.DissipativeVerletStepper(model, dt).step(other)
    np.testing.assert_array_equal(got, want)


def test_rk4_accuracy_linear_decay():
    rep = sm.integrate_rk4(lambda z: -z, np.array([1.0, 1.0]), dt=1e-2,
                           t_final=1.0)
    assert np.abs(rep.snapshots.states[:, -1] - np.exp(-1.0)).max() <= 1e-9
    # the POD baseline's energy is measured on lifted states, not here
    assert not rep.hamiltonian.any() and not rep.extended_energy.any()
    assert rep.kind == "rk4"
    assert rep.step_map is None


def test_rk4_blow_up_names_the_state():
    """An RK4 run has zero energy series, so it fails at the first node
    whose state is non-finite, and says so."""
    stepper = dynamics._Rk4Stepper(lambda z: 1e3 * z, 1.0)
    z, step = np.ones(2), 0
    with np.errstate(over="ignore"):
        while np.isfinite(z).all():
            z, step = stepper.step(z), step + 1
    with pytest.raises(sm.NonFiniteError,
                       match=f"^state became non-finite at step {step}$"):
        sm.integrate_rk4(lambda z: 1e3 * z, np.ones(2), dt=1.0,
                         n_steps=step + 5, snapshot_stride=3)


def test_rk4_calls_its_rhs_four_times_a_step_and_once_a_snapshot():
    """10 steps at stride 3 make 4 stage calls a step and one call at each
    of the snapshot nodes 0, 3, 6 and 9, whose dz/dt the run records."""
    calls = [0]

    def rhs(z):
        calls[0] += 1
        return -z
    rep = sm.integrate_rk4(rhs, np.ones(2), dt=0.1, n_steps=10,
                           snapshot_stride=3)
    assert calls[0] == 4 * 10 + 4
    np.testing.assert_array_equal(rep.derivatives, -rep.snapshots.states)


def test_kinetic_series_matches_velocity():
    bench = build_oscillator(r=0.0)
    rep = sm.integrate(bench.system, dt=0.05, t_final=2.0)
    # conservative oscillator: the coordinate velocity is the momentum
    expected = 0.5 * rep.snapshots.states[1] ** 2
    kinetic = sm.reduction.kinetic_energy(bench.system.velocity(rep.costates),
                                          bench.system.dx)
    assert np.abs(kinetic - expected).max() <= 1e-12


def test_system_validation_errors():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="symmetric"):
        sm.TddSystem(eye, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="negative"):
        sm.TddSystem(eye, -eye, np.zeros(2))
    with pytest.raises(ValueError, match="negative"):
        sm.TddSystem(eye, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="rank"):
        sm.TddSystem(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="square"):
        sm.TddSystem(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="even"):
        sm.TddSystem(np.eye(3), np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        sm.TddSystem(eye, np.eye(4), np.zeros(2))
    with pytest.raises(ValueError, match="K has a non-finite entry"):
        sm.TddSystem(np.diag([1.0, np.nan]), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError,
                       match="susceptibility has a non-finite entry"):
        sm.TddSystem(eye, np.diag([0.0, np.nan]), np.zeros(2))
    with pytest.raises(ValueError):
        sm.TddSystem(eye, np.zeros((2, 2)), np.zeros(3))


@pytest.mark.parametrize("form", [np.asarray, scipy.sparse.csr_array],
                         ids=["dense", "csr"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dissipative_model_rejects_a_non_finite_operator(form, bad):
    """A non-finite stiffness or drift is a ValueError naming the operator
    when the model is built, not a NonFiniteError at step 0 of its run,
    and checking it warns of nothing. Finite operators pass, and the model
    keeps its name."""
    eye = np.eye(2)
    model = sm.DissipativeModel(form(eye), drift=form(eye), name="m")
    assert model.name == "m"
    with pytest.raises(ValueError, match="^stiffness has a non-finite entry$"):
        sm.DissipativeModel(form(np.diag([bad, 1.0])))
    with pytest.raises(ValueError, match="^drift has a non-finite entry$"):
        sm.DissipativeModel(form(eye), drift=form(np.diag([0.0, bad])))


# each owner of the one operator check: how it builds from a 2 x 2
# operator, the name its errors give, and its tolerance
_OPERATOR_OWNERS = {
    "cholesky": (lambda m: cholesky_factor(m, name="M"), "M", 1e-12),
    "susceptibility": (lambda m: sm.TddSystem(np.eye(2), m, np.zeros(2)),
                       "susceptibility", 1e-12),
    "stiffness": (sm.DissipativeModel, "stiffness", 1e-10),
}


@pytest.mark.parametrize("owner", list(_OPERATOR_OWNERS))
@pytest.mark.parametrize("case", ["nan", "inf", "asymmetric", "inside"])
def test_operator_check_of_each_owner(owner, case):
    """The Cholesky factor, the susceptibility of a closed model and the
    stiffness of a plain one each reject a non-finite entry, and an
    asymmetry just past their tolerance relative to max(1, max |m|), by
    name; an asymmetry just inside it passes."""
    build, name, tol = _OPERATOR_OWNERS[owner]
    m = np.array([[2.0, 1.0], [1.0, 2.0]])      # positive definite, scale 2
    if case in ("nan", "inf"):
        m[1, 1] = getattr(np, case)
        with pytest.raises(ValueError, match=f"^{name} has a non-finite entry$"):
            build(m)
        return
    m[0, 1] += (1.01 if case == "asymmetric" else 0.99) * tol * 2.0
    if case == "inside":
        build(m)
        return
    with pytest.raises(ValueError, match=f"^{name} is not symmetric"):
        build(m)


def _model_of(form, z0=(1, 0, 0, 0), **vectors):
    """A 4-dim closed (``tdd``) or plain model from z0 and ``vectors``. The
    plain model once accepted ``input_vector=np.ones(3)`` and integrated it
    with the 1-entry p-half of u broadcast over both momenta."""
    if form == "tdd":
        return sm.TddSystem(np.eye(4), np.zeros((4, 4)), z0, **vectors)
    return sm.DissipativeModel(np.eye(4), z0=z0, **vectors)


@pytest.mark.parametrize("form", ["tdd", "dissipative"])
@pytest.mark.parametrize("field, value", [
    ("z0", np.zeros(3)), ("z0", np.zeros(5)), ("z0", np.zeros((4, 1))),
    ("input_vector", np.ones(3)), ("input_vector", np.ones(5)),
    ("boundary_vector", np.ones(3)), ("boundary_vector", np.ones(5))],
    ids=["z0-3", "z0-5", "z0-4x1", "input-3", "input-5", "boundary-3",
         "boundary-5"])
def test_models_reject_a_mis_shaped_vector(form, field, value):
    """Either model form rejects a z0, input or boundary vector whose shape
    is not (dim,) when it is built, naming the field, rather than
    broadcasting it in the run; vectors of shape (dim,) build."""
    with pytest.raises(ValueError, match=rf"^{field} must have shape \(4,\)"):
        _model_of(form, **{field: value})
    model = _model_of(form, z0=np.ones(4), input_vector=np.ones(4),
                      boundary_vector=np.ones(4))
    assert model.z0.shape == model.input_vector.shape == (4,)
    assert model.boundary_vector.shape == (4,)


# -- sparse full-order path ---------------------------------------------------


def _operators(system, dt=0.01):
    stepper = VerletStepper(system, dt)
    return (system.K, system.kt_op, stepper.kt_wi, stepper.m_qq,
            stepper.m_qp, stepper.m_pq, stepper.m_pp)


@pytest.mark.parametrize("name, overrides", [
    ("wave", {"n": 100}),
    ("sine-gordon", {"n": 60, "t_final": 10.0}),
])
def test_sparse_path_matches_dense_reference(name, overrides):
    config = sm.make_config(name, overrides)
    bench = sm.build_benchmark(name, config)
    # CSR, or a diagonal kept as its vector (m_pp), never an n x n array
    operators = _operators(bench.system)
    assert all(scipy.sparse.issparse(op) or isinstance(op, dynamics._Diagonal)
               for op in operators)
    assert isinstance(operators[-1], dynamics._Diagonal)
    run = {"dt": config.dt, "t_final": config.t_final,
           "snapshot_stride": config.snapshot_stride}
    report = sm.integrate(bench.system, **run)
    assert_volterra(report, name)

    # the dense reference: the same K and chi as dense arrays, which keep
    # every operator dense
    system = bench.system
    dense = sm.TddSystem(system.K.toarray(), system.chi.toarray(), system.z0,
                         nonlinear_grad=system.nonlinear_grad,
                         potential=system.potential,
                         boundary_vector=system.boundary_vector, dx=system.dx)
    assert all(isinstance(op, np.ndarray) for op in _operators(dense))
    reference = sm.integrate(dense, **run)
    for got, want in ((report.snapshots.states, reference.snapshots.states),
                      (report.costates, reference.costates)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_dense_and_reduced_operators_stay_dense(wave_n100, sg_n100, ladder50):
    systems = [ladder50[0].system]
    for bench, report in (wave_n100, sg_n100, ladder50):
        basis, _ = sm.cotangent_lift(report.snapshots, 15)
        bases = [basis.truncate(k) for k in (5, 10, 15)]
        if bench.name == "wave":
            bases.append(sm.greedy_basis(report.snapshots, 15).basis)
        systems += [sm.rdh_reduce(bench.system, b).system for b in bases]
    for system in systems:
        assert all(isinstance(op, np.ndarray) for op in _operators(system)), \
            system.name


def test_diagonal_products_are_csr_products():
    """A diagonal kept as its vector multiplies a vector, a dense block
    and a CSR matrix to the CSR diagonal's products bitwise, a dense block
    coming back C-ordered as the CSR product does (the layout later BLAS
    products round by)."""
    rng = np.random.default_rng(4)
    d = rng.uniform(0.5, 2.0, 6)
    diagonal, csr = dynamics._Diagonal(d), dynamics._Csr(scipy.sparse.diags(d))
    assert diagonal.shape == (6, 6) and diagonal.nbytes == d.nbytes
    v = rng.standard_normal(6)
    np.testing.assert_array_equal(diagonal @ v, csr @ v)
    for block in (rng.standard_normal((6, 4)), rng.standard_normal((4, 6)).T):
        got, want = diagonal @ block, csr @ block
        np.testing.assert_array_equal(got, want)
        assert got.flags.c_contiguous and want.flags.c_contiguous
    sparse = dynamics._Csr(scipy.sparse.random(6, 6, density=0.4,
                                                random_state=4))
    got = diagonal @ sparse
    assert scipy.sparse.issparse(got)
    np.testing.assert_array_equal(got.toarray(), (csr @ sparse).toarray())


def _assert_bits(got, want):
    """``got`` is ``want`` bit for bit: dtype, shape and every float's
    bits, the sign of a zero and a NaN's payload included."""
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.uint8),
        np.ascontiguousarray(want).view(np.uint8))


# scipy's vector product behind its matmul dispatch, by its name in the
# installed scipy (older releases call it _mul_vector)
_SCIPY_VECTOR_PRODUCT = ("_matmul_vector"
                         if hasattr(scipy.sparse.csr_array, "_matmul_vector")
                         else "_mul_vector")


def _sorted_rows(m) -> bool:
    """Whether every row of the CSR ``m`` stores its columns in order."""
    return all((np.diff(m.indices[m.indptr[i]: m.indptr[i + 1]]) > 0).all()
               for i in range(m.shape[0]))


@pytest.mark.parametrize("name", ["wave", "sine-gordon"])
def test_csr_vector_product_is_scipys_bitwise(name):
    """The bare kernel of a CSR product with a float vector gives scipy's
    own product bitwise on K, K^T (I + w chi)^{-1} and m_qq of an n = 40
    model, and on the n x 2n rows of K^T that ``velocity`` reads; m_qq
    stores its columns out of order, and the kernel sums each row in the
    stored order as scipy does."""
    bench = sm.build_benchmark(name, sm.make_config(name, {"n": 40}))
    stepper = VerletStepper(bench.system, bench.config.dt)
    assert not _sorted_rows(stepper.m_qq)
    rng = np.random.default_rng(7)
    system = bench.system
    for op in (system.K, stepper.kt_wi, stepper.m_qq,
               system.kt_op[system.n:]):
        assert isinstance(op, dynamics._Csr)
        v = rng.standard_normal(op.shape[1]) * 10.0 ** rng.integers(
            -8, 8, op.shape[1])
        _assert_bits(op @ v, scipy.sparse.csr_array.__matmul__(op, v))


def test_csr_products_past_the_kernel_take_scipys_path(monkeypatch):
    """A strided view, an int vector and a (dim, m) block never reach the
    bare kernel: with it made to raise, each product still equals scipy's
    bitwise, dtype and shape included."""
    system = _wave(n=40).system
    rng = np.random.default_rng(8)

    def raises(*args):
        raise AssertionError("the bare kernel ran")
    monkeypatch.setattr(dynamics, "_sparsetools",
                        type("Kernels", (), {"csr_matvec": raises}))
    operands = (rng.standard_normal(2 * system.dim)[::2],
                rng.integers(-5, 5, system.dim),
                rng.standard_normal((system.dim, 3)))
    assert not operands[0].flags.c_contiguous
    for v in operands:
        _assert_bits(system.K @ v,
                     scipy.sparse.csr_array.__matmul__(system.K, v))


@pytest.mark.parametrize("name, n", [("wave", 140), ("sine-gordon", 110)])
def test_stepped_closed_runs_keep_scipys_bits(name, n, monkeypatch):
    """A closed run whose map is wider than _MAP_DIM steps (wave n = 140:
    420 columns; sine-Gordon n = 110: 440). Its states, co-states and
    every series equal those of the same run with scipy's CSR product
    restored, bitwise; and scipy's vector product never runs in the fast
    run, so the bare kernel carries every vector product of its steps."""
    system = sm.build_benchmark(name, sm.make_config(name, {"n": n})).system
    dt, n_steps = 0.01, 300
    assert 3 * n + (n if system.nonlinear_grad else 0) > dynamics._MAP_DIM

    def run():
        return sm.integrate(system, dt=dt, n_steps=n_steps)

    with monkeypatch.context() as m:
        def raises(*args):
            raise AssertionError("scipy's vector product ran")
        m.setattr(scipy.sparse.csr_array, _SCIPY_VECTOR_PRODUCT, raises)
        fast = run()
    monkeypatch.setattr(dynamics._Csr, "__matmul__",
                        scipy.sparse.csr_array.__matmul__)
    reference = run()
    assert fast.step_map is None and reference.step_map is None
    for field in ("hamiltonian", "string_energy", "extended_energy",
                  "passivity_residual", "costates"):
        _assert_bits(getattr(fast, field), getattr(reference, field))
    _assert_bits(fast.snapshots.states, reference.snapshots.states)
    _assert_bits(np.array([fast.volterra_max, fast.kz_max]),
                 np.array([reference.volterra_max, reference.kz_max]))


def test_plain_wave_stepper_keeps_a_diagonal_stage_inverse():
    """The full wave's plain form has m_qp = diag(r), so its kick inverse is
    kept as its diagonal of reciprocals: an n = 2000 stepper builds without
    an n x n array (a dense one takes 32 MB), and a 20-step run matches the
    same stepper with the dense inverse to 1e-14 relative."""
    config = sm.make_config("wave", {"n": 2000})
    model = sm.build_benchmark("wave", config).dissipative_model()
    tracemalloc.start()
    try:
        stepper = dynamics.DissipativeVerletStepper(model, config.dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert isinstance(stepper._kick_inv, dynamics._Diagonal)
    assert stepper._drift_inv is None
    report = sm.integrate_dissipative(model, config.dt, n_steps=20)

    stepper._kick_inv = np.linalg.inv(
        np.eye(model.n) + 0.5 * config.dt * np.diag(stepper.m_qp.diagonal))
    states = [model.z0]
    for _ in range(20):
        states.append(stepper.step(states[-1]))
    want = np.array(states).T
    got = report.snapshots.states
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("name", ["wave", "sine-gordon"])
def test_loaded_stepper_reproduces_a_stepped_node_bitwise(name, monkeypatch):
    """A closed stepper carries its node's force m_qq q from step to step;
    a fresh one given a node's (z, F) by ``_load`` forms it, and steps to
    the next node's state and co-state of a stepped n = 40 run bitwise.
    The memory agrees to roundoff only: ``_load`` forms the node's
    co-state as K z - chi F, which differs from the carried one in the
    last bits, and F_{j+1} = F_j + w (f_j + f_{j+1})."""
    bench = sm.build_benchmark(name, sm.make_config(name, {"n": 40}))
    system, dt, n_steps = bench.system, bench.config.dt, 60
    monkeypatch.setattr(dynamics, "_MAP_DIM", 0)
    rep = sm.integrate(system, dt=dt, n_steps=n_steps)
    stepper = VerletStepper(system, dt)
    nodes = [(system.z0, stepper.integral, stepper.f)]
    for _ in range(n_steps):
        nodes.append((stepper.step(nodes[-1][0]), stepper.integral,
                      stepper.f))
    np.testing.assert_array_equal(np.array([z for z, _, _ in nodes]).T,
                                  rep.snapshots.states)
    for j in (0, 1, 17, n_steps - 1):
        fresh = VerletStepper(system, dt)
        fresh._load(*nodes[j][:2])
        np.testing.assert_array_equal(fresh.step(nodes[j][0]),
                                      nodes[j + 1][0])
        np.testing.assert_array_equal(fresh.f, nodes[j + 1][2])
        memory = nodes[j + 1][1]
        assert (np.abs(fresh.integral - memory).max()
                <= 1e-15 * np.abs(memory).max())


@pytest.mark.parametrize("diagonal", [0.0, 1e-14])
def test_rank_check_on_sparse_path(diagonal):
    """A CSR K takes the sparse rank estimate."""
    k = np.ones(200)
    k[7] = diagonal
    with pytest.raises(ValueError, match="rank"):
        sm.TddSystem(scipy.sparse.diags(k, format="csr"),
                     np.zeros((200, 200)), np.zeros(200))


def test_rank_check_on_dense_path():
    rng = np.random.default_rng(5)
    q1, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    q2, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    for ratio, deficient in ((1e-14, True), (1e-6, False)):
        k = q1 @ np.diag(np.logspace(0.0, np.log10(ratio), 8)) @ q2.T
        sv = np.linalg.svd(k, compute_uv=False)
        assert sv[-1] / sv[0] == pytest.approx(ratio, rel=1e-2)
        if deficient:
            with pytest.raises(ValueError, match="rank"):
                sm.TddSystem(k, np.zeros((8, 8)), np.zeros(8))
        else:
            sm.TddSystem(k, np.zeros((8, 8)), np.zeros(8))
