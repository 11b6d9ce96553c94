"""Time-dispersive dynamics: factorizations, the memory constraint, the
staggered integrator and its diagnostics."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import sympmor as sm
from sympmor import StringAccumulator, cholesky_factor, dynamics, symmetric_sqrt
from sympmor.dynamics import VerletStepper

from conftest import assert_volterra, extended_drift, passivity_fd


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
    m = bench.stiffness
    l = cholesky_factor(m, name="stiffness")
    assert np.abs(np.tril(l, -1)).max() == 0.0
    assert np.abs(l.T @ l - m).max() <= 1e-10 * np.abs(m).max()


def test_cholesky_reports_failing_pivot():
    with pytest.raises(np.linalg.LinAlgError, match="pivot 1"):
        cholesky_factor(np.diag([1.0, -1.0]))
    with pytest.raises(np.linalg.LinAlgError, match="pivot 0"):
        cholesky_factor(np.diag([-1.0, 1.0]))


def test_cholesky_input_validation():
    with pytest.raises(ValueError, match="symmetric"):
        cholesky_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        cholesky_factor(np.zeros((2, 3)))


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


# -- memory constraint --------------------------------------------------------


def test_solve_auxiliary_without_dissipation():
    bench = sm.build_oscillator(chi_scale=0.0)
    z = np.array([0.3, -1.2])
    system = sm.TddSystem(bench.system.K, bench.system.chi, z)
    f0 = VerletStepper(system, 0.1).accumulator.f
    assert np.array_equal(f0, system.K @ z)


def test_solve_auxiliary_matches_trapezoid_history():
    bench = sm.build_oscillator(k=1.0, r=1.0)
    system = bench.system
    dt = 1e-3
    stepper = VerletStepper(system, dt)
    z = system.z0
    states = [z.copy()]
    history = [stepper.accumulator.f.copy()]
    for _ in range(50):
        z = stepper.step(z)
        states.append(z.copy())
        history.append(stepper.accumulator.f.copy())
    # reconstruct every co-state from the raw history with an explicit
    # trapezoid tail and a dense solve
    lhs = np.eye(2) + 0.5 * dt * system.chi
    for node, z in enumerate(states):
        tail = np.zeros(2)
        if node:
            tail = dt * (0.5 * history[0] + sum(history[1:node]))
        f_ref = np.linalg.solve(lhs, system.K @ z - system.chi @ tail)
        assert np.abs(f_ref - history[node]).max() <= 1e-12


def test_accumulator_bookkeeping_and_guards():
    acc = StringAccumulator(2, dt=0.2)
    with pytest.raises(RuntimeError):
        acc.tail_next()
    with pytest.raises(RuntimeError):
        acc.commit(np.zeros(2), 0.0, 0.0)
    f0 = np.array([1.0, 2.0])
    acc.prime(f0, dissipation0=3.0, supply0=1.0)
    with pytest.raises(RuntimeError):
        acc.prime(f0, 0.0, 0.0)
    f1 = np.array([2.0, 0.0])
    acc.commit(f1, dissipation_new=5.0, supply_new=2.0)
    assert np.array_equal(acc.tail, 0.1 * f0)
    assert np.array_equal(acc.integral, 0.1 * (f0 + f1))
    assert acc.string_energy == 0.1 * (3.0 + 5.0)
    assert acc.work_coordinate == -0.1 * (1.0 + 2.0)
    assert acc.t == 0.2 and acc.steps == 1
    with pytest.raises(ValueError):
        StringAccumulator(2, dt=0.0)


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


def test_verlet_energy_error_bounded_conservative():
    bench = sm.build_oscillator(r=0.0)
    h0 = bench.system.hamiltonian(bench.system.z0)
    dev = {}
    for t_final in (20.0, 40.0):
        rep = sm.integrate(bench.system, dt=1e-2, t_final=t_final)
        dev[t_final] = np.abs(rep.hamiltonian - h0).max()
    assert dev[20.0] <= 1e-4
    # time symmetry: doubling the horizon must not grow the peak error
    assert dev[40.0] <= 1.01 * dev[20.0]


def test_verlet_second_order_damped_oscillator():
    bench = sm.build_oscillator(k=1.0, r=0.5)
    dt = 1e-3
    rep = sm.integrate(bench.system, dt=dt, t_final=10.0)
    exact = sm.oscillator_exact(1.0, 0.5, 1.0, rep.times)
    assert np.abs(rep.snapshots.states[0] - exact).max() <= dt ** 2


def test_integrate_zero_horizon():
    bench = sm.build_oscillator()
    rep = sm.integrate(bench.system, dt=0.1, t_final=0.0)
    assert rep.n_steps == 0
    assert rep.times.shape == (1,)
    assert rep.snapshots.count == 1
    h0 = bench.system.hamiltonian(bench.system.z0)
    assert abs(rep.hamiltonian[0] - h0) <= 1e-15


def test_integrate_argument_validation():
    bench = sm.build_oscillator()
    with pytest.raises(ValueError, match="exactly one"):
        sm.integrate(bench.system, dt=0.1)
    with pytest.raises(ValueError, match="exactly one"):
        sm.integrate(bench.system, dt=0.1, n_steps=5, t_final=1.0)
    with pytest.raises(ValueError, match="stride"):
        sm.integrate(bench.system, dt=0.1, n_steps=5, snapshot_stride=0)
    with pytest.raises(ValueError):
        VerletStepper(bench.system, dt=0.0)


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


def test_extended_hamiltonian_at_start():
    bench = sm.build_oscillator()
    acc = VerletStepper(bench.system, 1e-3).accumulator
    z0 = bench.system.z0
    h0 = bench.system.hamiltonian(z0)
    assert abs(sm.extended_hamiltonian(bench.system, z0, acc) - h0) <= 1e-14


def test_extended_hamiltonian_without_memory_tracks_h():
    bench = _wave(n=16, chi_scale=0.0)
    system = bench.system
    stepper = VerletStepper(system, 0.01)
    z = system.z0
    for _ in range(20):
        z = stepper.step(z)
        h = system.hamiltonian(z)
        assert abs(sm.extended_hamiltonian(system, z, stepper.accumulator)
                   - h) <= 1e-12 * max(1.0, abs(h))


def test_extended_hamiltonian_conserved_damped_oscillator(run_registry):
    bench = sm.build_oscillator(k=1.0, r=0.5)
    rep = sm.integrate(bench.system, dt=1e-3, t_final=5.0)
    run_registry.add("oscillator-damped", rep)
    assert extended_drift(rep).max() <= 1e-3
    stepper = VerletStepper(bench.system, 1e-3)
    z = bench.system.z0
    for _ in range(rep.n_steps):
        z = stepper.step(z)
    assert abs(sm.extended_hamiltonian(bench.system, z, stepper.accumulator)
               - rep.extended_energy[-1]) <= 1e-12


def test_passivity_residual_definition(ladder50):
    bench, _ = ladder50
    system = bench.system
    dt = bench.config.dt
    stepper = VerletStepper(system, dt)
    z = system.z0
    for _ in range(5):
        z = stepper.step(z)
    acc = stepper.accumulator
    supply = system.supply_rate(z, acc.f)
    assert supply != 0.0
    assert sm.passivity_residual(system, z, acc, 0.25) == 0.25 - supply
    # without an input the residual is the caller's estimate itself
    undriven = sm.build_oscillator().system
    other = VerletStepper(undriven, dt).accumulator
    assert sm.passivity_residual(undriven, undriven.z0, other, -3.5) == -3.5


def test_passivity_ladder_every_instant(ladder50):
    bench, rep = ladder50
    assert rep.passivity_residual.max() <= 1e-8
    assert passivity_fd(bench.system, rep).max() <= 1e-8
    assert_volterra(rep, "ladder-50")


def test_nonfinite_state_detected():
    bench = _wave(n=16)
    with pytest.raises(sm.NonFiniteError, match="step") as exc_info:
        sm.integrate(bench.system, dt=1.0, t_final=300.0)
    assert exc_info.value.step >= 1


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
    exact = scipy.linalg.expm(t_final * model.linear_operator()) @ model.z0
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


def test_rk4_accuracy_linear_decay():
    rep = sm.integrate_rk4(lambda z: -z, np.array([1.0, 1.0]), dt=1e-2,
                           t_final=1.0, hamiltonian=lambda z: float(z @ z))
    assert np.abs(rep.snapshots.states[:, -1] - np.exp(-1.0)).max() <= 1e-9
    assert rep.hamiltonian[0] == 2.0
    assert rep.kind == "rk4"


def test_kinetic_series_matches_velocity():
    bench = sm.build_oscillator(r=0.0)
    rep = sm.integrate(bench.system, dt=0.05, t_final=2.0)
    # conservative oscillator: the coordinate velocity is the momentum
    expected = 0.5 * rep.snapshots.states[1] ** 2
    assert np.abs(rep.kinetic_series() - expected).max() <= 1e-12


def test_system_validation_errors():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="symmetric"):
        sm.TddSystem(eye, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="negative"):
        sm.TddSystem(eye, -eye, np.zeros(2))
    with pytest.raises(ValueError, match="rank"):
        sm.TddSystem(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="square"):
        sm.TddSystem(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="even"):
        sm.TddSystem(np.eye(3), np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        sm.TddSystem(eye, np.eye(4), np.zeros(2))
    with pytest.raises(ValueError):
        sm.TddSystem(eye, np.zeros((2, 2)), np.zeros(3))


# -- sparse full-order path ---------------------------------------------------


def _operators(system, dt=0.01):
    stepper = VerletStepper(system, dt)
    return (system.k_op, system.kt_op, stepper.kt_wi, stepper.m_qq,
            stepper.m_qp, stepper.m_pq, stepper.m_pp)


@pytest.mark.parametrize("name, overrides", [
    ("wave", {"n": 100}),
    ("sine-gordon", {"n": 60, "t_final": 10.0}),
])
def test_sparse_path_matches_dense_reference(name, overrides, monkeypatch):
    config = sm.make_config(name, overrides)
    bench = sm.build_benchmark(name, config)
    assert all(scipy.sparse.issparse(op) for op in _operators(bench.system))
    run = {"dt": config.dt, "t_final": config.t_final,
           "snapshot_stride": config.snapshot_stride}
    report = sm.integrate(bench.system, **run)
    assert_volterra(report, name)

    # the dense reference: every operator kept as the dense array
    monkeypatch.setattr(dynamics, "_operator", lambda m: m)
    dense = sm.build_benchmark(name, config)
    assert all(isinstance(op, np.ndarray) for op in _operators(dense.system))
    reference = sm.integrate(dense.system, **run)
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


@pytest.mark.parametrize("diagonal", [0.0, 1e-14])
def test_rank_check_on_sparse_path(diagonal):
    k = np.eye(200)
    k[7, 7] = diagonal
    assert scipy.sparse.issparse(dynamics._operator(k))
    with pytest.raises(ValueError, match="rank"):
        sm.TddSystem(k, np.zeros((200, 200)), np.zeros(200))


def test_rank_check_on_dense_path():
    rng = np.random.default_rng(5)
    q1, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    q2, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    for ratio, deficient in ((1e-14, True), (1e-6, False)):
        k = q1 @ np.diag(np.logspace(0.0, np.log10(ratio), 8)) @ q2.T
        sv = np.linalg.svd(k, compute_uv=False)
        assert sv[-1] / sv[0] == pytest.approx(ratio, rel=1e-2)
        assert isinstance(dynamics._operator(k), np.ndarray)
        if deficient:
            with pytest.raises(ValueError, match="rank"):
                sm.TddSystem(k, np.zeros((8, 8)), np.zeros(8))
        else:
            sm.TddSystem(k, np.zeros((8, 8)), np.zeros(8))
