"""Time-dispersive dynamics: factorizations, the memory constraint, the
staggered integrator and its diagnostics."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import sympmor as sm
from sympmor import cholesky_factor, dynamics, symmetric_sqrt
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
    with pytest.raises(np.linalg.LinAlgError, match="pivot 1"):
        cholesky_factor(np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                                  [0.0, 0.0, 1.0]]))


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
    with pytest.raises(ValueError, match="negative"):
        symmetric_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))


# -- memory constraint --------------------------------------------------------


def test_solve_auxiliary_without_dissipation():
    bench = sm.build_oscillator(chi_scale=0.0)
    z = np.array([0.3, -1.2])
    system = sm.TddSystem(bench.system.K, bench.system.chi, z)
    f0 = VerletStepper(system, 0.1).f
    assert np.array_equal(f0, system.K @ z)


def test_solve_auxiliary_matches_trapezoid_history():
    bench = sm.build_oscillator(k=1.0, r=1.0)
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
        tail = np.zeros(2)
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
    rep = sm.integrate(bench.system, dt=1e-3, n_steps=0)
    h0 = bench.system.hamiltonian(bench.system.z0)
    assert abs(rep.extended_energy[0] - h0) <= 1e-14


def test_extended_hamiltonian_without_memory_tracks_h():
    bench = _wave(n=16, chi_scale=0.0)
    system = bench.system
    rep = sm.integrate(system, dt=0.01, n_steps=20)
    h = system.hamiltonian(rep.snapshots.states)
    assert np.all(np.abs(rep.extended_energy - h)
                  <= 1e-12 * np.maximum(1.0, np.abs(h)))


def test_extended_hamiltonian_conserved_damped_oscillator(run_registry):
    bench = sm.build_oscillator(k=1.0, r=0.5)
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


def test_passivity_residual_definition(ladder50):
    """The passivity residual is -f^T chi f at every node; on the driven
    ladder the supply rate is nonzero, so it is not dH/dt itself."""
    bench, rep = ladder50
    system = bench.system
    nodes = np.rint(rep.snapshot_times / rep.dt).astype(int)
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
    bench = _wave(n=16)
    with pytest.raises(sm.NonFiniteError, match="step") as exc_info:
        sm.integrate(bench.system, dt=1.0, t_final=300.0)
    assert exc_info.value.step >= 1


def _series_by_hand(system, dt, n_steps):
    """States, co-states and the six diagnostics of a closed run from a
    manual stepper loop, node by node, with the per-step formulas: H, the
    running trapezoid string energy and input work, H_ext, -f^T chi f, and
    the Volterra residual and |K z| against the memory F (w f0 at node 0)."""
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
        memory = stepper.integral if i else w * f
        rows.append((0.5 * float(kz @ kz) + nonquad, e_string,
                     0.5 * float(f @ f) + nonquad + e_string + work, -diss,
                     np.abs(kz - f - system.chi @ memory).max(),
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
    for got, want in ((rep.snapshots.states, states[:, ::stride]),
                      (rep.costates, costates[:, ::stride])):
        if name == "ladder":    # linear: advanced by the step map
            assert _close(got, want)
        else:
            assert np.array_equal(got, want)
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
    """Counts the step maps :func:`dynamics._step_map` builds."""

    def __init__(self, monkeypatch):
        self.calls = 0
        build = dynamics._step_map

        def counted(*args):
            self.calls += 1
            return build(*args)
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
    states, co-states and derivatives match a manual stepper loop within
    1e-12 of their max, and its energy series within 1e-12 of max |H|."""
    system, dt = make()
    assert system.nonlinear_grad is None
    maps = _MapCount(monkeypatch)
    rep = sm.integrate(system, dt=dt, n_steps=n_steps, snapshot_stride=7)
    assert maps.calls == 1
    states, costates, rows = _series_by_hand(system, dt, n_steps)
    states, costates = states[:, ::7], costates[:, ::7]
    assert _close(rep.snapshots.states, states)
    assert _close(rep.costates, costates)
    assert _close(rep.derivatives, system.state_derivative(states, costates))
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
    stepper = dynamics.DissipativeVerletStepper(model, dt)
    z = model.z0
    states = [z]
    for _ in range(n_steps):
        z = stepper.step(z)
        states.append(z)
    states = np.array(states).T
    assert _close(rep.snapshots.states, states[:, ::7])
    assert _close(rep.derivatives, np.array(
        [model.state_derivative(c) for c in states[:, ::7].T]).T)
    assert _close(rep.hamiltonian, model.hamiltonian(states))


def _unstable_wave(closed, dt):
    """A linear wave model past the Verlet limit, its integrator and the
    step at which a manual stepper loop first leaves floating point range
    together with the states of that loop up to the step before."""
    bench = _wave(n=16)
    if closed:
        model, run = bench.system, sm.integrate
        stepper = VerletStepper(model, dt)
    else:
        model, run = bench.dissipative_model(), sm.integrate_dissipative
        stepper = dynamics.DissipativeVerletStepper(model, dt)
    states = [model.z0]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, 601):
            z = stepper.step(states[-1])
            if not np.isfinite(z).all():
                break
            states.append(z)
    assert dynamics._BLOCK < step < 600    # past the first chunk
    return model, run, step, np.array(states).T


@pytest.mark.parametrize("dt", [0.25, 0.5])
@pytest.mark.parametrize("closed", [True, False])
def test_unstable_linear_model_fails_at_the_stepper_loop_step(closed, dt,
                                                              monkeypatch):
    """Past the Verlet limit the step map raises NonFiniteError at the
    step where the manual stepper loop first leaves floating point range,
    though the state the map forms would overflow a few steps later."""
    model, run, step, _ = _unstable_wave(closed, dt)
    maps = _MapCount(monkeypatch)
    with pytest.raises(sm.NonFiniteError) as exc_info:
        run(model, dt=dt, n_steps=600)
    assert maps.calls == 1
    assert exc_info.value.step == step


@pytest.mark.parametrize("closed", [True, False])
def test_unstable_run_ending_near_its_failure_step(closed):
    """A run that ends one to three steps before the manual stepper loop
    overflows completes with that loop's states, and one that ends at or
    just past that step fails there."""
    dt = 0.25
    model, run, step, states = _unstable_wave(closed, dt)
    for n_steps in (step - 3, step - 1):
        rep = run(model, dt=dt, n_steps=n_steps)
        assert _close(rep.snapshots.states, states[:, : n_steps + 1])
    for n_steps in (step, step + 2):
        with pytest.raises(sm.NonFiniteError) as exc_info:
            run(model, dt=dt, n_steps=n_steps)
        assert exc_info.value.step == step


def test_map_path_selection(monkeypatch):
    """The step map is taken for a linear model whose map has at most
    _MAP_DIM rows, whatever the run's length past one step; a nonlinear
    gradient or a larger map keep the stepper."""
    ladder = sm.build_benchmark("ladder").system         # 2 dim = 200
    assert 2 * ladder.dim <= dynamics._MAP_DIM
    sine_gordon = sm.build_benchmark(
        "sine-gordon", sm.make_config("sine-gordon", {"n": 30})).system
    wave = _wave(n=150).system                            # 2 dim = 600
    assert 2 * wave.dim > dynamics._MAP_DIM
    for system, n_steps, mapped in ((ladder, 2, True),
                                    (ladder, 1, False),
                                    (sine_gordon, 400, False),
                                    (wave, 601, False)):
        maps = _MapCount(monkeypatch)
        sm.integrate(system, dt=0.001, n_steps=n_steps)
        assert maps.calls == int(mapped), (system.name, n_steps)


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
    assert np.array_equal(physical.times, rep.snapshot_times)
    assert physical.dx == rep.snapshots.dx
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


# -- one gradient evaluation per Verlet step ---------------------------------


def _sine_gordon_n40():
    config = sm.make_config("sine-gordon", {"n": 40})
    return sm.build_benchmark("sine-gordon", config)


class _GradCount:
    """Counts the single-state calls of a model's nonlinear gradient; the
    driver's block calls after the loop are left out."""

    def __init__(self, model):
        self.calls = 0
        grad = model.nonlinear_grad

        def counted(z):
            if np.ndim(z) == 1:
                self.calls += 1
            return grad(z)
        model.nonlinear_grad = counted


def _sine_gordon_run(which, dt, n_steps):
    """(model, integrate) of one sine-Gordon n = 40 Verlet run: the full
    closed or dissipative model, or its rdh or psd reduction on 4
    cotangent pairs."""
    bench = _sine_gordon_n40()
    if which == "full":
        return bench.system, sm.integrate
    if which == "dissipative":
        return bench.dissipative_model(), sm.integrate_dissipative
    full = sm.integrate(bench.system, dt=dt, n_steps=n_steps)
    basis, _ = sm.cotangent_lift(full.snapshots, 4)
    if which == "rdh":
        return sm.rdh_reduce(bench.system, basis).system, sm.integrate
    return (sm.psd_baseline(bench.dissipative_model(), basis).model,
            sm.integrate_dissipative)


@pytest.mark.parametrize("which", ["full", "dissipative", "rdh", "psd"])
def test_verlet_runs_evaluate_the_gradient_once_per_step(which):
    """Stage 1 of a step takes the gradient stage 3 of the step before
    evaluated: a run of n steps calls the gradient of a single state
    n + 1 times, once at node 0 and once per step."""
    dt, n_steps = 0.01, 150
    model, run = _sine_gordon_run(which, dt, n_steps)
    count = _GradCount(model)
    run(model, dt=dt, n_steps=n_steps, snapshot_stride=7)
    assert count.calls == n_steps + 1


def test_fresh_stepper_reproduces_a_recorded_node_bitwise():
    """The reused gradient is bitwise the one a fresh stepper evaluates at
    the start-of-step state, since the sine-Gordon gradient reads q only:
    stepping a recorded node with a new stepper gives the next node."""
    bench = _sine_gordon_n40()
    model, dt = bench.dissipative_model(), bench.config.dt
    states = sm.integrate_dissipative(model, dt=dt,
                                      n_steps=40).snapshots.states
    for node in (0, 17, 39):
        stepper = dynamics.DissipativeVerletStepper(model, dt)
        np.testing.assert_array_equal(stepper.step(states[:, node]),
                                      states[:, node + 1])


def test_stepper_given_another_state_evaluates_the_gradient():
    """A state whose q is not the q the last step ended at has its
    gradient evaluated again, and steps as a fresh stepper steps it; the
    step from the state the last step returned evaluates once."""
    bench = _sine_gordon_n40()
    model, dt = bench.dissipative_model(), bench.config.dt
    count = _GradCount(model)
    stepper = dynamics.DissipativeVerletStepper(model, dt)
    z1 = stepper.step(model.z0)
    assert count.calls == 2
    stepper.step(z1)
    assert count.calls == 3
    other = z1.copy()
    other[3] += 1e-3
    got = stepper.step(other)
    assert count.calls == 5
    want = dynamics.DissipativeVerletStepper(model, dt).step(other)
    np.testing.assert_array_equal(got, want)


def test_rk4_accuracy_linear_decay():
    rep = sm.integrate_rk4(lambda z: -z, np.array([1.0, 1.0]), dt=1e-2,
                           t_final=1.0)
    assert np.abs(rep.snapshots.states[:, -1] - np.exp(-1.0)).max() <= 1e-9
    # the POD baseline's energy is measured on lifted states, not here
    assert not rep.hamiltonian.any() and not rep.extended_energy.any()
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
