"""Shared benchmark builds and integration runs.

The expensive full-order runs are session-scoped and reused across the test
modules. Every run of the time-dispersive formulation is also recorded in a
session registry so the discrete memory constraint can be audited over all
of them at once at the end of the acceptance suite.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import sympmor as sm
from sympmor.benchmarks import Benchmark, _mechanical
from sympmor.dynamics import _require_psd
from sympmor.symplectic import (DegenerateVector, OrthoSymplecticBasis,
                                symplectic_gram_schmidt)

VOLTERRA_REL = 1e-10


class RunRegistry:
    """(label, report) pairs for every time-dispersive integration run."""

    def __init__(self):
        self.entries = []

    def add(self, label: str, report) -> None:
        if report.kind == "tdd":
            self.entries.append((label, report))


def random_ortho_symplectic(n: int, pairs: int,
                            rng=None) -> OrthoSymplecticBasis:
    """Random ortho-symplectic basis, built by repeated Gram-Schmidt steps;
    deterministic under a seeded ``rng``."""
    rng = np.random.default_rng(rng)
    basis = None
    attempts = 0
    while basis is None or basis.k < pairs:
        if attempts > 50 * pairs:
            raise RuntimeError("failed to draw independent random vectors")
        attempts += 1
        try:
            e_new = symplectic_gram_schmidt(rng.standard_normal(2 * n), basis)
        except DegenerateVector:
            continue
        lead = (e_new[:, None] if basis is None
                else np.hstack([basis.lead, e_new[:, None]]))
        basis = OrthoSymplecticBasis(lead)
    return basis


def symplectic_inverse(a: np.ndarray) -> np.ndarray:
    """Symplectic (Moore-Penrose-like) inverse A^+ = J_{2k}^T A^T J_{2n} of
    a (2n, 2k) matrix, by block swaps and sign flips only (exact in
    floating point up to the entries of A themselves)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] % 2 or a.shape[1] % 2:
        raise ValueError(f"matrix must have even dimensions, got {a.shape}")
    n, k = a.shape[0] // 2, a.shape[1] // 2
    at = a.T
    at_j = np.hstack([-at[:, n:], at[:, :n]])          # A^T J_2n
    return np.vstack([-at_j[k:, :], at_j[:k, :]])      # J_2k^T (A^T J_2n)


def coefficients(basis: OrthoSymplecticBasis, z):
    """Reduced coordinates A^+ z = A^T z of a state or a block of states."""
    return basis.matrix.T @ z


def symmetric_sqrt(chi: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Symmetric PSD square root of a symmetric PSD matrix.

    Diagonal matrices take a fast path. Eigenvalues in [-tol*scale, 0) are
    treated as roundoff and clamped to zero; anything below that raises.
    """
    chi = np.asarray(chi, dtype=float)
    floor = tol * max(1.0, float(np.abs(chi).max()))
    if not (chi - np.diag(np.diag(chi))).any():
        _require_psd(np.diag(chi), floor)
        return np.diag(np.sqrt(np.clip(np.diag(chi), 0.0, None)))
    vals, vecs = np.linalg.eigh(0.5 * (chi + chi.T))
    _require_psd(vals, floor)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    return 0.5 * (root + root.T)


def build_oscillator(k: float = 1.0, r: float = 0.5, q0: float = 1.0,
                     p0: float = 0.0, chi_scale: float = 1.0) -> Benchmark:
    """Scalar damped oscillator q'' + r q' + k q = 0 in closed form, through
    the benchmarks' mechanical closure; for convergence and balance checks
    where an exact solution is available."""
    return _mechanical(np.array([[k]], dtype=float), chi_scale * r,
                       np.array([q0, p0]), name="oscillator")


def oscillator_exact(k: float, r: float, q0: float, t):
    """Underdamped solution of q'' + r q' + k q = 0 started at rest."""
    t = np.asarray(t, dtype=float)
    if r ** 2 >= 4.0 * k:
        raise ValueError("closed form here covers the underdamped case only")
    omega = np.sqrt(k - 0.25 * r ** 2)
    decay = np.exp(-0.5 * r * t)
    return q0 * decay * (np.cos(omega * t)
                         + (0.5 * r / omega) * np.sin(omega * t))


def volterra_bound(report) -> float:
    """Admissible memory-constraint residual, relative to the co-state scale."""
    return VOLTERRA_REL * (1.0 + report.kz_max)


def assert_volterra(report, label: str = "run") -> None:
    assert report.volterra_max <= volterra_bound(report), (
        f"{label}: memory-constraint residual {report.volterra_max:.3e} "
        f"exceeds {volterra_bound(report):.3e}"
    )


def extended_drift(report) -> np.ndarray:
    """|H_ext(t) - H(0)| / H(0): drift of the conserved extended energy,
    normalized by the initial visible energy (positive for these runs)."""
    h0 = report.hamiltonian[0]
    return np.abs(report.extended_energy - h0) / abs(h0)


def passivity_fd(system, report) -> np.ndarray:
    """Centered-difference power balance on interior snapshot nodes:
    d/dt (0.5 ||f||^2) minus the supply rate. Nonpositive along passive
    trajectories, up to the quadrature error of the differences."""
    f = report.costates
    z = report.snapshots.states
    t = report.snapshots.times
    dt = float(t[1] - t[0])
    stored = 0.5 * np.sum(f * f, axis=0)
    supply = system.supply_rate(z, f)
    return (stored[2:] - stored[:-2]) / (2.0 * dt) - supply[1:-1]


def read_csv(path):
    """Header list and data array (rows x columns) of a CSV written by
    ``storage.write_csv``."""
    text = Path(path).read_text().strip().splitlines()
    header = text[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    if data.size == 0:
        data = data.reshape(0, len(header))
    return header, data


def kink_speed(report, config) -> float:
    """Propagation speed of the level-pi front of the q profile on the
    interior nodes x_i = i dx, i = 1..n, of the sine-Gordon ``config``'s
    Dirichlet grid: linear interpolation of the crossing point in x,
    least-squares slope in t."""
    grid = config.length / (config.n + 1) * np.arange(1, config.n + 1)
    states = report.snapshots.states
    n = states.shape[0] // 2
    centers = np.empty(states.shape[1])
    for j in range(states.shape[1]):
        q = states[:n, j]
        i = int(np.argmax(q >= np.pi))
        assert 0 < i < n, "front left the grid"
        frac = (np.pi - q[i - 1]) / (q[i] - q[i - 1])
        centers[j] = grid[i - 1] + frac * (grid[i] - grid[i - 1])
    return float(np.polyfit(report.snapshots.times, centers, 1)[0])


def energy_log_norm(matrix, gram) -> float:
    """Logarithmic norm of the generator M in the energy metric of G.

    The largest (dH/dt) / (2H) over states y of the linear flow dy/dt = M y
    with H = 0.5 y^T G y (G positive definite): the growth rate of sqrt(2H).
    Nonpositive exactly when no state can gain energy, as for a flow that
    keeps the sign of the dissipative coupling.
    """
    g = np.asarray(gram, dtype=float)
    gm = g @ np.asarray(matrix, dtype=float)
    return float(scipy.linalg.eigh(0.5 * (gm + gm.T), g,
                                   eigvals_only=True).max())


def _full_run(name, overrides, registry, label):
    config = sm.make_config(name, overrides)
    bench = sm.build_benchmark(name, config)
    report = sm.integrate(bench.system, dt=config.dt, t_final=config.t_final,
                          snapshot_stride=config.snapshot_stride)
    registry.add(label, report)
    return bench, report


def _reduced_run(system, config, registry, label):
    report = sm.integrate(system, dt=config.dt, t_final=config.t_final,
                          snapshot_stride=config.snapshot_stride)
    registry.add(label, report)
    return report


@pytest.fixture(scope="session")
def run_registry():
    return RunRegistry()


# -- full-order runs ----------------------------------------------------------


@pytest.fixture(scope="session")
def wave_n500(run_registry):
    """Full-size dissipative wave run (n = 500, dt = 0.002, T = 7.5)."""
    return _full_run("wave", {}, run_registry, "wave-n500")


@pytest.fixture(scope="session")
def wave_n500_half_dt(run_registry):
    return _full_run("wave", {"dt": 0.001, "snapshot_stride": 10},
                     run_registry, "wave-n500-dt-halved")


@pytest.fixture(scope="session")
def wave_n100(run_registry):
    """Reduced-size wave run reused by most module tests."""
    return _full_run("wave", {"n": 100}, run_registry, "wave-n100")


@pytest.fixture(scope="session")
def lowdiss_n100(run_registry):
    return _full_run("wave-lowdiss", {"n": 100}, run_registry,
                     "wave-lowdiss-n100")


@pytest.fixture(scope="session")
def sg_n100(run_registry):
    return _full_run("sine-gordon", {"n": 100}, run_registry,
                     "sine-gordon-n100")


@pytest.fixture(scope="session")
def sg_free_kink(run_registry):
    """Undamped kink with boundary values consistent with the profile."""
    return _full_run("sine-gordon",
                     {"n": 100, "r": 0.0, "consistent_bc": True,
                      "t_final": 20.0},
                     run_registry, "sine-gordon-free-kink")


@pytest.fixture(scope="session")
def ladder50(run_registry):
    return _full_run("ladder", {}, run_registry, "ladder-50")


# -- reduced runs -------------------------------------------------------------


@pytest.fixture(scope="session")
def wave_n500_greedy40(wave_n500, run_registry):
    """Greedy 40-mode reduction of the full-size wave, integrated closed."""
    bench, report = wave_n500
    result = sm.greedy_basis(report.snapshots, 20)
    red = sm.rdh_reduce(bench.system, result.basis)
    rep = _reduced_run(red.system, bench.config, run_registry,
                       "wave-n500-greedy-40")
    return red, rep


def _error_cell(bench, reference, lift, report):
    recon = sm.reconstruct(lift, report.snapshots)
    return {"report": report,
            "error": sm.l2_error(reference, recon, bench.system.dx)}


@pytest.fixture(scope="session")
def wave_n100_sweep(wave_n100, run_registry):
    """Reduced runs of the small wave problem: the structure-preserving
    reduction and both baselines, with trajectory errors against the full
    model (on the canonical state for the symplectic cells, on the physical
    state K^{-1} f for POD, whose basis is built from it).

    The plain models also carry the energy-metric logarithmic norm of their
    linear generator, as does the full dissipative model under
    ``full_log_norm``.
    """
    bench, full = wave_n100
    config = bench.config
    basis60, _ = sm.cotangent_lift(full.snapshots, 30)
    model = bench.dissipative_model()
    cells = {}
    for m in (20, 40, 60):
        sub = basis60.truncate(m // 2)
        red = sm.rdh_reduce(bench.system, sub)
        rep = _reduced_run(red.system, config, run_registry,
                           f"wave-n100-rdh-{m}")
        cells["rdh", m] = _error_cell(bench, full.snapshots, sub.matrix,
                                      rep)
        psd = sm.psd_baseline(model, sub)
        rep = sm.integrate_dissipative(
            psd.model, dt=config.dt, t_final=config.t_final,
            snapshot_stride=config.snapshot_stride)
        cell = _error_cell(bench, full.snapshots, sub.matrix, rep)
        cell["log_norm"] = energy_log_norm(psd.model.linear_operator(),
                                           psd.model.stiffness)
        cells["psd", m] = cell
    physical = full.physical_snapshots(bench.system)
    v, _ = sm.pod_basis(physical, 40)
    pm = sm.pod_baseline(model, v)
    rep = sm.integrate_rk4(pm.rhs, pm.y0, dt=config.dt,
                           t_final=config.t_final,
                           snapshot_stride=config.snapshot_stride)
    cell = _error_cell(bench, physical, v, rep)
    cell["abscissa"] = sm.spectral_abscissa(pm.matrix)
    cell["log_norm"] = energy_log_norm(pm.matrix,
                                       v.T @ model.stiffness @ v)
    cells["pod", 40] = cell
    return {"bench": bench, "full": full, "cells": cells,
            "full_log_norm": energy_log_norm(
                model.linear_operator().toarray(), model.stiffness.toarray())}


@pytest.fixture(scope="session")
def lowdiss_pair(lowdiss_n100, run_registry):
    """Closed reduction versus the plain symplectic baseline at 40 modes in
    the near-conservative regime."""
    bench, full = lowdiss_n100
    config = bench.config
    basis, _ = sm.cotangent_lift(full.snapshots, 20)
    red = sm.rdh_reduce(bench.system, basis)
    rep_rdh = _reduced_run(red.system, config, run_registry,
                           "wave-lowdiss-rdh-40")
    psd = sm.psd_baseline(bench.dissipative_model(), basis)
    rep_psd = sm.integrate_dissipative(
        psd.model, dt=config.dt, t_final=config.t_final,
        snapshot_stride=config.snapshot_stride)
    a = basis.matrix
    recon_rdh = sm.reconstruct(a, rep_rdh.snapshots)
    recon_psd = sm.reconstruct(a, rep_psd.snapshots)
    dx = bench.system.dx
    return {
        "err_rdh": sm.l2_error(full.snapshots, recon_rdh, dx),
        "err_psd": sm.l2_error(full.snapshots, recon_psd, dx),
        "mutual": sm.l2_error(recon_rdh, recon_psd, dx),
    }


@pytest.fixture(scope="session")
def ladder_reduced(ladder50, run_registry):
    """Closed reductions of the ladder at 10, 20 and 30 modes."""
    bench, full = ladder50
    basis15, _ = sm.cotangent_lift(full.snapshots, 15)
    runs = {}
    for m in (10, 20, 30):
        red = sm.rdh_reduce(bench.system, basis15.truncate(m // 2))
        rep = _reduced_run(red.system, bench.config, run_registry,
                           f"ladder-rdh-{m}")
        runs[m] = (red, rep)
    return runs


@pytest.fixture(scope="session")
def sg_reduced(sg_n100, run_registry):
    """Kinetic-energy errors of closed reductions of the damped kink."""
    bench, full = sg_n100
    n, dx = bench.system.n, bench.system.dx
    kin_full = sm.reduction.kinetic_energy(
        bench.system.velocity(full.costates), dx)
    basis30, _ = sm.cotangent_lift(full.snapshots, 30)
    errors = {}
    for m in (20, 40, 60):
        sub = basis30.truncate(m // 2)
        red = sm.rdh_reduce(bench.system, sub)
        rep = _reduced_run(red.system, bench.config, run_registry,
                           f"sine-gordon-rdh-{m}")
        # the q rows of A dY/dt: E_q dY_q/dt, as E_p = 0
        kin = sm.reduction.kinetic_energy(
            sub.lead[:n] @ red.system.velocity(rep.costates), dx)
        errors[m] = float(np.abs(kin - kin_full).max())
    return {"kinetic_errors": errors, "kinetic_full": kin_full}


@pytest.fixture(scope="session")
def identity_reduction(wave_n100, run_registry):
    """Reduction on the identity basis: must reproduce the full model."""
    bench, _ = wave_n100
    dim = bench.system.dim
    basis = sm.OrthoSymplecticBasis(np.eye(dim)[:, : dim // 2])
    red = sm.rdh_reduce(bench.system, basis)
    dt = bench.config.dt
    full = sm.integrate(bench.system, dt=dt, n_steps=1000, snapshot_stride=10)
    reduced = sm.integrate(red.system, dt=dt, n_steps=1000, snapshot_stride=10)
    run_registry.add("wave-n100-identity-full", full)
    run_registry.add("wave-n100-identity-reduced", reduced)
    return full, reduced
