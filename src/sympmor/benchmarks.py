"""Benchmark systems.

Three families: a dissipative linear wave equation on a periodic grid, the
damped sine-Gordon equation with Dirichlet boundaries, and a driven
resistor-inductor-capacitor ladder network brought to canonical coordinates.
Each builder returns the closed time-dispersive formulation plus the plain
dissipative operators used by the reference baselines. The wave and
sine-Gordon systems share one mechanical closure; the ladder is brought to
canonical form by its own transform.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .dynamics import (DissipativeModel, TddSystem, _Csr, _require_finite,
                       cholesky_factor)
from .symplectic import CanonicalForm


def spline_bump(s):
    """Cubic spline bump: 1 at 0, 1/4 at 1, 0 from 2 on; C^1 everywhere."""
    s = np.abs(np.asarray(s, dtype=float))
    out = np.zeros_like(s)
    inner = s <= 1.0
    out[inner] = 1.0 - 1.5 * s[inner] ** 2 + 0.75 * s[inner] ** 3
    shoulder = (s > 1.0) & (s <= 2.0)
    out[shoulder] = 0.25 * (2.0 - s[shoulder]) ** 3
    return out


@dataclass
class Benchmark:
    """A built system together with the operators that the plain dissipative
    baselines need (H(z) = 0.5 z^T stiffness z, drift matrix R).

    The wave and sine-Gordon benchmarks (and every system built by
    ``_mechanical``) hold ``system.K``, ``system.chi``, ``stiffness`` and
    ``drift`` as CSR matrices; the ladder holds dense arrays.
    ``transform`` maps canonical states to physical coordinates where they
    differ (the ladder's T), else None. ``default_modes`` are the mode
    counts ``compare`` runs and ``build-basis`` writes when none are
    given."""

    name: str
    system: TddSystem
    config: object
    stiffness: np.ndarray | scipy.sparse.csr_array
    drift: np.ndarray | scipy.sparse.csr_array | None
    transform: np.ndarray | None = None
    default_modes: tuple = (20, 40, 60)

    def dissipative_model(self) -> DissipativeModel:
        return DissipativeModel(
            stiffness=self.stiffness,
            drift=self.drift,
            z0=self.system.z0,
            nonlinear_grad=self.system.nonlinear_grad,
            potential=self.system.potential,
            input_vector=self.system.input_vector,
            boundary_vector=self.system.boundary_vector,
            dx=self.system.dx,
            name=f"{self.name}-dissipative",
        )


def _check_fields(config) -> None:
    """Check every field of a benchmark config against its annotation.

    int fields take integers, float fields finite real numbers, str and bool
    fields their own type, and ``| None`` fields also None. The snapshot
    stride, common to every config, must be at least 1. Raises ValueError
    naming the field.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition("|")
        kind = kind.strip()
        if value is None and optional:
            continue
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if kind == "int" and not (real and isinstance(value, numbers.Integral)):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if kind == "float" and not real:
            raise ValueError(f"{f.name} must be a number, got {value!r}")
        if kind == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        if kind == "str" and not isinstance(value, str):
            raise ValueError(f"{f.name} must be a string, got {value!r}")
        if kind == "bool" and not isinstance(value, bool):
            raise ValueError(f"{f.name} must be true or false, got {value!r}")
    if config.snapshot_stride < 1:
        raise ValueError(
            f"snapshot_stride must be at least 1, got {config.snapshot_stride}")


def _mechanical(stiff_q, damping, z0, *, config=None, **terms) -> Benchmark:
    """Damped mechanical system q'' = -S_q q - r q' in both forms.

    The closed form has K = blockdiag(chol S_q, I) and chi = diag(0, r); the
    plain form has stiffness blockdiag(S_q, I) and drift chi. All four are
    CSR matrices, built from ``stiff_q`` (dense or sparse) without a dense
    n x n or 2n x 2n array: the Cholesky factor of a banded S_q, or of a
    periodic one that leaves the band only in its last row and column,
    is taken in band storage (see ``cholesky_factor``). ``damping`` is r,
    one value per coordinate or one for all. ``terms`` go to the
    ``TddSystem``, and their ``name`` names the benchmark.
    """
    stiff_q = _Csr(stiff_q)
    n = stiff_q.shape[0]
    name = terms["name"]
    k_q = cholesky_factor(stiff_q, name=f"{name} stiffness")
    eye = scipy.sparse.identity(n)
    chi = _Csr(scipy.sparse.diags(
        np.concatenate([np.zeros(n), np.broadcast_to(damping, n)])))
    system = TddSystem(_Csr(scipy.sparse.block_diag((k_q, eye))), chi, z0,
                       **terms)
    return Benchmark(name=name, system=system, config=config,
                     stiffness=_Csr(scipy.sparse.block_diag((stiff_q, eye))),
                     drift=chi.copy())


# -- dissipative wave ---------------------------------------------------------


@dataclass
class WaveConfig:
    n: int = 500
    length: float = 1.0
    c2: float = 0.1
    dt: float = 0.002
    t_final: float = 7.5
    damping: str = "ramp"          # "ramp": base + slope*(i/n); "constant"
    ramp_base: float = 0.1
    ramp_slope: float = 0.9
    constant_r: float = 1e-5
    chi_scale: float = 1.0
    # relative shift of the (singular) periodic stiffness, keeping the
    # quadratic form positive definite for the triangular factorization
    regularization: float = 1e-5
    snapshot_stride: int = 5

    def validate(self):
        _check_fields(self)
        if self.n < 3:
            raise ValueError("wave grid needs at least 3 points")
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.dt <= 0 or self.t_final < 0 or self.c2 <= 0:
            raise ValueError("dt and c2 must be positive, t_final nonnegative")
        if self.damping not in ("ramp", "constant"):
            raise ValueError(f"unknown damping profile {self.damping!r}")
        r = self.damping_values()
        if r.min() < 0.0 or r.max() > 1.0:
            raise ValueError("damping values must lie in [0, 1]")

    def damping_values(self) -> np.ndarray:
        if self.damping == "constant":
            return np.full(self.n, float(self.constant_r))
        i = np.arange(self.n)
        return self.ramp_base + self.ramp_slope * (i / self.n)


def build_wave(config: WaveConfig) -> Benchmark:
    config.validate()
    n = config.n
    dx = config.length / n
    x = dx * np.arange(n)

    # periodic forward difference; d^T d is the 3-point second-difference
    # stencil, PSD with the constant vector in its null space
    d = scipy.sparse.diags([-np.ones(n), np.ones(n - 1), [1.0]],
                           [0, 1, 1 - n]) / dx
    lap = d.T @ d
    lap = 0.5 * (lap + lap.T)
    mu = config.regularization * config.c2
    stiff_q = config.c2 * lap + mu * scipy.sparse.identity(n)
    z0 = np.concatenate([spline_bump(10.0 * np.abs(x / config.length - 0.5)),
                         np.zeros(n)])
    return _mechanical(stiff_q, config.chi_scale * config.damping_values(), z0,
                       config=config, dx=dx, name="wave")


# -- sine-Gordon --------------------------------------------------------------


@dataclass
class SineGordonConfig:
    n: int = 500
    length: float = 50.0
    velocity: float = 0.5
    x0: float | None = None        # kink center; default length/4
    bc_left: float = 0.0
    bc_right: float = 1.0
    consistent_bc: bool = False    # replace bc values by the kink's own tails
    r: float = 0.1
    dt: float = 0.02
    t_final: float = 40.0
    chi_scale: float = 1.0
    snapshot_stride: int = 5

    def validate(self):
        _check_fields(self)
        if self.n < 3:
            raise ValueError("grid needs at least 3 interior points")
        if self.length <= 0:
            raise ValueError("length must be positive")
        if not abs(self.velocity) < 1.0:
            raise ValueError("kink speed must satisfy |v| < 1")
        if self.dt <= 0 or self.t_final < 0:
            raise ValueError("dt must be positive, t_final nonnegative")
        if self.r < 0:
            raise ValueError("dissipation coefficient must be nonnegative")


def kink_profile(x, x0: float, velocity: float, t: float = 0.0):
    """Traveling kink interpolating 0 to 2*pi, and its time derivative."""
    gamma = np.sqrt(1.0 - velocity ** 2)
    xi = (np.asarray(x, dtype=float) - x0 - velocity * t) / gamma
    q = 4.0 * np.arctan(np.exp(xi))
    p = -2.0 * (velocity / gamma) / np.cosh(xi)
    return q, p


def build_sine_gordon(config: SineGordonConfig) -> Benchmark:
    config.validate()
    n = config.n
    # interior nodes of a Dirichlet grid
    dx = config.length / (n + 1)
    x = dx * np.arange(1, n + 1)

    lap = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1],
                             shape=(n, n)) / dx ** 2
    x0 = config.length / 4.0 if config.x0 is None else config.x0
    q0, p0 = kink_profile(x, x0, config.velocity)
    z0 = np.concatenate([q0, p0])

    if config.consistent_bc:
        left, _ = kink_profile(np.array([0.0]), x0, config.velocity)
        right, _ = kink_profile(np.array([config.length]), x0, config.velocity)
        a, b = float(left[0]), float(right[0])
    else:
        a, b = config.bc_left, config.bc_right
    bd = np.zeros(n)
    bd[0] = a / dx ** 2
    bd[-1] = b / dx ** 2
    boundary = np.concatenate([bd, np.zeros(n)])

    def potential(q):
        return np.sum(1.0 - np.cos(q), axis=0)

    return _mechanical(lap, config.chi_scale * config.r, z0, config=config,
                       nonlinear_grad=np.sin, potential=potential,
                       boundary_vector=boundary, dx=dx, name="sine-gordon")


# -- ladder network -----------------------------------------------------------


@dataclass
class LadderConfig:
    cells: int = 50
    capacitance: float = 1.0
    inductance: float = 1.0
    resistance: float = 0.2
    load_resistance: float = 0.4
    drive: float = 1.0
    dt: float = 0.01
    t_final: float = 50.0
    chi_scale: float = 1.0
    snapshot_stride: int = 1

    def validate(self):
        _check_fields(self)
        if self.cells < 1:
            raise ValueError("ladder needs at least one cell")
        if self.capacitance <= 0 or self.inductance <= 0:
            raise ValueError("capacitance and inductance must be positive")
        if self.resistance < 0 or self.load_resistance < 0:
            raise ValueError("resistances must be nonnegative")
        if self.dt <= 0 or self.t_final < 0:
            raise ValueError("dt must be positive, t_final nonnegative")


def skew_to_canonical(skew: np.ndarray, tol: float = 1e-10):
    """Congruence transform T with T^{-1} S T^{-T} = canonical J.

    Real Schur decomposition of the skew-symmetric S gives an orthogonal U
    and 2x2 blocks lam_b * [[0,1],[-1,0]]; scaling each pair of columns by
    sqrt(lam_b) and permuting interleaved pairs to (all-q, all-p) order
    yields T. Returns (T, T^{-1}, lam).

    Raises on numerically singular or non-skew input.
    """
    skew = np.asarray(skew, dtype=float)
    dim = skew.shape[0]
    if skew.shape != (dim, dim) or dim % 2:
        raise ValueError(f"need a square even-dimensional matrix, got {skew.shape}")
    scale = max(1.0, float(np.abs(skew).max()))
    if np.abs(skew + skew.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not skew-symmetric")
    half = dim // 2
    canonical = CanonicalForm(half).matrix()
    if np.array_equal(skew, canonical):
        return np.eye(dim), np.eye(dim), np.ones(half)

    s, u = scipy.linalg.schur(skew, output="real")
    lam = np.empty(half)
    for b in range(half):
        i = 2 * b
        val = s[i, i + 1]
        if val < 0.0:
            u[:, [i, i + 1]] = u[:, [i + 1, i]]
            val = -val
        lam[b] = val
    if lam.min() <= tol * max(lam.max(), 1.0):
        raise ValueError("skew matrix is numerically singular")
    # blocks must exhaust the matrix: everything off the 2x2 diagonal ~ 0
    block = np.zeros((dim, dim))
    for b in range(half):
        i = 2 * b
        block[i, i + 1] = lam[b]
        block[i + 1, i] = -lam[b]
    if np.abs(u.T @ skew @ u - block).max() > tol * scale:
        raise ValueError("Schur form has entries outside the 2x2 blocks")

    w = np.repeat(np.sqrt(lam), 2)
    perm = np.concatenate([np.arange(0, dim, 2), np.arange(1, dim, 2)])
    t = (u * w)[:, perm]
    t_inv = ((u / w)[:, perm]).T
    return t, t_inv, lam


def build_ladder(config: LadderConfig) -> Benchmark:
    config.validate()
    m = config.cells
    dim = 2 * m

    skew = np.diag(np.ones(dim - 1), 1) - np.diag(np.ones(dim - 1), -1)
    # interleaved physical state (charge_1, flux_1, ..., charge_m, flux_m)
    q_diag = np.empty(dim)
    q_diag[0::2] = 1.0 / config.capacitance
    q_diag[1::2] = 1.0 / config.inductance
    r_diag = np.zeros(dim)
    r_diag[1::2] = config.resistance
    r_diag[-1] += config.load_resistance
    u_phys = np.zeros(dim)
    u_phys[0] = config.drive

    t, t_inv, _ = skew_to_canonical(skew)
    k = q_diag[:, None] * t                  # Q T, the canonical stiffness factor
    chi = np.diag(config.chi_scale * q_diag ** 2 * r_diag)
    u_canonical = t_inv @ u_phys

    system = TddSystem(k, chi, np.zeros(dim), input_vector=u_canonical,
                       dx=1.0, name="ladder")

    stiffness = k.T @ k
    stiffness = 0.5 * (stiffness + stiffness.T)
    # dissipative-form drift in canonical coordinates: T^{-1} (R Q^T Q) T
    drift = t_inv @ (chi @ t)
    return Benchmark(
        name="ladder", system=system, config=config,
        stiffness=stiffness, drift=drift,
        transform=t, default_modes=(10, 20, 30),
    )


# -- registry -----------------------------------------------------------------


_REGISTRY = {
    "wave": (WaveConfig, build_wave, {}),
    "wave-lowdiss": (WaveConfig, build_wave,
                     {"damping": "constant", "constant_r": 1e-5}),
    "sine-gordon": (SineGordonConfig, build_sine_gordon, {}),
    "ladder": (LadderConfig, build_ladder, {}),
}


def benchmark_names():
    return sorted(_REGISTRY)


def _entry(name: str):
    """Config class, builder and preset of a named benchmark."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {benchmark_names()}"
        )
    return _REGISTRY[name]


def make_config(name: str, overrides: dict | None = None):
    """Config dataclass for a named benchmark with overrides applied.

    Unknown keys raise ValueError (typo protection for CLI --set paths).
    """
    cls, _, preset = _entry(name)
    values = dict(preset)
    values.update(overrides or {})
    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = set(values) - valid
    if unknown:
        raise ValueError(
            f"unknown config keys for {name}: {sorted(unknown)}; "
            f"valid keys: {sorted(valid)}"
        )
    return cls(**values)


def build_benchmark(name: str, config=None) -> Benchmark:
    cls, builder, _ = _entry(name)
    if config is None:
        config = make_config(name)
    if not isinstance(config, cls):
        raise TypeError(f"{name} expects a {cls.__name__}")
    # a config value that overflows an operator leaves a non-finite entry:
    # cholesky_factor and TddSystem reject one in K or chi, and the loop
    # below one in the baselines' stiffness or drift, each by name
    with np.errstate(all="ignore"):
        built = builder(config)
    for what, op in (("stiffness", built.stiffness), ("drift", built.drift)):
        if op is not None:
            _require_finite(op, f"{name} {what}")
    built.name = name   # registry name wins (wave-lowdiss keeps its identity)
    return built
