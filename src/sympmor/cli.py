"""Command-line harness.

Subcommands build benchmark systems, integrate full and reduced models,
generate reduction bases, compare methods across mode counts, and verify
emitted artifacts. All outputs are deterministic for a fixed configuration:
CSV tables with 17-significant-digit floats, MatrixMarket arrays, and a JSON
manifest with SHA-256 hashes of every artifact.

Exit codes: 0 success, 2 configuration errors, 3 numerical failure (a
run whose state, energy or residual became non-finite; the command writes
nothing).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import benchmarks, dynamics, reduction, storage
from .dynamics import NonFiniteError
from .symplectic import (OrthoSymplecticBasis, _greedy_start, cotangent_lift,
                         greedy_basis, pod_basis)

SYMPLECTIC_METHODS = ("greedy", "cotangent")


class ConfigError(Exception):
    """Invalid configuration or arguments; maps to exit code 2."""


# -- configuration plumbing ---------------------------------------------------


def _parse_set_item(item: str):
    key, sep, raw = item.partition("=")
    if not sep:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def resolve_config(args):
    """Benchmark name and config: the --benchmark defaults, then each
    --set override in order."""
    overrides = dict(_parse_set_item(item) for item in args.set or [])
    try:
        return args.benchmark, benchmarks.make_config(args.benchmark,
                                                      overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build(args) -> benchmarks.Benchmark:
    """The benchmark the command line selects, built; its builder validates
    the config."""
    name, config = resolve_config(args)
    try:
        return benchmarks.build_benchmark(name, config)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def _parse_modes(text: str | None, default: list[int]) -> list[int]:
    if text is None:
        return list(default)
    try:
        modes = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"mode list must be integers, got {text!r}") from None
    if not modes or any(m < 1 for m in modes):
        raise ConfigError(f"mode counts must be positive, got {text!r}")
    return sorted(set(modes))


def _require_even(modes, what: str):
    odd = [m for m in modes if m % 2]
    if odd:
        raise ConfigError(f"{what} requires even mode counts, got {odd}")


def _read_input(read, path):
    """``read(path)`` of an input file; a missing file, or one the reader
    rejects, is a configuration error that names the path once."""
    try:
        return read(path)
    except (FileNotFoundError, IsADirectoryError) as exc:
        raise ConfigError(f"input file not found: {exc.filename or path}") \
            from None
    except ValueError as exc:
        message = str(exc)
        raise ConfigError(message if str(path) in message
                          else f"{path}: {message}") from None


def _basis_from_file(path, method: str):
    """Load a basis written by build-basis and check it the way build-basis
    does before it writes: a POD basis (for ``method`` pod) must have
    orthonormal columns, any other an ortho-symplectic column pairing."""
    a = _read_input(storage.read_matrix, path)
    if not np.isfinite(a).all():
        raise ConfigError(f"{path}: basis has a non-finite entry")
    if method == "pod":
        if not a.shape[1] or a.shape[1] % 2:
            raise ConfigError(f"{path}: a POD basis needs at least one "
                              f"column and an even column count, got shape "
                              f"{a.shape}")
        gram = np.abs(a.T @ a - np.eye(a.shape[1])).max()
        if gram > 1e-10:
            raise ConfigError(f"{path}: POD basis not orthonormal: "
                              f"|V^T V - I|_max = {gram:.3e}")
        return a
    if a.ndim != 2 or a.shape[0] % 2 or a.shape[1] % 2 or not a.shape[1]:
        raise ConfigError(f"{path}: expected an even number of rows and a "
                          f"positive even number of basis columns, got "
                          f"shape {a.shape}")
    basis = OrthoSymplecticBasis(a[:, : a.shape[1] // 2])
    if np.abs(basis.matrix - a).max() > 1e-12:
        raise ConfigError(
            f"{path}: columns are not paired (column k+i must be J^T "
            f"applied to column i)"
        )
    try:
        basis.validate(tol=1e-10)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return basis


# -- subcommands --------------------------------------------------------------


@contextmanager
def _stage(stages: dict, key: str):
    """Add the wall seconds of the ``with`` block, one that raises
    included, to ``stages[key]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stages[key] = stages.get(key, 0.0) + time.perf_counter() - t0


def _on_grid(run, *args, config):
    """``run(*args)`` on the time grid of ``config``; a grid the run cannot
    hold (see :func:`dynamics._drive`) is a configuration error."""
    try:
        return run(*args, dt=config.dt, t_final=config.t_final,
                   snapshot_stride=config.snapshot_stride)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _integrate_full(bench, greedy: bool = False):
    """The full run of ``bench``. With ``greedy``, a greedy basis is to be
    built from its snapshots, so a run at rest is rejected before it is
    integrated, by the rule greedy_basis applies to the first snapshot."""
    if greedy:
        try:
            _greedy_start(bench.system.z0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return _on_grid(dynamics.integrate, bench.system, config=bench.config)


def _write_manifest(args, bench, files, warnings, **extra) -> None:
    """The manifest of a command's artifacts under --out: the command, the
    benchmark's name and config, the seed, the warnings, and the command's
    own entries ``extra``."""
    out = Path(args.out)
    manifest = storage.build_manifest(
        args.command, bench.name, dataclasses.asdict(bench.config), files,
        out, extra={"seed": args.seed, "warnings": warnings, **extra})
    storage.write_manifest(manifest, out / "manifest.json")


def _end_warnings(report, config) -> list[str]:
    """Manifest warnings for a t_final off the step grid, which the run
    rounds to the nearest whole number of steps, and for a last step that
    is not a snapshot node."""
    end = float(report.times[-1])
    warnings = []
    if abs(end - config.t_final) > 1e-9 * report.dt:
        warnings.append(
            f"t_final {config.t_final!r} is not a whole number of steps of "
            f"dt {report.dt!r}: the run ends at t = {end:.12g} after "
            f"{report.n_steps} steps")
    if report.n_steps % config.snapshot_stride:
        warnings.append(
            f"{report.n_steps} steps are not a multiple of snapshot_stride "
            f"{config.snapshot_stride}: the last snapshot is at t = "
            f"{float(report.snapshots.times[-1]):.12g}, the run ends at "
            f"t = {end:.12g}")
    return warnings


def _step_radius(step_map) -> float | None:
    """The spectral radius of a step map; None for a stepped or RK4 run."""
    return None if step_map is None else reduction.spectral_radius(step_map)


def _stability_warnings(radii: dict) -> list[str]:
    """Manifest warnings, by cell name, for reduced models whose step map
    has a spectral radius past 1 + 1e-9: its linear part grows
    exponentially. Stable maps measure at most 1 + 3e-15, those of runs
    that blow up 2.1 and more."""
    return [f"{key}: step_radius {value:.6g} > 1, the linear step map "
            f"grows exponentially" for key, value in radii.items()
            if value is not None and value > 1.0 + 1e-9]


def cmd_run_full(args) -> int:
    bench = _build(args)
    out = Path(args.out)
    stages = {}
    with _stage(stages, "full_solve"):
        report = _integrate_full(bench)
    with _stage(stages, "write"):
        files = [storage.write_report_csv(report, out / "full_report.csv")]
        files += storage.write_snapshots(report.snapshots,
                                         out / "snapshots.mtx")
    _write_manifest(args, bench, files, _end_warnings(report, bench.config),
                    n_steps=report.n_steps, volterra_max=report.volterra_max,
                    kz_max=report.kz_max, wall_seconds=report.wall_seconds,
                    stages=stages)
    print(f"run-full {bench.name}: {report.n_steps} steps, "
          f"H {report.hamiltonian[0]:.6g} -> {report.hamiltonian[-1]:.6g}, "
          f"max |residual| {report.volterra_max:.3e} -> {out}")
    return 0


def _collect_snapshots(args, bench):
    """Snapshots for basis generation, from file or a fresh full run, and
    the run's manifest warnings. A snapshot file that is malformed, holds a
    non-finite entry or has states of another dimension than the benchmark
    is a configuration error."""
    if args.snapshots:
        path = args.snapshots
        snapshots = _read_input(storage.read_snapshots, path)
        if snapshots.dim != bench.system.dim:
            raise ConfigError(
                f"{path}: states of dimension {snapshots.dim}, but "
                f"{bench.name} has state dimension {bench.system.dim}")
        if not (np.isfinite(snapshots.states).all()
                and np.isfinite(snapshots.times).all()):
            raise ConfigError(f"{path}: snapshots have a non-finite entry")
        return snapshots, []
    report = _integrate_full(bench, greedy=args.method == "greedy")
    return report.snapshots, _end_warnings(report, bench.config)


def _make_basis(method: str, snapshots, modes: int):
    """Basis of ``modes`` columns (``modes // 2`` pairs for a symplectic
    method), its per-mode diagnostic values (greedy errors or singular
    values) and the method's extra manifest info. Snapshots of too low a
    rank for ``modes`` columns, or of rank zero (a run at rest), are a
    configuration error."""
    try:
        if method == "greedy":
            result = greedy_basis(snapshots, modes // 2)
            return (result.basis, result.worst_errors,
                    {"selected": result.selected})
        if method == "cotangent":
            return (*cotangent_lift(snapshots, modes // 2), {})
        return (*pod_basis(snapshots, modes), {})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_build_basis(args) -> int:
    bench = _build(args)
    out = Path(args.out)
    method = args.method
    modes = _parse_modes(args.modes, bench.default_modes)
    _require_even(modes, f"{method} basis")
    stages = {}
    with _stage(stages, "snapshots"):
        snapshots, warnings = _collect_snapshots(args, bench)
    with _stage(stages, "basis"):
        basis, values, info = _make_basis(method, snapshots, max(modes))
    info.update(method=method, modes=modes)
    files = []
    with _stage(stages, "write"):
        if method in SYMPLECTIC_METHODS:
            checks = {}
            for m in modes:
                sub = basis.truncate(m // 2)
                sub.validate(tol=1e-10)
                checks[str(m)] = "pass"
                files.append(storage.write_matrix(out / f"basis_k{m}.mtx",
                                                  sub.matrix))
            info["invariant_check"] = checks
            value_kind = ("greedy_worst_error" if method == "greedy"
                          else "stacked_singular_value")
        else:
            for m in modes:
                files.append(storage.write_matrix(out / f"basis_k{m}.mtx",
                                                  basis[:, :m]))
            value_kind = "singular_value"
        info["values_kind"] = value_kind
        files.append(storage.write_csv(
            out / "singular_values.csv",
            ["index", "value"],
            [np.arange(len(values)), np.asarray(values)],
        ))
    _write_manifest(args, bench, files, warnings, basis=info, stages=stages)
    print(f"build-basis {bench.name} [{method}]: modes {modes} -> {out}")
    return 0


def cmd_reduce(args) -> int:
    bench = _build(args)
    out = Path(args.out)
    basis = _basis_from_file(args.basis, "rdh")
    m = basis.n_columns
    stages = {}
    with _stage(stages, "reduce"):
        system = _project(bench, basis, "rdh").system
    # two steps build the step map, at node 1; a dt whose implicit stage
    # is singular is a configuration error
    with _stage(stages, "integrate"):
        try:
            step_map = dynamics.integrate(system, bench.config.dt,
                                          n_steps=2).step_map
        except NonFiniteError as exc:
            step_map = exc.step_map
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    radius = _step_radius(step_map)
    with _stage(stages, "write"):
        files = [storage.write_matrix(out / f"reduced_{part}_k{m}.mtx", value)
                 for part, value in (("K", system.K), ("chi", system.chi),
                                     ("z0", system.z0),
                                     ("input", system.input_vector),
                                     ("boundary", system.boundary_vector))
                 if value is not None]
    _write_manifest(args, bench, files,
                    _stability_warnings({f"rdh_k{m}": radius}),
                    reduction={"modes": m}, step_radius=radius,
                    stages=stages)
    print(f"reduce {bench.name}: {m} modes -> {out}")
    return 0


def _project(bench, mapper, method: str, model=None):
    """Reduced model of one method: a ReducedTdd for rdh, else a baseline
    projected from ``model`` (the benchmark's dissipative model when None).
    A basis that does not fit the model is a configuration error."""
    try:
        if method == "rdh":
            return reduction.rdh_reduce(bench.system, mapper)
        if model is None:
            model = bench.dissipative_model()
        if method == "psd":
            return reduction.psd_baseline(model, mapper)
        return reduction.pod_baseline(model, mapper)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise ConfigError(f"reduction failed: {exc}") from None


def _run_reduced(reduced, config, method: str):
    """Integrate one projected model; returns (report, lift), the lift the
    basis matrix that maps its reduced coordinates back to the full space."""
    if method == "rdh":
        return (_on_grid(dynamics.integrate, reduced.system, config=config),
                reduced.basis.matrix)
    if method == "psd":
        return (_on_grid(dynamics.integrate_dissipative, reduced.model,
                         config=config), reduced.basis.matrix)
    return (_on_grid(dynamics.integrate_rk4, reduced.rhs, reduced.y0,
                     config=config), reduced.v)


def cmd_run_reduced(args) -> int:
    bench = _build(args)
    out = Path(args.out)
    mapper = _basis_from_file(args.basis, args.method)
    stages = {}
    with _stage(stages, "reduce"):
        reduced = _project(bench, mapper, args.method)
    with _stage(stages, "integrate"):
        report, lift = _run_reduced(reduced, bench.config, args.method)
    m = lift.shape[1]
    key = f"{args.method}_k{m}"
    with _stage(stages, "write"):
        recon = reduction.reconstruct(lift, report.snapshots)
        files = [storage.write_report_csv(report,
                                          out / f"reduced_report_k{m}.csv")]
        files += storage.write_snapshots(recon,
                                         out / f"reconstructed_k{m}.mtx")
    radius = _step_radius(report.step_map)
    warnings = (_end_warnings(report, bench.config)
                + _stability_warnings({key: radius}))
    _write_manifest(args, bench, files, warnings,
                    reduced_run={"method": args.method, "modes": m,
                                 "wall_seconds": report.wall_seconds},
                    step_radius=radius, stages=stages)
    print(f"run-reduced {bench.name} [{args.method}, {m} modes]: "
          f"{report.n_steps} steps -> {out}")
    return 0


# -- compare ------------------------------------------------------------------


@dataclasses.dataclass
class _Projection:
    """The full snapshots X seen through a compare basis A with orthonormal
    columns, what every cell on that basis takes its error from.

    For a reference state x and a lifted reduced state A y,
    ||x - A y||^2 = ||x - A A^T x||^2 + ||A^T x - y||^2: the basis's
    projection floor, the same for every method, and the drift of the
    reduced dynamics, in the basis's own coordinates. So a cell's error
    needs no lift, only ``coords``, C = A^T X, and ``floor2``, the squared
    floor of each snapshot, the column sums of (X - A C)^2.
    """

    coords: np.ndarray
    floor2: np.ndarray

    def truncate(self, method: str, m: int) -> "_Projection":
        """The projection onto the columns of A that make up the basis of an
        m-mode cell of ``method``: POD's leading m, the first m/2 of each
        half of a symplectic basis [E | J^T E]. A row of C outside them adds
        its square to the floor, a sum that cannot cancel."""
        half = len(self.coords) // 2
        rows = (np.arange(m) if method == "pod"
                else np.r_[0:m // 2, half:half + m // 2])
        outside = np.ones(len(self.coords), dtype=bool)
        outside[rows] = False
        rest = self.coords[outside]
        return _Projection(
            coords=self.coords[rows],
            floor2=self.floor2 + np.einsum("ij,ij->j", rest, rest))


def _projection(lift, states) -> _Projection:
    """The :class:`_Projection` of the snapshots ``states`` through the
    basis matrix ``lift``, with one lift A C, made and differenced in
    place."""
    coords = lift.T @ states
    resid = lift @ coords
    np.subtract(states, resid, out=resid)   # X - A C
    floor2 = np.einsum("ij,ij->j", resid, resid)
    return _Projection(coords=coords, floor2=floor2)


@dataclasses.dataclass
class _Reference:
    """The full run every compare cell is measured against: its energy H on
    the snapshot grid and its scale max(max_t |H|, 1e-300), the weighted
    norms of its snapshots X, T X on a benchmark with a canonical transform
    T, the :class:`_Projection` of X through each compare basis by key
    ("sym", "pod"), and the run's wall seconds."""

    energy: np.ndarray
    energy_scale: float
    norms: np.ndarray
    transformed: np.ndarray | None
    projections: dict
    wall_seconds: float

    @classmethod
    def of(cls, bench, full, bases: dict) -> "_Reference":
        """The reference of ``bench``'s full run through ``bases``."""
        states = full.snapshots.states
        energy = bench.system.hamiltonian(states)
        return cls(
            energy=energy,
            energy_scale=max(float(np.abs(energy).max()), 1e-300),
            norms=reduction.weighted_norms(states, bench.system.dx),
            transformed=(None if bench.transform is None
                         else bench.transform @ states),
            projections={key: _projection(lift, states)
                         for key, lift in bases.items()},
            wall_seconds=full.wall_seconds)


def _compare_cell(bench, method, mapper, reference, model, stages):
    """One (method, mode-count) comparison cell, measured against the
    :class:`_Reference` ``reference``: its manifest summary and its table
    columns by prefix, or None for the columns of a run that blew up. The
    wall seconds of its reduction, run and measurement go to ``stages``.

    A cell is flagged unstable when its run fails, at the first node whose
    state, energy or residual is non-finite, or when the energy error of
    its lifted states shows sustained terminal growth or overflows;
    the spectral abscissa of the baseline generators is recorded as an
    additional diagnostic, and so is the step_radius of each run's step
    map, failed runs included (None for pod's RK4 runs). A cell that ran
    also records its speedup, the full run's wall time over its own, its
    floor_max and drift_max, the two parts of its error normalized as
    max_relative is, and an rdh cell its hext_drift,
    max_t |H_ext(t) - H_ext(0)| over max_t |H_full(t)| on the snapshot grid.

    The columns are the error and the energy of the lifted states on the
    snapshot grid, both computed in reduced coordinates, the string and
    extended energy of an rdh run, the kinetic energy of a model with a
    potential, from its lifted velocities' q rows (rdh and psd from their
    model's ``velocity``), and the time-averaged error per component of a
    benchmark with a canonical transform (the ladder's),
    mean |T X - (T A) Y|.
    """
    config, dx = bench.config, bench.system.dx
    cell: dict = {"unstable": False}
    with _stage(stages, "reduce"):
        reduced = _project(bench, mapper, method, model)
    with _stage(stages, "measure"):
        if method != "rdh":   # the linear generator of a baseline model
            cell["abscissa"] = reduction.spectral_abscissa(
                reduced.model.linear_operator() if method == "psd"
                else reduced.matrix)
    try:
        with _stage(stages, "integrate"):
            report, lift = _run_reduced(reduced, config, method)
    except NonFiniteError as exc:
        cell["step_radius"] = _step_radius(exc.step_map)
        cell["unstable"] = True
        cell["failure_step"] = exc.step
        cell["max_error"] = cell["mean_error"] = cell["energy_error"] = \
            float("inf")
        return cell, None
    cell["step_radius"] = _step_radius(report.step_map)
    with _stage(stages, "measure"):
        y = report.snapshots.states
        proj = reference.projections["pod" if method == "pod" else "sym"]
        proj = proj.truncate(method, lift.shape[1])
        # a finite reduced state can lift to an energy or error past
        # floating point range; terminal_growth flags that cell as unstable
        with np.errstate(over="ignore", invalid="ignore"):
            drift = proj.coords - y                    # A^T X - Y
            drift2 = np.einsum("ij,ij->j", drift, drift)
            # freed before the energy and component temporaries: on the
            # ladder (30 x 5001) keeping it raises the compare's peak RSS by
            # 1.2 MB
            del drift
            err = reduction.TrajectoryError.from_squares(
                proj.floor2 + drift2, reference.norms, dx)
            energy = bench.system.hamiltonian(y, lift)
        cell["max_error"] = err.max_weighted
        cell["mean_error"] = err.mean_weighted
        cell["max_relative"] = err.max_relative
        cell["mean_relative"] = err.mean_relative
        for part, squares in (("floor_max", proj.floor2),
                              ("drift_max", drift2)):
            cell[part] = reduction.TrajectoryError.from_squares(
                squares, reference.norms, dx).max_relative
        scale = reference.energy_scale
        gap = np.abs(energy - reference.energy)
        cell["energy_error"] = float(gap.mean()) / scale
        cell["energy_growth"] = reduction.terminal_growth(gap)
        if cell["energy_growth"]:
            cell["unstable"] = True
        cell["volterra_max"] = report.volterra_max
        cell["kz_max"] = report.kz_max
        cell["wall_seconds"] = report.wall_seconds
        cell["speedup"] = reference.wall_seconds / report.wall_seconds
        columns = {"err": err.per_instant, "H": energy}
        if method == "rdh":
            hext = report.extended_energy[::config.snapshot_stride]
            cell["hext_drift"] = float(np.abs(hext - hext[0]).max()) / scale
            columns["Estring"] = report.string_energy[::config.snapshot_stride]
            columns["Hext"] = hext
        if bench.system.potential is not None:
            n = bench.system.n
            if method == "pod":
                rates = lift[:n] @ report.derivatives
            else:   # A_q = [E_q, 0] on the cotangent basis a potential needs
                rates = mapper.lead[:n] @ (
                    reduced.system.velocity(report.costates)
                    if method == "rdh" else reduced.model.velocity(y))
            columns["kinetic"] = reduction.kinetic_energy(rates, dx)
        if reference.transformed is not None:
            # interleaved charge/flux coordinates recovered through the
            # transform: T X - (T A) Y, in place
            diff = (bench.transform @ lift) @ y
            np.subtract(reference.transformed, diff, out=diff)
            columns["avg"] = np.abs(diff, out=diff).mean(axis=1)
    return cell, columns


def cmd_compare(args) -> int:
    bench = _build(args)
    name, config = bench.name, bench.config
    out = Path(args.out)
    methods = [m.strip() for m in (args.methods or "rdh,psd,pod").split(",")
               if m.strip()]
    unknown = [m for m in methods if m not in ("rdh", "psd", "pod")]
    if unknown:
        raise ConfigError(f"unknown methods {unknown}; valid: rdh, psd, pod")
    if not methods:
        raise ConfigError(f"--methods {args.methods!r} names no method; "
                          f"valid: rdh, psd, pod")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ConfigError(f"--methods repeats {', '.join(repeated)}")
    modes = _parse_modes(args.modes, bench.default_modes)
    _require_even(modes, "compare")
    paired = "rdh" in methods or "psd" in methods
    # the symplectic basis generator, recorded only when a cell uses it
    basis_method = (args.basis_method or "cotangent") if paired else None
    if basis_method == "greedy" and bench.system.nonlinear_grad is not None:
        raise ConfigError(
            f"a greedy basis mixes q and p, so rdh and psd cannot reduce the "
            f"nonlinear {name} model onto it; use --basis-method cotangent")

    stages = {}
    top = max(modes)
    with _stage(stages, "full_solve"):
        full = _integrate_full(bench, basis_method == "greedy")
    bases = {}
    if paired:
        with _stage(stages, "basis"):
            sym_basis, _, _ = _make_basis(basis_method, full.snapshots, top)
        bases["sym"] = sym_basis.matrix
    if "pod" in methods:
        with _stage(stages, "pod_basis"):
            pod_v, _, _ = _make_basis("pod", full.snapshots, top)
        bases["pod"] = pod_v
    with _stage(stages, "measure"):
        reference = _Reference.of(bench, full, bases)
    # the baselines all project one dissipative model
    model = (bench.dissipative_model()
             if "psd" in methods or "pod" in methods else None)

    # (file, headers, columns, column prefixes of each cell); a cell adds
    # one column per prefix, a blown-up cell a NaN column, and only rdh
    # cells have string and extended energy
    times = full.snapshots.times
    stride = config.snapshot_stride
    tables = [
        ("errors.csv", ["t"], [times], ("err",)),
        ("energy.csv", ["t", "H_full", "Estring_full", "Hext_full"],
         [times, reference.energy, full.string_energy[::stride],
          full.extended_energy[::stride]], ("H", "Estring", "Hext")),
    ]
    if bench.system.potential is not None:
        kinetic = reduction.kinetic_energy(
            bench.system.velocity(full.costates), bench.system.dx)
        tables.append(("kinetic.csv", ["t", "kinetic_full"],
                       [times, kinetic], ("kinetic",)))
    if bench.transform is not None:   # time-averaged error per component
        tables.append(("component_errors.csv", ["component"],
                       [np.arange(bench.system.dim)], ("avg",)))

    summary, flagged = {}, []
    for method in methods:
        for m in modes:
            key = f"{method}_k{m}"
            mapper = (pod_v[:, :m] if method == "pod"
                      else sym_basis.truncate(m // 2))
            summary[key], cols = _compare_cell(bench, method, mapper,
                                               reference, model, stages)
            if summary[key]["unstable"]:
                flagged.append(key)
            for _, headers, columns, prefixes in tables:
                for prefix in prefixes:
                    if method != "rdh" and prefix in ("Estring", "Hext"):
                        continue
                    headers.append(f"{prefix}_{key}")
                    columns.append(np.full(len(columns[0]), np.nan)
                                   if cols is None else cols[prefix])
    del reference   # free the projections and T X before the tables
    with _stage(stages, "write"):
        files = [storage.write_csv(out / file, headers, columns)
                 for file, headers, columns, _ in tables]

    radii = {key: cell["step_radius"] for key, cell in summary.items()}
    warnings = _end_warnings(full, config) + _stability_warnings(radii)
    _write_manifest(args, bench, files, warnings, methods=methods,
                    modes=modes, basis_method=basis_method, cells=summary,
                    full_run={"wall_seconds": full.wall_seconds,
                              "volterra_max": full.volterra_max,
                              "kz_max": full.kz_max},
                    stages=stages)
    note = f", unstable: {', '.join(flagged)}" if flagged else ""
    print(f"compare {name}: {len(methods) * len(modes)} cells "
          f"({', '.join(methods)}; modes {modes}){note} -> {out}")
    return 0


def cmd_check(args) -> int:
    n_files, problems = _read_input(storage.verify_manifest,
                                    Path(args.manifest))
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        print(f"check: {len(problems)} of {n_files} artifacts failed")
        return 2
    print(f"check: all {n_files} artifacts verified")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympmor",
        description="Structure-preserving model order reduction benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--benchmark", required=True,
                        choices=benchmarks.benchmark_names(),
                        help="benchmark system to build")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="config override of a benchmark default; "
                             "repeatable, the last one of a key wins")
    common.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default: %(default)s)")
    common.add_argument("--seed", type=int, default=0,
                        help="recorded in the manifest; the pipeline itself "
                             "is deterministic")

    p = sub.add_parser("run-full", parents=[common],
                       help="integrate the full model, write report, "
                            "snapshots and manifest")
    p.set_defaults(func=cmd_run_full)

    p = sub.add_parser("build-basis", parents=[common],
                       help="build reduction bases from snapshots")
    p.add_argument("--method", choices=["greedy", "cotangent", "pod"],
                   default="greedy")
    p.add_argument("--modes", metavar="LIST",
                   help="comma-separated mode counts (default: the "
                        "benchmark's own, as in compare)")
    p.add_argument("--snapshots", metavar="PATH.mtx",
                   help="reuse snapshots from a previous run-full instead of "
                        "integrating")
    p.set_defaults(func=cmd_build_basis)

    p = sub.add_parser("reduce", parents=[common],
                       help="project the model onto a basis and write the "
                            "reduced operators")
    p.add_argument("--basis", required=True, metavar="PATH.mtx")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("run-reduced", parents=[common],
                       help="integrate a reduced model and write the "
                            "reconstructed trajectory")
    p.add_argument("--basis", required=True, metavar="PATH.mtx")
    p.add_argument("--method", choices=["rdh", "psd", "pod"], default="rdh")
    p.set_defaults(func=cmd_run_reduced)

    p = sub.add_parser("compare", parents=[common],
                       help="run full and reduced models across methods and "
                            "mode counts; write error/energy tables")
    p.add_argument("--methods", metavar="LIST",
                   help="subset of rdh,psd,pod (default all)")
    p.add_argument("--modes", metavar="LIST",
                   help="comma-separated mode counts (default: the "
                        "benchmark's own, 10,20,30 for a ladder and "
                        "20,40,60 otherwise)")
    p.add_argument("--basis-method", choices=["greedy", "cotangent"],
                   help="symplectic basis generator (default cotangent)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check", help="verify artifact hashes in a manifest")
    p.add_argument("--manifest", required=True, metavar="PATH.json")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
