"""Stage clocks, correctness gate and metrics for one workload.

A *pass* runs the user's path in-process: ``sympmor compare ...`` followed by
``sympmor check --manifest ...``, both through ``sympmor.cli.main``. The
stages are timed from outside: :class:`Instrument` replaces the public
functions of ``benchmarks``, ``dynamics``, ``symplectic``, ``reduction`` and
``storage`` where ``cli`` looks them up (``greedy_basis``, ``cotangent_lift``
and ``pod_basis`` are bound by name in ``cli``; the rest are module
attributes) with wrappers that record spans, and restores them afterwards.

Plain passes install only the coarse stage clocks (a few dozen spans per
pass). Traced passes add fine spans: one per integrator step, per
``hamiltonian`` call, per nonlinear-gradient call and per basis ``lift``.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import random
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sympmor import benchmarks, cli, dynamics, reduction, storage, symplectic

from spans import END, NAME, PARENT, START, TAG, Tracer, ancestors, self_times


class HarnessError(RuntimeError):
    """The instrumentation saw a call pattern it cannot account for."""


# -- metric tables ------------------------------------------------------------

END_TO_END = {
    "setup_s": "s", "full_solve_s": "s", "offline_s": "s", "online_s": "s",
    "rdh_query_s": "s", "post_s": "s", "artifacts_s": "s", "pipeline_s": "s",
    "peak_rss_mb": "MB", "rdh_max_rel_error": "ratio",
}

PER_LAYER = {
    "benchmarks.build_s": "s",
    "benchmarks.cholesky_s": "s",
    "dynamics.validate_s": "s",
    "benchmarks.operator_bytes": "bytes",
    "dynamics.full_steps": "count",
    "dynamics.full_step_us.p50": "us",
    "dynamics.full_step_us.p99": "us",
    "dynamics.stepper_setup_s": "s",
    "dynamics.full_step_bytes": "bytes",
    "dynamics.full_loop_s": "s",
    "dynamics.rdh_step_us.p50": "us",
    "dynamics.rdh_step_us.p99": "us",
    "dynamics.psd_step_us.p50": "us",
    "dynamics.psd_step_us.p99": "us",
    "dynamics.pod_step_us.p50": "us",
    "dynamics.pod_step_us.p99": "us",
    "dynamics.reduced_steps": "count",
    "dynamics.reduced_loop_s": "s",
    "dynamics.nonlinear_grad_calls.full": "count",
    "dynamics.nonlinear_grad_calls.reduced": "count",
    "dynamics.nonlinear_grad_s.full": "s",
    "dynamics.nonlinear_grad_s.reduced": "s",
    "symplectic.lift_calls": "count",
    "symplectic.lift_s": "s",
    "dynamics.hamiltonian_calls": "count",
    "dynamics.hamiltonian_s": "s",
    "reduction.reconstruct_s": "s",
    "reduction.l2_error_s": "s",
    "reduction.abscissa_s": "s",
    "symplectic.basis_s": "s",
    "symplectic.pod_basis_s": "s",
    "symplectic.greedy_pairs": "count",
    "reduction.project_s": "s",
    "storage.write_s": "s",
    "storage.bytes_written": "bytes",
    "storage.manifest_s": "s",
    "storage.verify_s": "s",
    "storage.bytes_verified": "bytes",
    "cli.self_s": "s",
    "reduction.cells": "count",
    "reduction.rdh_max_rel_error": "ratio",
    "reduction.cells_unstable": "count",
    "reduction.cells_failed": "count",
    "dynamics.volterra_max": "residual",
    "dynamics.hext_drift": "ratio",
    "symplectic.projection_floor": "ratio",
    "reduction.online_speedup": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "host.ref_python_s": "s",
    "host.ref_blas_s": "s",
}


# -- host speed reference -----------------------------------------------------


class HostReference:
    """Two fixed kernels that do not touch sympmor, timed between the
    measurements of a run.

    The host this benchmark was developed on drifts: for minutes at a time
    the same code runs up to 1.6x slower, and small-array Python code
    drifts more than dense BLAS. One kernel is Python-bound (30x30 matvecs
    in a loop, like a reduced integrator step), the other BLAS-bound
    (1000x1000 matvecs, like a full-order step). ``factor`` is the
    geometric mean of nominal/measured over the two, so a timing times
    ``factor`` reads in seconds of the host at its nominal speed.
    """

    # median kernel times on the development host (2-core x86-64 VM,
    # Python 3.11.7, numpy 2.4.6, OpenBLAS on one thread)
    NOMINAL = {"python": 0.014, "blas": 0.022}

    def __init__(self):
        rng = np.random.default_rng(0)
        self._m = rng.standard_normal((30, 30)) / 12.0
        self._v = rng.standard_normal(30)
        self._a = rng.standard_normal((1000, 1000))
        self._x = rng.standard_normal(1000)
        self.samples = {"python": [], "blas": []}

    def _python(self):
        s = self._v
        for _ in range(4000):
            s = self._m @ s
            s = s / (1.0 + abs(s[0]))
        return s

    def _blas(self):
        y = self._x
        for _ in range(60):
            y = self._a @ y
            y = y / np.abs(y).max()
        return y

    def sample(self, repeats: int = 8) -> None:
        for _ in range(repeats):
            for kind, kernel in (("python", self._python),
                                 ("blas", self._blas)):
                t0 = time.perf_counter()
                kernel()
                self.samples[kind].append(time.perf_counter() - t0)

    def mean(self, kind: str) -> float:
        return statistics.fmean(self.samples[kind])

    def factor(self, last: bool = False) -> float:
        """Scale factor from the mean kernel times, or from the latest
        sample with ``last``."""
        return float(np.sqrt(np.prod([
            self.NOMINAL[k] / (self.samples[k][-1] if last else self.mean(k))
            for k in self.NOMINAL])))


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    benchmark: str
    extra_args: tuple
    param: str              # physical parameter a nonzero seed draws
    low: float
    high: float
    gate_drift: bool        # a03/a04's extended-energy bound applies
    shrink: tuple = ()      # arguments of the smoke-test sized run


WORKLOADS = {
    "wave-greedy": Workload(
        "wave", ("--basis-method", "greedy"), "c2", 0.08, 0.12, True,
        shrink=("--set", "n=40", "--set", "t_final=0.3", "--modes", "4,8")),
    "ladder-online": Workload(
        "ladder", (), "resistance", 0.15, 0.25, True,
        shrink=("--set", "cells=8", "--set", "t_final=2", "--modes", "4,8")),
    "sine-gordon-kink": Workload(
        "sine-gordon", (), "velocity", 0.4, 0.6, False,
        shrink=("--set", "n=40", "--set", "t_final=2", "--modes", "4,8")),
}

DRIFT_BOUND = 1e-3          # a03/a04: |H_ext drift| <= 1e-3 of max |H_full|


def seed_overrides(workload: str, seed: int) -> dict:
    """Seed 0 runs the preset; any other seed draws the workload's one
    physical parameter uniformly from its documented range. The mesh,
    step, horizon and mode counts never change."""
    if seed == 0:
        return {}
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    return {spec.param: round(spec.low + (spec.high - spec.low) * rng.random(),
                              6)}


def compare_argv(workload: str, seed: int, out_dir, shrink=False) -> list:
    spec = WORKLOADS[workload]
    argv = ["compare", "--benchmark", spec.benchmark, *spec.extra_args,
            "--seed", str(seed), "--out", str(out_dir)]
    for key, value in seed_overrides(workload, seed).items():
        argv += ["--set", f"{key}={value!r}"]
    if shrink:
        argv += list(spec.shrink)
    return argv


# -- instrumentation ----------------------------------------------------------


COARSE_STAGE = {
    "benchmarks.build": "setup_s",
    "dynamics.integrate.full": "full_solve_s",
    "symplectic.basis": "offline_s",
    "symplectic.pod_basis": "offline_s",
    "reduction.project": "offline_s",
    "dynamics.integrate.rdh": "online_s",
    "dynamics.integrate.psd": "online_s",
    "dynamics.integrate.pod": "online_s",
    "storage.write": "artifacts_s",
    "storage.manifest": "artifacts_s",
    "storage.verify": "artifacts_s",
}

REDUCED_GRAD = "dynamics.nonlinear_grad.reduced"

# stages a plain pass records the calls of, so they can be replayed
# (``writes_s`` is the storage part of ``artifacts_s``)
REPLAY_STAGE = {
    "dynamics.integrate.full": "full_solve_s",
    "storage.write": "writes_s",
    "storage.manifest": "writes_s",
    "symplectic.basis": "offline_s",
    "symplectic.pod_basis": "offline_s",
    "reduction.project": "offline_s",
    "dynamics.integrate.rdh": "online_s",
    "dynamics.integrate.psd": "online_s",
    "dynamics.integrate.pod": "online_s",
}


def rk4_call_labels(n_steps: int, stride: int) -> list:
    """Order of right-hand-side calls in ``dynamics.integrate_rk4``: four
    stages per step, one derivative per snapshot instant."""
    labels = []
    for i in range(n_steps + 1):
        if i:
            labels += ["k1", "k2", "k3", "k4"]
        if i % stride == 0:
            labels.append("snap")
    return labels


class Instrument:
    """Context manager that wraps the pipeline's public functions."""

    def __init__(self, tracer: Tracer, fine: bool, capture: bool = False):
        self.tracer = tracer
        self.fine = fine
        self.bench = None          # last built benchmark
        self.full_report = None    # full-order RunReport
        self.full_stepper = None
        self.sym_basis = None      # largest symplectic basis of the pass
        # with ``capture``, (label, tag, function, args, kwargs, result) of
        # the calls of the replayed stages; keeping them alive raises the
        # process's peak RSS
        self.calls = [] if capture else None
        self._saved = []

    def _is_full(self, system) -> bool:
        return self.bench is not None and system is self.bench.system

    def wrap(self, fn, name, tag=None, after=None):
        """Span around ``fn``; ``name``/``tag`` may be callables of the call
        arguments, ``after(rec, result, args)`` runs once the span closed."""
        tracer = self.tracer

        def wrapped(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            rec = tracer.open(label, tag(*args, **kwargs) if tag else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                after(rec, result, args)
            if self.calls is not None and label in REPLAY_STAGE \
                    and tracer.parent_name() not in REPLAY_STAGE:
                self.calls.append((label, rec[TAG], fn, args, kwargs, result))
            return result
        return wrapped

    def _patch(self, owner, attr, *spec, **kw):
        original = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, *spec, **kw))

    def __enter__(self):
        p = self._patch
        p(benchmarks, "build_benchmark", "benchmarks.build",
          after=self._after_build)
        p(dynamics, "integrate",
          lambda system, *a, **k: ("dynamics.integrate.full"
                                   if self._is_full(system)
                                   else "dynamics.integrate.rdh"),
          tag=lambda system, *a, **k: system.dim,
          after=self._after_integrate)
        p(dynamics, "integrate_dissipative", "dynamics.integrate.psd")
        if self.fine:
            self._saved.append((dynamics, "integrate_rk4",
                                dynamics.integrate_rk4))
            dynamics.integrate_rk4 = self._traced_rk4(dynamics.integrate_rk4)
        else:
            p(dynamics, "integrate_rk4", "dynamics.integrate.pod")
        p(cli, "greedy_basis", "symplectic.basis", after=self._after_greedy)
        p(cli, "cotangent_lift", "symplectic.basis",
          after=self._after_cotangent)
        p(cli, "pod_basis", "symplectic.pod_basis")
        p(reduction, "rdh_reduce", "reduction.project",
          after=self._after_rdh_reduce)
        p(reduction, "psd_baseline", "reduction.project",
          after=self._after_psd_baseline)
        p(reduction, "pod_baseline", "reduction.project",
          after=self._after_pod_baseline)
        for attr in ("write_csv", "write_matrix", "write_snapshots",
                     "write_report_csv"):
            p(storage, attr, "storage.write")
        p(storage, "build_manifest", "storage.manifest")
        p(storage, "write_manifest", "storage.manifest")
        p(storage, "verify_manifest", "storage.verify")
        if self.fine:
            self._enter_fine()
        return self

    def _enter_fine(self):
        p = self._patch
        tracer = self.tracer
        p(benchmarks, "cholesky_factor", "benchmarks.cholesky")
        p(dynamics.TddSystem, "validate",
          lambda system: ("dynamics.validate.build"
                          if tracer.parent_name() == "benchmarks.build"
                          else "dynamics.validate.reduced"))
        p(dynamics.VerletStepper, "__init__",
          lambda stepper, system, dt: ("dynamics.stepper_setup.full"
                                       if self._is_full(system)
                                       else "dynamics.stepper_setup.rdh"),
          after=self._after_stepper)
        p(dynamics.VerletStepper, "step",
          lambda stepper, state: ("dynamics.step.full"
                                  if self._is_full(stepper.system)
                                  else "dynamics.step.rdh"))
        p(dynamics.DissipativeVerletStepper, "step", "dynamics.step.psd")
        p(dynamics.TddSystem, "hamiltonian", "dynamics.hamiltonian")
        p(symplectic.OrthoSymplecticBasis, "lift", "symplectic.lift")
        p(reduction, "reconstruct", "reduction.reconstruct")
        p(reduction, "l2_error", "reduction.l2_error")
        p(reduction, "spectral_abscissa", "reduction.abscissa")

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- hooks ----------------------------------------------------------------

    def _after_build(self, rec, bench, args):
        self.bench = bench
        grad = bench.system.nonlinear_grad
        if self.fine and grad is not None:
            tracer = self.tracer
            bench.system.nonlinear_grad = self.wrap(
                grad, lambda z: ("dynamics.nonlinear_grad.inner"
                                 if tracer.parent_name() == REDUCED_GRAD
                                 else "dynamics.nonlinear_grad.full"))

    def _after_integrate(self, rec, report, args):
        if self._is_full(args[0]):
            self.full_report = report

    def _after_greedy(self, rec, result, args):
        rec[TAG] = result.basis.k
        self.sym_basis = result.basis

    def _after_cotangent(self, rec, result, args):
        self.sym_basis = result[0]

    def _after_stepper(self, rec, result, args):
        if self._is_full(args[1]):
            self.full_stepper = args[0]

    def _after_rdh_reduce(self, rec, red, args):
        if self.fine and red.system.nonlinear_grad is not None:
            red.system.nonlinear_grad = self.wrap(red.system.nonlinear_grad,
                                                  REDUCED_GRAD)

    def _after_psd_baseline(self, rec, red, args):
        if self.fine and red.model.nonlinear_grad is not None:
            red.model.nonlinear_grad = self.wrap(red.model.nonlinear_grad,
                                                 REDUCED_GRAD)

    def _after_pod_baseline(self, rec, pm, args):
        if self.fine and pm.nonlinear is not None:
            pm.nonlinear = self.wrap(pm.nonlinear, REDUCED_GRAD)

    def _traced_rk4(self, fn):
        """The RK4 loop has no step object to wrap; time its right-hand-side
        calls instead and cut steps at the first stage of each step. A step
        runs from its first stage call to the next call (or the return)."""
        tracer = self.tracer

        def wrapped(rhs, *args, **kwargs):
            starts = []
            clock = time.perf_counter

            def timed_rhs(y):
                starts.append(clock())
                return rhs(y)
            rec = tracer.open("dynamics.integrate.pod")
            parent = len(tracer.spans) - 1
            try:
                report = fn(timed_rhs, *args, **kwargs)
            finally:
                tracer.close(rec)
            labels = rk4_call_labels(report.n_steps,
                                     kwargs.get("snapshot_stride", 1))
            if len(labels) != len(starts):
                raise HarnessError(
                    f"integrate_rk4 made {len(starts)} right-hand-side "
                    f"calls, expected {len(labels)}")
            self._add_steps(parent, starts + [rec[END]], labels)
            return report
        return wrapped

    def _add_steps(self, parent, events, labels):
        spans = self.tracer.spans
        first = len(spans)
        steps = []
        for j, label in enumerate(labels):
            if label == "k1":
                steps.append((events[j], events[j + 4]))
                self.tracer.add("dynamics.step.pod", events[j], events[j + 4],
                                parent)
        # spans opened inside a step (the reduced nonlinear gradient) become
        # children of that step
        begins = [s for s, _ in steps]
        for i in range(parent + 1, first):
            if spans[i][PARENT] != parent:
                continue
            k = bisect.bisect_right(begins, spans[i][START]) - 1
            if k >= 0 and spans[i][END] <= steps[k][1]:
                spans[i][PARENT] = first + k


# -- one pass -----------------------------------------------------------------


@dataclass
class PassResult:
    spans: list
    ok_compare: bool
    ok_check: bool
    manifest: dict | None
    instrument: Instrument
    files: dict = field(default_factory=dict)


def run_cli(tracer, name, argv) -> bool:
    """One ``sympmor`` command inside a span; True when it exited 0."""
    sink = io.StringIO()
    try:
        with tracer.span(name), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except Exception:   # a pipeline crash is a failed operation, not ours
        print(f"{name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return False
    if rc != 0:
        print(f"{name} exited {rc}: {sink.getvalue().strip()}",
              file=sys.stderr)
    return rc == 0


def run_pass(argv, out_dir: Path, fine: bool,
             capture: bool = False) -> PassResult:
    """compare then check, in-process, under the stage clocks."""
    tracer = Tracer()
    manifest_path = Path(out_dir) / "manifest.json"
    with Instrument(tracer, fine, capture) as inst:
        ok_compare = run_cli(tracer, "cli.compare", argv)
        ok_check = ok_compare and run_cli(
            tracer, "cli.check", ["check", "--manifest", str(manifest_path)])
    manifest = None
    if ok_compare and manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
    result = PassResult(tracer.spans, ok_compare, ok_check, manifest, inst)
    if manifest is not None:
        result.files = {k: v["sha256"] for k, v in manifest["files"].items()}
    return result


def replay(calls, top_modes: int, stages) -> tuple[dict, bool]:
    """Run a plain pass's calls of the given stages again with the same
    inputs, unwrapped; artifacts are rewritten with the same bytes. Returns
    the seconds per stage (plus ``rdh_query_s``) and whether every
    trajectory came out bit-identical to the pass's."""
    seconds = defaultdict(float)
    same = True
    for label, tag, fn, args, kwargs, result in calls:
        if REPLAY_STAGE[label] not in stages:
            continue
        t0 = time.perf_counter()
        try:
            again = fn(*args, **kwargs)
        except dynamics.NonFiniteError:
            same = False
            continue
        took = time.perf_counter() - t0
        seconds[REPLAY_STAGE[label]] += took
        if label == "dynamics.integrate.rdh" and tag == top_modes:
            seconds["rdh_query_s"] += took
        if label.startswith("dynamics.integrate."):
            same &= np.array_equal(again.snapshots.states,
                                   result.snapshots.states)
    return dict(seconds), same


# -- correctness gate ---------------------------------------------------------


def volterra_ok(run: dict) -> bool:
    """a09: memory-constraint residual within 1e-10 (1 + max |K z|)."""
    return run["volterra_max"] <= 1e-10 * (1.0 + run["kz_max"])


def hext_drifts(energy_csv: Path) -> dict:
    """max_t |H_ext(t) - H_ext(0)| / max_t |H_full(t)| per H_ext column of
    compare's energy table (full run and each rdh cell)."""
    header = energy_csv.open().readline().strip().split(",")
    cols = [i for i, h in enumerate(header) if h.startswith("Hext_")]
    h_full = header.index("H_full")
    data = np.loadtxt(energy_csv, delimiter=",", skiprows=1,
                      usecols=[h_full] + cols, ndmin=2)
    scale = float(np.abs(data[:, 0]).max())
    return {header[c]: float(np.abs(data[:, j + 1] - data[0, j + 1]).max())
            / scale for j, c in enumerate(cols)}


def gate(workload: str, result: PassResult, out_dir: Path,
         reference_files: dict | None) -> tuple[list, dict]:
    """Checks of one pass as (operation, ok) pairs, plus accuracy facts.

    Operations: the two CLI commands, each comparison cell (failed when it
    is missing or its run left floating-point range; instability flags are
    results), the Volterra bound of every time-dispersive run, the
    extended-energy drift on the workloads a03/a04 bound, and byte-identical
    artifacts across passes of one run.
    """
    ops = [("compare", result.ok_compare), ("check", result.ok_check)]
    m = result.manifest
    if m is None:
        return ops, {}
    cells = m.get("cells", {})
    expected = [f"{meth}_k{k}" for meth in m["methods"] for k in m["modes"]]
    for key in expected:
        cell = cells.get(key)
        ops.append((f"cell {key}", cell is not None
                    and "failure_step" not in cell
                    and np.isfinite(cell.get("max_relative", np.inf))))
    tdd_runs = {"full": m["full_run"]}
    tdd_runs.update({k: c for k, c in cells.items()
                     if k.startswith("rdh_") and "volterra_max" in c})
    for key, run in tdd_runs.items():
        ops.append((f"volterra {key}", volterra_ok(run)))
    drifts = hext_drifts(out_dir / "energy.csv")
    if WORKLOADS[workload].gate_drift:
        for col, value in drifts.items():
            ops.append((f"drift {col}", value <= DRIFT_BOUND))
    if reference_files is not None:
        ops.append(("deterministic artifacts",
                    result.files == reference_files))
    top = f"rdh_k{max(m['modes'])}"
    facts = {
        "rdh_max_rel_error": cells.get(top, {}).get("max_relative"),
        "cells": len(cells),
        "cells_unstable": sum(bool(c.get("unstable")) for c in cells.values()),
        "cells_failed": sum("failure_step" in c for c in cells.values()),
        "volterra_max": max(r["volterra_max"] for r in tdd_runs.values()),
        "hext_drift": max(drifts.values()) if drifts else 0.0,
        "modes": m["modes"],
    }
    for key, run in tdd_runs.items():
        if not volterra_ok(run):
            print(f"gate: {key} Volterra residual {run['volterra_max']:.3e} "
                  f"over bound", file=sys.stderr)
    return ops, facts


# -- metrics ------------------------------------------------------------------


def stage_times(spans, top_modes: int) -> dict:
    """End-to-end stage seconds of one pass.

    ``post_s`` is what ``compare`` spent outside the other stages
    (reconstruction, errors, energy series, abscissa); ``artifacts_s`` is
    the storage calls inside ``compare`` plus the whole ``check`` command,
    so the stages sum to ``pipeline_s``.
    """
    totals = defaultdict(float)
    compare = check = 0.0
    rdh_query = 0.0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        if s[NAME] == "cli.compare":
            compare += dur
        elif s[NAME] == "cli.check":
            check += dur
        stage = COARSE_STAGE.get(s[NAME])
        if stage is None:
            continue
        outer = list(ancestors(spans, i))
        if "cli.check" in outer or any(COARSE_STAGE.get(a) for a in outer):
            continue
        totals[stage] += dur
        if s[NAME] == "dynamics.integrate.rdh" and s[TAG] == top_modes:
            rdh_query += dur
    inside = sum(totals.values())
    return {
        "setup_s": totals["setup_s"],
        "full_solve_s": totals["full_solve_s"],
        "offline_s": totals["offline_s"],
        "online_s": totals["online_s"],
        "rdh_query_s": rdh_query,
        "post_s": compare - inside,
        "artifacts_s": totals["artifacts_s"] + check,
        "pipeline_s": compare + check,
    }


def _percentile(values, q):
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def layer_values(result: PassResult, facts: dict) -> dict:
    """Per-layer numbers of one traced pass (self times unless named
    otherwise; step times in microseconds)."""
    spans = result.spans
    selfs = self_times(spans)
    self_s = defaultdict(float)
    count = defaultdict(int)
    durs = defaultdict(list)
    for s, own in zip(spans, selfs):
        self_s[s[NAME]] += own
        count[s[NAME]] += 1
        if s[NAME].startswith("dynamics.step."):
            durs[s[NAME]].append(1e6 * (s[END] - s[START]))
    inst = result.instrument
    out = {
        "benchmarks.build_s": self_s["benchmarks.build"],
        "benchmarks.cholesky_s": self_s["benchmarks.cholesky"],
        "dynamics.validate_s": self_s["dynamics.validate.build"],
        "benchmarks.operator_bytes": operator_bytes(inst.bench),
        "dynamics.full_steps": count["dynamics.step.full"],
        "dynamics.stepper_setup_s": self_s["dynamics.stepper_setup.full"],
        "dynamics.full_step_bytes": stepper_bytes(inst.full_stepper),
        "dynamics.full_loop_s": self_s["dynamics.integrate.full"],
        "dynamics.reduced_loop_s": sum(
            self_s[f"dynamics.integrate.{m}"] for m in ("rdh", "psd", "pod"))
        + self_s["dynamics.stepper_setup.rdh"],
        "dynamics.reduced_steps": sum(
            count[f"dynamics.step.{m}"] for m in ("rdh", "psd", "pod")),
        "dynamics.nonlinear_grad_calls.full":
            count["dynamics.nonlinear_grad.full"],
        "dynamics.nonlinear_grad_calls.reduced": count[REDUCED_GRAD],
        "dynamics.nonlinear_grad_s.full":
            self_s["dynamics.nonlinear_grad.full"],
        "dynamics.nonlinear_grad_s.reduced": self_s[REDUCED_GRAD]
        + self_s["dynamics.nonlinear_grad.inner"],
        "symplectic.lift_calls": count["symplectic.lift"],
        "symplectic.lift_s": self_s["symplectic.lift"],
        "dynamics.hamiltonian_calls": count["dynamics.hamiltonian"],
        "dynamics.hamiltonian_s": self_s["dynamics.hamiltonian"],
        "reduction.reconstruct_s": self_s["reduction.reconstruct"],
        "reduction.l2_error_s": self_s["reduction.l2_error"],
        "reduction.abscissa_s": self_s["reduction.abscissa"],
        "symplectic.basis_s": self_s["symplectic.basis"],
        "symplectic.pod_basis_s": self_s["symplectic.pod_basis"],
        "symplectic.greedy_pairs": sum(
            s[TAG] or 0 for s in spans if s[NAME] == "symplectic.basis"),
        "reduction.project_s": self_s["reduction.project"]
        + self_s["dynamics.validate.reduced"],
        "storage.write_s": self_s["storage.write"],
        "storage.manifest_s": self_s["storage.manifest"],
        "storage.verify_s": self_s["storage.verify"],
        "cli.self_s": self_s["cli.compare"] + self_s["cli.check"],
        "trace.spans": len(spans),
    }
    for kind in ("full", "rdh", "psd", "pod"):
        d = durs[f"dynamics.step.{kind}"]
        out[f"dynamics.{kind}_step_us.p50"] = _percentile(d, 50)
        out[f"dynamics.{kind}_step_us.p99"] = _percentile(d, 99)
    m = result.manifest or {}
    out["storage.bytes_verified"] = sum(
        f["bytes"] for f in m.get("files", {}).values())
    out["storage.bytes_written"] = out["storage.bytes_verified"] + (
        len(json.dumps(m, indent=2, sort_keys=True)) + 1 if m else 0)
    for key in ("cells", "cells_unstable", "cells_failed"):
        out[f"reduction.{key}"] = facts.get(key, 0)
    out["reduction.rdh_max_rel_error"] = facts.get("rdh_max_rel_error")
    out["dynamics.volterra_max"] = facts.get("volterra_max", 0.0)
    out["dynamics.hext_drift"] = facts.get("hext_drift", 0.0)
    out["symplectic.projection_floor"] = projection_floor(inst)
    return out


def operator_bytes(bench) -> int:
    """Computed bytes of the built operators (K, chi, stiffness, drift)."""
    if bench is None:
        return 0
    arrays = (bench.system.K, bench.system.chi, bench.stiffness, bench.drift)
    return sum(a.nbytes for a in arrays if a is not None)


def stepper_bytes(stepper) -> int:
    """Computed operator bytes one full step reads: K, K^T (I + w chi)^{-1}
    and the four m_** blocks, each touched at least once per step."""
    if stepper is None:
        return 0
    arrays = (stepper.system.K, stepper.kt_wi, stepper.m_qq, stepper.m_qp,
              stepper.m_pq, stepper.m_pp)
    return sum(a.nbytes for a in arrays)


def projection_floor(inst: Instrument) -> float:
    """||Z - A A^T Z||_F / ||Z||_F of the full snapshots on the largest
    symplectic basis: the best relative error that basis can reach."""
    if inst.full_report is None or inst.sym_basis is None:
        return 0.0
    z = inst.full_report.snapshots.states
    return float(np.linalg.norm(z - inst.sym_basis.project(z))
                 / np.linalg.norm(z))


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None
