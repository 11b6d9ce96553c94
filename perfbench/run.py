"""Stage-level benchmark of the ``sympmor compare`` pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload wave-greedy --seed 0 --seconds 35 \
        --trace 0
    python3 perfbench/run.py --workload all       # every workload, a table

Each workload runs ``sympmor compare ...`` then ``sympmor check`` in-process,
repeatedly, for ``--seconds`` seconds, and gates every pass for correctness.
``--trace 0`` prints the end-to-end metrics (means over passes and replays
of the short stages); ``--trace 1`` alternates plain and traced passes and
prints the per-layer metrics, including the tracing overhead. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md`` for the metric
definitions.
"""

from __future__ import annotations

import os

# single-threaded, before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "SYMPMOR_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

# setup_s is the median of several builds, made in batches spread over the
# run (at its start and after every cycle): each batch has at least this
# many builds, and more until this much time went into it
SETUP_MIN_BUILDS = 3
SETUP_MIN_SECONDS = 0.3
SETUP_MAX_BUILDS = 100
MIN_PLAIN_PASSES = 2
# after each plain pass that recorded its calls, rounds of artifacts_s (the
# storage writes and ``check``): at least this many, and more until this
# much time went into them; these stages are short, so they need many
# samples
ARTIFACT_MIN_ROUNDS = 5
ARTIFACT_SECONDS = 1.0
# replays include the full-order solve when it takes at most this share of
# a pass (so a long BLAS-bound solve does not crowd out the other stages)
FULL_REPLAY_SHARE = 0.25


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_revision() -> str:
    """Commit of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "git": git_revision(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS",
                                               "SYMPMOR_THREADS")},
    }


def warm_up(h, out_dir: Path) -> None:
    """Untimed tiny ladder compare + check, so lazy imports and first-call
    costs are not charged to any measured stage."""
    argv = ["compare", "--benchmark", "ladder", "--set", "cells=4",
            "--set", "t_final=0.5", "--modes", "2,4", "--out", str(out_dir)]
    res = h.run_pass(argv, out_dir, fine=True)
    if not (res.ok_compare and res.ok_check):
        print("perfbench: warm-up pass failed", file=sys.stderr)


def measure_setup(h, argv) -> list:
    """Repeated standalone ``build_benchmark`` calls with the configuration
    ``compare`` resolves from ``argv``; returns their durations."""
    name, config = h.cli.resolve_config(h.cli.build_parser().parse_args(argv))
    tracer = h.Tracer()
    t0 = time.perf_counter()
    with h.Instrument(tracer, fine=False):
        while (len(tracer.spans) < SETUP_MIN_BUILDS
               or time.perf_counter() - t0 < SETUP_MIN_SECONDS) \
                and len(tracer.spans) < SETUP_MAX_BUILDS:
            h.benchmarks.build_benchmark(name, config)
    return [s[2] - s[1] for s in tracer.spans]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 shrink: bool = False) -> dict:
    """Measure one workload in this process; returns the result object."""
    import harness as h

    out_dir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        warm_up(h, out_dir / "warm")
        run = Run(h, workload, seed, out_dir / "cmp", shrink)
        print(json.dumps({"workload": workload, "seed": seed,
                          "overrides": h.seed_overrides(workload, seed),
                          "argv": run.argv, "env": environment()}))
        t_start = time.perf_counter()
        run.ref.sample()
        run.samples["setup_s"] += measure_setup(h, run.argv)
        run.ref.sample()
        cycles = []
        while True:
            t_cycle = time.perf_counter()
            fine = trace and run.plain > len(run.traced)
            if not run.one_pass(fine):
                break
            run.ref.sample()
            if not trace:
                if run.calls:
                    run.replay()
                    run.artifacts()
                run.samples["setup_s"] += measure_setup(h, run.argv)
            cycles.append(time.perf_counter() - t_cycle)
            elapsed = time.perf_counter() - t_start
            enough = run.plain >= (1 if trace else MIN_PLAIN_PASSES) \
                and len(run.traced) >= (1 if trace else 0)
            if enough and elapsed + h.median(cycles) > seconds:
                break
        # the rest of the time goes into more replays
        while not trace and run.replays and \
                time.perf_counter() - t_start + h.median(run.replays) \
                <= seconds:
            run.replay()
        print(json.dumps({"passes": run.plain + len(run.traced),
                          "replays": len(run.replays),
                          "cycle_seconds": cycles}))
        failed = sum(not ok for _, ok in run.ops)
        result = {"correct": failed == 0, "attempted": len(run.ops),
                  "failed": failed}
        if trace:
            result["metrics"] = per_layer(h, run, workload)
        else:
            result["metrics"] = end_to_end(h, run)
        return result
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


class Run:
    """Passes, replays and their samples for one workload."""

    def __init__(self, h, workload, seed, out_dir, shrink):
        self.h = h
        self.workload = workload
        self.out_dir = out_dir
        self.argv = h.compare_argv(workload, seed, out_dir, shrink=shrink)
        # rdh_max_rel_error is read on the preset instance, so that it is
        # the same for every seed; see ``one_pass``
        self.preset_argv = h.compare_argv(workload, 0, out_dir,
                                          shrink=shrink)
        self.samples = defaultdict(list)   # end-to-end metric -> values
        self.ops = []                      # (operation, ok)
        self.plain = 0                     # plain passes made
        self.traced = []                   # (stage times, layer values)
        self.replays = []                  # seconds per replay
        self.facts = {}
        self.preset_error = None           # rdh_max_rel_error at seed 0
        self.references = {}               # argv -> artifact hashes
        self.calls = None                  # last plain pass's stage calls
        self.last_spans = None             # last traced pass's spans
        self.peak_rss_mb = None            # high-water mark after pass 1
        self.ref = h.HostReference()
        self.artifact_ref = h.HostReference()

    def _record(self, checks):
        self.ops += checks
        for name, ok in checks:
            if not ok:
                print(f"perfbench: failed: {name}", file=sys.stderr)

    def one_pass(self, fine: bool) -> bool:
        """compare + check, gated; False when compare failed.

        The second plain pass runs the preset instance (seed 0's
        parameters) instead of the seed's; with seed 0 they are the same.
        The rdh error at the largest mode count jumps irregularly with the
        seed's parameter (on wave-greedy by up to 25 % between nearby
        ``c2``), so the end-to-end error is read on the preset instance,
        where it only moves when the program does. The seed's own error is
        the per-layer ``reduction.rdh_max_rel_error``. The preset pass is
        timed like any other: it does the same work."""
        self.calls = None   # one pass's data alive at a time
        gc.collect()        # the previous pass's garbage, outside the clocks
        argv = self.preset_argv if not fine and self.plain == 1 \
            else self.argv
        # the first plain pass captures nothing, so that the peak RSS read
        # after it is the pipeline's own
        capture = not fine and self.peak_rss_mb is not None
        res = self.h.run_pass(argv, self.out_dir, fine=fine,
                              capture=capture)
        checks, facts = self.h.gate(self.workload, res, self.out_dir,
                                    self.references.get(tuple(argv)))
        self._record(checks)
        if not res.ok_compare:
            return False
        if not self.references:
            self.facts = facts
        self.references.setdefault(tuple(argv), res.files)
        if argv == self.preset_argv:
            self.preset_error = facts.get("rdh_max_rel_error")
        stages = self.h.stage_times(res.spans, self.top_modes)
        self.samples["setup_s"].append(stages["setup_s"])
        if fine:
            self.traced.append((stages, self.h.layer_values(res, facts)))
            self.last_spans = res.spans
            return True
        self.plain += 1
        self.calls = res.instrument.calls
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for key in ("full_solve_s", "offline_s", "online_s", "rdh_query_s",
                    "post_s", "pipeline_s"):
            self.samples[key].append(stages[key])
        return True

    @property
    def top_modes(self) -> int:
        return max(self.facts["modes"])

    def replay(self) -> None:
        """One more sample of the offline and online stages, and of the full
        solve when it is a small part of the pass."""
        stages = {"offline_s", "online_s"}
        full = statistics.fmean(self.samples["full_solve_s"])
        if full <= FULL_REPLAY_SHARE * statistics.fmean(
                self.samples["pipeline_s"]):
            stages.add("full_solve_s")
        t0 = time.perf_counter()
        seconds, same = self.h.replay(self.calls, self.top_modes, stages)
        self.replays.append(time.perf_counter() - t0)
        self.ref.sample()
        self._record([("replayed trajectories identical", same)])
        for key, value in seconds.items():
            self.samples[key].append(value)

    def artifacts(self) -> None:
        """Rounds of the storage writes (rewriting the same bytes) and of
        ``sympmor check``, which verifies them. Each round is followed by
        one reference sample and scaled by it alone: a round lasts tens of
        milliseconds, so only a reference taken right next to it tracks
        the host."""
        t0 = time.perf_counter()
        rounds = 0
        while rounds < ARTIFACT_MIN_ROUNDS \
                or time.perf_counter() - t0 < ARTIFACT_SECONDS:
            seconds, _ = self.h.replay(self.calls, self.top_modes,
                                       {"writes_s"})
            tracer = self.h.Tracer()
            ok = self.h.run_cli(tracer, "cli.check",
                                ["check", "--manifest",
                                 str(self.out_dir / "manifest.json")])
            self._record([("check", ok)])
            took = seconds["writes_s"] + tracer.spans[0][2] \
                - tracer.spans[0][1]
            self.artifact_ref.sample(repeats=1)
            self.samples["artifacts_s"].append(took)
            self.samples["artifacts_scaled"].append(
                took * self.artifact_ref.factor(last=True))
            rounds += 1


def end_to_end(h, run) -> dict:
    """Stage times are means over the run's samples, scaled to the nominal
    host speed by the run's ``HostReference``. The mean is used because the
    host flips between a fast and a slow mode for seconds at a time: the
    median of a few samples flips with it, the mean does not. ``setup_s``
    is the median of its builds, scaled the same way, and ``artifacts_s``
    the median of its rounds, each scaled by its own reference sample. The
    unscaled values go to the line before the result."""
    avg = {k: statistics.fmean(v) for k, v in run.samples.items() if v}
    raw = {k: avg.get(k) for k in h.END_TO_END if k.endswith("_s")}
    for key in ("setup_s", "artifacts_s"):
        raw[key] = h.median(run.samples[key])
    factor = run.ref.factor()
    print(json.dumps({"unscaled_s": raw, "host_factor": factor,
                      "host_ref_s": {k: run.ref.mean(k)
                                     for k in run.ref.samples}}))
    values = {k: None if v is None else v * factor for k, v in raw.items()}
    values["artifacts_s"] = h.median(run.samples["artifacts_scaled"])
    values["peak_rss_mb"] = run.peak_rss_mb
    values["rdh_max_rel_error"] = run.preset_error
    return {k: {"value": values[k], "unit": u}
            for k, u in h.END_TO_END.items()}


def per_layer(h, run, workload) -> dict:
    """Medians over the traced passes, plus the numbers derived from the
    plain passes: online speedup and tracing overhead."""
    values = {}
    if run.traced:
        values = {k: h.median([lv[k] for _, lv in run.traced])
                  for k in run.traced[0][1]}
    pipe_plain = h.median(run.samples["pipeline_s"])
    pipe_traced = h.median([st["pipeline_s"] for st, _ in run.traced])
    if pipe_plain is not None and pipe_traced is not None:
        values["trace.overhead_s"] = pipe_traced - pipe_plain
    full = h.median(run.samples["full_solve_s"])
    query = h.median(run.samples["rdh_query_s"])
    if full and query:
        values["reduction.online_speedup"] = full / query
    values["host.ref_python_s"] = run.ref.mean("python")
    values["host.ref_blas_s"] = run.ref.mean("blas")
    if run.last_spans is not None:
        tracer = h.Tracer()
        tracer.spans = run.last_spans
        tracer.write_csv(WORK / f"trace-{workload}.csv")
    return {k: {"value": values.get(k), "unit": u}
            for k, u in h.PER_LAYER.items()}


def run_all(args) -> int:
    """Each workload in a fresh process (so peak RSS is its own); prints a
    table and a combined result."""
    import harness as h
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in h.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited {proc.returncode}", file=sys.stderr)
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        rows.append((workload, res))
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    for workload, res in rows:
        print(f"== {workload}: {res['attempted']} operations attempted, "
              f"{res['failed']} failed")
        for name, m in res["metrics"].items():
            value = m["value"]
            shown = "-" if value is None else f"{value:.6g}"
            print(f"  {name:40s} {shown:>14s} {m['unit']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sympmor" / "__init__.py").is_file():
        return _fail(f"no sympmor sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import harness as h

    if args.workload == "all":
        return run_all(args)
    if args.workload not in h.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(h.WORKLOADS)} or all")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
