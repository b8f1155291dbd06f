"""Benchmark rmop end to end (untraced) or per layer (traced) on one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload crossover --seed 7 --seconds 30 --trace 0

One process, one thread, closed loop: the workload's inputs are built and
validated (set-up, repeated and reported as a median), then whole sweeps over
the same inputs run back to back until `--seconds` have passed. Every sweep
is checked: its digest must equal the first sweep's (and the pinned digest
when one exists for the seed), every plan must pass `check_solution`, and the
attack oracles must agree. Human-readable lines go to stdout first; the last
line is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With `--trace 1` every public function of the rmop layer modules is wrapped,
the spans are written to `.bench_out/<workload>/` at the end, and the metrics
are the per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import spans

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPS = 200
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "plan_s_p50": "s", "plan_s_p90": "s",
                    "peak_rss_mb": "MB", "failed_frac": "ratio",
                    "rmop_residual_mean": "reward"}


def load_benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_rmop():
    """Import rmop from this checkout's src/, never from anywhere else."""
    if not (SRC / "rmop" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rmop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rmop
    if Path(rmop.__file__).resolve().parent != (SRC / "rmop").resolve():
        raise SystemExit(f"perfbench: imported rmop from {rmop.__file__}, not from {SRC}")
    return rmop


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def machine_facts() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(), "src_sha256": source_digest()}


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, identifying the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rmop").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Drives one workload: set-up, timed sweeps, checks, and the counts of both."""

    def __init__(self, workload, seconds: float, pinned_digest):
        from rmop import planner
        self.workload = workload
        self.seconds = seconds
        self.pinned_digest = pinned_digest
        self.check_solution = planner.check_solution
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.first_digest = None
        self.residuals = None
        self.tracer = None
        self.phases = {"setup": [], "sweep": []}

    @contextlib.contextmanager
    def phase(self, kind: str, traced: bool = True):
        """Record spans (when tracing) for exactly the code inside the block."""
        if self.tracer is None or not traced:
            yield
            return
        phase_id = sum(len(p) for p in self.phases.values())
        self.phases[kind].append(phase_id)
        self.tracer.begin_phase(phase_id)
        try:
            yield
        finally:
            self.tracer.end_phase()

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)

    def setup(self):
        """Repeat the workload's set-up; returns (inputs, per-rep seconds)."""
        times = []
        inputs = None
        while len(times) < SETUP_MIN_REPS or (
                sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS):
            with self.phase("setup"):
                t0 = time.perf_counter()
                inputs = self.workload.setup()
                times.append(time.perf_counter() - t0)
        return inputs, times

    def sweep(self, inputs, capture, traced: bool = True):
        """One timed sweep, then its checks; returns the sweep's wall time."""
        plans = capture.start()
        self.attempted += 1
        outcome = None
        with self.phase("sweep", traced):
            t0 = time.perf_counter()
            try:
                outcome = self.workload.sweep(inputs, plans)
            except Exception:  # a failed sweep is counted and reported, the run goes on
                self.fail("sweep raised:\n" + traceback.format_exc())
            elapsed = time.perf_counter() - t0
        capture.stop()
        if outcome is not None:
            self.check_outcome(outcome)
        for name, scenario, solution in plans:
            self.attempted += 1
            problems = self.check_solution(scenario, solution)
            if problems:
                self.fail(f"{name} plan for starts {scenario.starts}: {problems[:3]}")
        return elapsed

    def check_outcome(self, outcome) -> None:
        problems = list(outcome.problems)
        if self.first_digest is None:
            self.first_digest = outcome.digest
            self.residuals = outcome.residuals
            expected = self.pinned_digest
            if expected is not None and outcome.digest != expected:
                problems.append(f"digest {outcome.digest} differs from pinned {expected}")
        elif outcome.digest != self.first_digest:
            problems.append(f"digest {outcome.digest} differs from the first sweep's "
                            f"{self.first_digest}")
        if not outcome.residuals:
            problems.append("sweep produced no rmop residuals")
        if problems:
            self.fail("; ".join(problems[:3]))

    def sweeps(self, inputs, capture, min_sweeps: int = 1) -> list[float]:
        """Closed loop: start another sweep while that brings the end nearer `seconds`."""
        times = []
        t_start = time.perf_counter()
        while True:
            times.append(self.sweep(inputs, capture))
            elapsed = time.perf_counter() - t_start
            if len(times) >= min_sweeps and elapsed + times[-1] / 2 > self.seconds:
                return times


class PlanCapture:
    """Records every plan made through `rmop.bench.plan` into the current list."""

    def __init__(self):
        from rmop import bench
        self.plans = None
        self._rebinder = spans.Rebinder()
        original = bench.plan

        def plan(name, scenario, solver):
            solution = original(name, scenario, solver)
            if self.plans is not None:
                self.plans.append((name, scenario, solution))
            return solution

        self._rebinder.replace({id(original): plan})

    def start(self) -> list:
        self.plans = []
        return self.plans

    def stop(self) -> None:
        self.plans = None

    def close(self) -> None:
        self._rebinder.restore()


class PlanTimer:
    """A single timer around every `solve_rmop` entry."""

    def __init__(self):
        from rmop import planner
        self.samples: list[float] = []
        self._rebinder = spans.Rebinder()
        original = planner.solve_rmop

        def solve_rmop(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.samples.append(time.perf_counter() - t0)

        self._rebinder.replace({id(original): solve_rmop})

    def close(self) -> None:
        self._rebinder.restore()


def run_untraced(runner: Runner) -> tuple[dict, dict]:
    inputs, setup_times = runner.setup()
    timer = PlanTimer()
    capture = PlanCapture()
    try:
        sweep_times = runner.sweeps(inputs, capture)
    finally:
        capture.close()
        timer.close()
    plan_times = timer.samples
    metrics = {
        "setup_s": statistics.median(setup_times),
        "sweep_s": statistics.median(sweep_times),
        "plan_s_p50": statistics.median(plan_times) if plan_times else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": runner.failed / runner.attempted,
        "rmop_residual_mean": statistics.fmean(runner.residuals) if runner.residuals else None,
    }
    if len(plan_times) >= P90_MIN_SAMPLES:
        metrics["plan_s_p90"] = percentile(plan_times, 90)
    samples = {"setup_s": len(setup_times), "sweep_s": len(sweep_times),
               "plan_s_p50": len(plan_times), "plan_s_p90": len(plan_times),
               "rmop_residual_mean": len(runner.residuals or ()),
               "timings": {"setup_s": setup_times, "sweep_s": sweep_times,
                           "plan_s": plan_times}}
    return metrics, samples


def run_traced(runner: Runner, spans_path: Path, per_layer_units: dict) -> tuple[dict, dict]:
    tracemalloc.start()
    runner.workload.setup()
    alloc_peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()

    tracer = spans.Tracer()
    tracer.install()
    runner.tracer = tracer
    capture = PlanCapture()
    try:
        inputs, _ = runner.setup()
        untraced_sweep = runner.sweep(inputs, capture, traced=False)
        traced_times = runner.sweeps(inputs, capture, min_sweeps=2)
    finally:
        capture.close()
        tracer.uninstall()
    tracer.write(spans_path)
    setup_phases, sweep_phases = runner.phases["setup"], runner.phases["sweep"]

    cols = tracer.arrays()
    for problem in spans.check_tree(cols):
        runner.fail(f"span tree: {problem}")
    setup_layer, setup_mismatch = spans.combine_phases(
        [spans.phase_metrics(cols, tracer.names, p) for p in setup_phases])
    sweep_layer, sweep_mismatch = spans.combine_phases(
        [spans.phase_metrics(cols, tracer.names, p) for p in sweep_phases])
    for mismatch in setup_mismatch + sweep_mismatch:
        runner.fail(f"counter does not repeat: {mismatch}")

    def p(qualname, q):
        ms = spans.durations_ms(cols, tracer.names, qualname, sweep_phases)
        return percentile(ms, q) if len(ms) else 0.0

    traced_sweep_s = statistics.median(traced_times)
    layer = dict(sweep_layer)
    layer.update({k: v for k, v in setup_layer.items() if k.startswith("graph.")})
    layer.update({
        "graph.setup.alloc_peak_mb": alloc_peak_mb,
        "orienteering.solve_op_gcb.ms_p50": p("orienteering.solve_op_gcb", 50),
        "orienteering.solve_op_gcb.ms_p90": p("orienteering.solve_op_gcb", 90),
        "attack.worst_case_attack.ms_p50": p("attack.worst_case_attack", 50),
        "trace.sweep_s": traced_sweep_s,
        "trace.untraced_sweep_s": untraced_sweep,
        "trace.overhead_s": traced_sweep_s - untraced_sweep,
        "trace.self_frac": sweep_layer["trace.self_s"] / traced_sweep_s,
    })
    metrics = {name: layer[name] for name in per_layer_units}
    samples = {"setup_phases": len(setup_phases), "sweep_phases": len(sweep_phases),
               "spans": len(cols["start"])}
    return metrics, samples


def format_value(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed; 7 is the ROADMAP crossover's master seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest size of each workload, for tests")
    args = parser.parse_args(argv)

    spec = load_benchmark_spec()
    import_rmop()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")

    outdir = ROOT / ".bench_out" / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    facts = machine_facts()
    facts["loadavg_before"] = os.getloadavg()
    workload = workloads.make(args.workload, args.size, args.seed, outdir)
    runner = Runner(workload, args.seconds, workloads.pinned(workload))
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        spans_path = outdir / "spans.npz"
        values, samples = run_traced(runner, spans_path, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, samples = run_untraced(runner)
    facts["loadavg_after"] = os.getloadavg()
    correct = runner.failed == 0

    print(f"perfbench workload={args.workload} size={args.size} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}")
    print("machine " + json.dumps(facts, sort_keys=True))
    pin = "checked" if runner.pinned_digest else "none for this seed and size"
    print(f"checks  attempted={runner.attempted} failed={runner.failed} "
          f"digest={runner.first_digest} pinned digest: {pin}")
    for message in runner.messages:
        print("FAIL    " + message.replace("\n", "\n        "))
    for name, unit in (units if args.trace else END_TO_END_UNITS).items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<40} {format_value(values.get(name)):>14} {unit}{count}")
    if not args.trace:
        print(f"  plan_s_p90 needs at least {P90_MIN_SAMPLES} solve_rmop calls; "
              f"failed_frac = {runner.failed} failed / {runner.attempted} attempted")
    else:
        print(f"  spans: {samples['spans']} over {samples['setup_phases']} set-ups and "
              f"{samples['sweep_phases']} traced sweeps, written to {spans_path}")

    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            correct = False
            print(f"FAIL    metric {name} was not measured", file=sys.stderr)
            continue
        metrics[name] = {"value": value, "unit": unit}
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, size=args.size, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, machine=facts, samples=samples,
                  digest=runner.first_digest, messages=runner.messages,
                  all_values=values)
    (outdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
