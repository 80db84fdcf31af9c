"""Benchmark of wondertoric: time to a checked result on three workloads.

One workload (prints every metric with its unit, then one JSON line;
exits 1 when a check fails)::

    python3 perfbench/run.py --workload running-min --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` wraps the package's public functions in spans and reports
the per-layer metrics.  Without ``--workload`` every workload runs both
ways, each in its own process, and ``--baseline PATH`` also writes all the
results to PATH.  ``--self-test`` checks the pair counters against the
ROADMAP gate figures and the tracer's bindings, without the long solves.

Run it from the root of a source checkout; it imports the package from
``src/`` and pins ``WONDER_THREADS=1``, so the run uses one thread.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-ups per run, at least, and per pass, so that the samples spread over
# the run; the median is reported
SETUP_REPEATS = 9
SETUPS_PER_PASS = 3
# the default run length; BENCHMARK.json's run_seconds
DEFAULT_SECONDS = 30


def purge_package() -> None:
    """Forget the imported package so the next set-up imports it afresh."""
    for name in [n for n in sys.modules
                 if n == "wondertoric" or n.startswith("wondertoric.")]:
        del sys.modules[name]


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Run:
    """One process's measurements of one workload.

    A pass is ``SETUPS_PER_PASS`` set-ups followed by the workload's steps
    on the last one, each step timed on its own.  ``solve_s`` adds up, over
    the steps, the median time each step took in the run's passes.  Reported
    times are scaled to the reference speed of ``speed.SpeedProbe``.
    """

    def __init__(self, workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.setup_s: list[float] = []
        self.step_s: list[list[float]] = []
        self.pass_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.probe = None
        self.scale = None

    def clock(self) -> float:
        """Wall time, less the time the speed probe took."""
        return time.perf_counter() - (self.probe.spent if self.probe else 0.0)

    def load(self):
        """Fresh import (timed) and the workload's inputs (untimed)."""
        purge_package()
        t0 = self.clock()
        mods = workloads.load(ROOT)
        load_s = self.clock() - t0
        return mods, self.wl.inputs(mods, self.seed), load_s

    def setup(self):
        mods, inputs, load_s = self.load()
        t0 = self.clock()
        state = self.wl.build(mods, inputs)
        self.setup_s.append(load_s + self.clock() - t0)
        return mods, state

    def attempt(self, step) -> None:
        """Run one attempt; an exception or a failed check fails it."""
        self.attempted += 1
        try:
            problems = step()
        except Exception as exc:  # counted as a failed attempt, never fatal
            problems = [_describe(exc)]
        if problems:
            self.failed += 1
            self.problems += problems

    def setup_only(self) -> list[str]:
        self.setup()
        return []

    def solve_and_check(self, mods, state) -> list[str]:
        results, total = [], 0.0
        for k, step in enumerate(self.wl.steps(mods, state)):
            t0 = self.clock()
            results.append(step())
            dt = self.clock() - t0
            total += dt
            if k == len(self.step_s):
                self.step_s.append([])
            self.step_s[k].append(dt)
        self.pass_s.append(total)
        return self.wl.check(mods, state, results)

    def one_pass(self) -> list[str]:
        # drop the previous pass's model and modules, so that the peak
        # memory is one pass's and not the garbage of earlier ones
        gc.collect()
        for _ in range(SETUPS_PER_PASS - 1):
            self.setup()
        return self.solve_and_check(*self.setup())

    def measure(self, seconds: float) -> dict:
        """Make passes for about ``seconds``, at least one.

        A further pass starts only if, at the mean pass time so far, it
        would end less than half a pass after ``seconds``.  So a run lasts
        ``seconds`` give or take half a pass, and a workload whose pass
        takes over two thirds of ``seconds`` makes one pass.
        """
        start = time.perf_counter()
        passes = 0
        with speed.SpeedProbe() as self.probe:
            while True:
                self.attempt(self.one_pass)
                passes += 1
                elapsed = time.perf_counter() - start
                if elapsed + 0.5 * elapsed / passes > seconds:
                    break
            while len(self.setup_s) < SETUP_REPEATS:
                self.attempt(self.setup_only)
        self.scale = self.probe.scale()
        solve = sum(statistics.median(ts) for ts in self.step_s)
        return {
            "solve_s": (solve * self.scale if self.pass_s else 0.0, "s"),
            "setup_s": (statistics.median(self.setup_s) * self.scale, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def traced(self) -> dict:
        """One untraced and one traced pass; per-layer metrics of the latter.

        Each pass is scaled to the reference speed by the probe samples
        taken while it ran, so that the tracing overhead compares the two
        passes at one speed.
        """
        tracer = spans.Tracer(layers.HOOKS, clock=self.clock)
        box = {}

        def traced_pass():
            mods, inputs, _ = self.load()
            tracer.install()
            try:
                with tracer.span("bench.setup"):
                    state = self.wl.build(mods, inputs)
                with tracer.span("bench.solve"):
                    problems = self.solve_and_check(mods, state)
            finally:
                tracer.uninstall()
            box["counters"], gate = self.wl.counters(mods, state)
            return problems + gate

        with speed.SpeedProbe() as self.probe:
            self.attempt(self.one_pass)
            untraced = self.pass_s[-1] * self.probe.scale() if self.pass_s else 0.0
            first = len(self.probe.samples)
            passes = len(self.pass_s)
            self.attempt(traced_pass)
            scale = self.probe.scale(first)
        traced = self.pass_s[-1] * scale if len(self.pass_s) > passes else 0.0
        return layers.layer_metrics(tracer, box.get("counters", {}),
                                    untraced, traced, scale)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(workload: str, seed: int, run: Run, metrics: dict) -> int:
    """Print the metrics, the failures and the result line; return the exit code."""
    print(f"workload {workload}  seed {seed}  attempted {run.attempted}  "
          f"failed {run.failed}  error_rate {run.failed / run.attempted:.3f}  "
          f"passes {len(run.pass_s)}  set-ups {len(run.setup_s)}")
    if run.scale is not None and run.pass_s:
        print(f"  speed scale {run.scale:.4f} from {len(run.probe.samples)} "
              f"probes; unscaled solve {sum(run.pass_s) / len(run.pass_s):.3f} s "
              f"per pass")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in run.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def run_one(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    run = Run(wl, args.seed)
    metrics = run.traced() if args.trace else run.measure(args.seconds)
    return emit(args.workload, args.seed, run, metrics)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a child process."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            try:
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True, timeout=900)
            except subprocess.TimeoutExpired:
                print(f"{name} trace {trace}: timed out", file=sys.stderr)
                status = 1
                continue
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if proc.returncode or result is None:
                status = 1
            results.setdefault(name, {})[f"trace{trace}"] = result
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump({
                "seed": args.seed,
                "seconds": args.seconds,
                "python": platform.python_version(),
                "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
                "results": results,
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


def self_test() -> int:
    """Pair counters against the gate figures, and the tracer's bindings."""
    problems = []
    for name in ("running-min", "running-max-routes"):
        wl = workloads.WORKLOADS[name]
        run = Run(wl, 0)
        mods, pres = run.setup()
        counters, gate = wl.counters(mods, pres)
        print(name, {k: counters[k] for k in workloads.PAIR_KEYS})
        problems += gate
    problems += check_bindings() + check_manifest()
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def check_bindings() -> list[str]:
    """No traced function may stay reachable unwrapped under any binding."""
    package = [m for n, m in sys.modules.items()
               if n == "wondertoric" or n.startswith("wondertoric.")]
    traced = {id(obj): f"{mod.__name__}.{attr}"
              for mod in package if mod.__name__.split(".")[-1] in spans.MODULES
              for attr, obj in vars(mod).items()
              if not attr.startswith("_") and inspect.isfunction(obj)
              and obj.__module__ == mod.__name__}
    before = {(mod.__name__, attr): obj for mod in package
              for attr, obj in vars(mod).items() if id(obj) in traced}
    tracer = spans.Tracer()
    tracer.install()
    try:
        left = [f"{mod}.{attr}" for (mod, attr), obj in before.items()
                if vars(sys.modules[mod])[attr] is obj]
    finally:
        tracer.uninstall()
    problems = [f"{name} is not wrapped" for name in left]
    if any(vars(sys.modules[mod])[attr] is not obj
           for (mod, attr), obj in before.items()):
        problems.append("uninstall did not restore every binding")
    return problems


def check_manifest() -> list[str]:
    """The metric names in BENCHMARK.json must be the ones this run prints."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    probe = spans.Tracer()
    want = {
        "end_to_end": ["solve_s", "setup_s", "peak_rss_mb"],
        "per_layer": list(layers.layer_metrics(probe, {}, 0.0, 0.0)),
        "workloads": list(workloads.WORKLOADS),
    }
    return [f"BENCHMARK.json {key} differ from the harness"
            for key, names in want.items()
            if [m["name"] for m in manifest[key]] != names]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", metavar="PATH",
                   help="with no --workload, also write all results to PATH")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.self_test:
        return self_test()
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "wondertoric", "__init__.py")):
        print(f"error: no wondertoric sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        sys.exit(2)
    os.environ["WONDER_THREADS"] = "1"
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import layers
    import spans
    import speed
    import workloads

    sys.exit(main())
