"""Run one hiercl benchmark workload, check its outputs and print its metrics.

    python3 bench/run.py --workload desk-static --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` there.
Everything happens in this one process, and BLAS is pinned to one thread.

A seed stands for ``STREAMS_PER_SEED`` streams, each with its own stream and
run seed. Set-up generates them and builds their policies; it is repeated
``SETUP_REPEATS`` times. A round runs every stream once, and rounds repeat
while the next one still fits in ``--seconds`` (at least ``MIN_ROUNDS``).

Host times are scaled to a reference machine speed (see ``Calibration``).
``setup_s`` is the median of every stream's set-up time over the repeats, and
``run_s`` the median of every stream run's time. The modeled metrics are
means over the streams; every round must reproduce them exactly.

With ``--trace 0`` the last line of standard output is the end-to-end result.
With ``--trace 1`` untraced and traced rounds alternate, and the result holds
the per-layer metrics of the traced rounds; the traced run's spans are
written to ``bench/traces/``. Either way the full result is also written to
``bench/results/``.
"""

from __future__ import annotations

import os

# one process, one BLAS thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "hiercl" / "__init__.py").is_file():
    sys.exit(f"no hiercl sources under {SRC}; run from the root of a hiercl checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hiercl  # noqa: E402
from hiercl.runtime import RunReport, Runtime  # noqa: E402

from checks import observe, run_checks  # noqa: E402
from tracing import Tracer, layer_tracer  # noqa: E402
from workloads import WORKLOADS, Inputs, build_inputs  # noqa: E402

STREAMS_PER_SEED = 4
SETUP_REPEATS = 5
MIN_ROUNDS = 2
# what ``Calibration.seconds`` takes on an uncontended core of the reference
# machine (README); host times are reported at that speed
CALIBRATION_REFERENCE_S = 0.2

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "final_accuracy": "fraction",
    "total_joules": "J",
    "device_s": "sim_s",
    "run_utility": "1/J",
}

PER_LAYER_UNITS = {
    "profiler.task_s": "s",
    "profiler.warmup_s": "s",
    "profiler.conf_eval_s": "s",
    "profiler.evaluate_s": "s",
    "profiler.confs": "count",
    "profiler.units": "sample-epochs",
    "profiler.joules": "J",
    "learner.train_s": "s",
    "learner.train_samples": "count",
    "learner.evaluate_s": "s",
    "memory.compose_s": "s",
    "memory.flush_s": "s",
    "memory.resize_s": "s",
    "swap.issue_s": "s",
    "swap.apply_s": "s",
    "swap.issued": "count",
    "swap.applied": "count",
    "swap.cancelled": "count",
    "swap.inapplicable": "count",
    "swap.applied_per_issued": "ratio",
    "swap.io_busy_s": "sim_s",
    "swap.io_joules": "J",
    "control.probe_s": "s",
    "control.moves": "count",
    "ledger.gpu_dynamic_j": "J",
    "ledger.static_j": "J",
    "ledger.ram_j": "J",
    "runtime.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class Calibration:
    """A fixed reference loop that measures how fast the host runs right now.

    Host speed on a shared machine drifts by tens of percent over minutes, and
    the drift is sustained for seconds at a time. Timing this loop right before
    and after each measured stretch, and scaling the stretch by
    ``CALIBRATION_REFERENCE_S`` over their mean, keeps host times comparable
    between runs. The loop shuffles a list, stacks small vectors and multiplies
    small matrices, like the simulator's hot path, but uses no hiercl code, so
    a change to hiercl cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = [rng.normal(size=32).astype(np.float32) for _ in range(2000)]
        self._weights = rng.normal(size=(32, 32))
        self.seconds()  # the first pass pays for warm-up

    def seconds(self) -> float:
        rng = np.random.default_rng(1)
        start = perf_counter()
        for _ in range(100):
            shuffled = [self._rows[i] for i in rng.permutation(len(self._rows))]
            for j in range(0, len(shuffled), 32):
                x = np.stack(shuffled[j : j + 32]).astype(np.float64)
                np.tanh(x @ self._weights).T @ x
        return perf_counter() - start

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that turns host seconds into seconds at the reference speed."""
        return CALIBRATION_REFERENCE_S / ((before + after) / 2.0)


def modeled(report: RunReport) -> dict[str, float]:
    """The run's modeled outputs: what the paper's cost-effectiveness reads."""
    chance = 1.0 / report.n_classes
    return {
        "final_accuracy": report.final_average_accuracy,
        "total_joules": report.ledger.total,
        "device_s": report.ledger.wall_time_seconds,
        "run_utility": (report.final_average_accuracy - chance) / report.ledger.total,
    }


def run_stream_once(inputs: Inputs, tally: Tally, tracer: Tracer | None = None):
    """One run of one stream: returns (host seconds, report) or None on failure."""
    tally.attempted += 1
    tasks, probe_sets = inputs.stream.tasks, inputs.stream.probe_sets
    try:
        start = perf_counter()
        runtime = Runtime(inputs.config, inputs.policy)
        if tracer is None:
            report = runtime.run(tasks, probe_sets)
        else:
            with tracer.installed():
                report = runtime.run(tasks, probe_sets)
        elapsed = perf_counter() - start
    except Exception as exc:  # a raising run is a failed run, not a crash
        traceback.print_exc()
        tally.failed += 1
        tally.problems.append(f"seed {inputs.config.seed}: {type(exc).__name__}: {exc}")
        return None
    problems = run_checks(observe(inputs, runtime, report))
    if report.aborted:
        problems.append(f"run aborted: {report.abort_reason}")
    if problems:
        tally.failed += 1
        tally.problems.extend(f"seed {inputs.config.seed}: {p}" for p in problems)
        return None
    return elapsed, report


def layer_metrics(tracer: Tracer, report: RunReport) -> dict[str, float]:
    """Per-layer figures of one traced run."""
    spans = tracer.totals()

    def total(name: str) -> float:
        return spans[name].total_s if name in spans else 0.0

    swaps = report.swap_totals
    cancelled = tracer.counts["swap.cancelled"]
    ledger = report.ledger
    return {
        "profiler.task_s": total("profiler.task"),
        "profiler.warmup_s": tracer.total_under("profiler.train", "profiler.task"),
        "profiler.conf_eval_s": total("profiler.conf_eval"),
        "profiler.evaluate_s": tracer.total_under("profiler.evaluate", "profiler.conf_eval"),
        "profiler.confs": len(report.profile_trace),
        "profiler.units": sum(
            u["warmup_units"] + u["evaluation_units"] for u in report.profiling_units.values()
        ),
        "profiler.joules": ledger.profiling,
        "learner.train_s": total("learner.train"),
        "learner.train_samples": tracer.counts["learner.train_samples"],
        "learner.evaluate_s": total("learner.evaluate"),
        "memory.compose_s": total("memory.compose"),
        "memory.flush_s": total("memory.flush"),
        "memory.resize_s": total("memory.resize"),
        "swap.issue_s": total("swap.issue"),
        "swap.apply_s": total("swap.apply"),
        "swap.issued": swaps["issued"],
        "swap.applied": swaps["applied"],
        "swap.cancelled": cancelled,
        "swap.inapplicable": swaps["dropped"] - cancelled,
        "swap.applied_per_issued": swaps["applied"] / swaps["issued"] if swaps["issued"] else 0.0,
        "swap.io_busy_s": tracer.counts["swap.io_busy_s"],
        "swap.io_joules": ledger.io,
        "control.probe_s": total("control.probe"),
        "control.moves": len(report.controller_decisions),
        "ledger.gpu_dynamic_j": ledger.gpu_dynamic,
        "ledger.static_j": ledger.static,
        "ledger.ram_j": ledger.ram,
        "runtime.self_s": spans["runtime.run"].self_s,
    }


def mean_over(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    stream_seeds = [STREAMS_PER_SEED * args.seed + i for i in range(STREAMS_PER_SEED)]

    calibration = Calibration()
    # host seconds as measured, and scaled to the reference speed
    raw: dict[str, list[float]] = {"setup": [], "untraced": [], "traced": []}
    scaled: dict[str, list[float]] = {"setup": [], "untraced": [], "traced": []}
    calibrations = [calibration.seconds()]
    for _ in range(SETUP_REPEATS):
        inputs = []  # let the previous repeat's streams go before building anew
        for seed in stream_seeds:
            start = perf_counter()
            inputs.append(build_inputs(workload, seed))
            raw["setup"].append(perf_counter() - start)
    calibrations.append(calibration.seconds())
    setup_scale = Calibration.scale(calibrations[0], calibrations[1])
    scaled["setup"] = [t * setup_scale for t in raw["setup"]]

    tally = Tally()
    reference: list[dict[str, float]] | None = None
    layer_rows: list[dict[str, float]] = []
    last_tracer: Tracer | None = None
    measure_start = perf_counter()
    rounds = 0
    while True:
        traced = args.trace == 1 and rounds % 2 == 1
        kind = "traced" if traced else "untraced"
        round_start = perf_counter()
        outputs, layers = [], []
        for stream_inputs in inputs:
            tracer = layer_tracer() if traced else None
            result = run_stream_once(stream_inputs, tally, tracer)
            calibrations.append(calibration.seconds())
            if result is None:
                continue
            scale = Calibration.scale(*calibrations[-2:])
            raw[kind].append(result[0])
            scaled[kind].append(result[0] * scale)
            outputs.append(modeled(result[1]))
            if traced:
                row = layer_metrics(tracer, result[1])
                layers.append(
                    {k: v * scale if PER_LAYER_UNITS[k] == "s" else v for k, v in row.items()}
                )
                last_tracer = tracer
        rounds += 1
        if len(outputs) == len(inputs):
            if reference is None:
                reference = outputs
            elif outputs != reference:
                tally.problems.append(
                    f"round {rounds} modeled outputs differ from round 1"
                    + (" (traced)" if traced else "")
                )
            if traced:
                layer_rows.append(mean_over(layers))
        round_s = perf_counter() - round_start
        used = perf_counter() - measure_start
        if rounds >= MIN_ROUNDS and used + round_s > args.seconds:
            break

    correct = not tally.problems and reference is not None
    if args.trace == 0:
        metrics = {}
        if scaled["untraced"]:
            metrics["run_s"] = statistics.median(scaled["untraced"])
        metrics["setup_s"] = statistics.median(scaled["setup"])
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if reference is not None:
            metrics.update(mean_over(reference))
        units = END_TO_END_UNITS
    else:
        metrics = {}
        if layer_rows and scaled["untraced"]:
            metrics = {k: statistics.median(r[k] for r in layer_rows) for k in layer_rows[0]}
            metrics["trace.overhead_s"] = statistics.median(scaled["traced"]) - statistics.median(
                scaled["untraced"]
            )
        units = PER_LAYER_UNITS
    if set(metrics) != set(units):
        correct = False

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    details = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "stream_seeds": stream_seeds,
        "rounds": rounds,
        "host_s": raw,
        "scaled_s": scaled,
        "calibration_s": calibrations,
        "problems": tally.problems,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "hiercl": hiercl.__version__,
        },
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n")
    if last_tracer is not None:
        traces_dir = BENCH_DIR / "traces"
        traces_dir.mkdir(exist_ok=True)
        spans = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in last_tracer.spans
        ]
        totals = {
            name: {"calls": t.calls, "total_s": t.total_s, "self_s": t.self_s}
            for name, t in sorted(last_tracer.totals().items())
        }
        (traces_dir / f"{stem}.json").write_text(
            json.dumps({"totals": totals, "spans": spans}) + "\n"
        )
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
