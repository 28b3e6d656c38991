"""Every benchmark workload must pass the benchmark's own output checks, so a
change that breaks one fails here, not only when the benchmark runs.

The same runs also pin every modeled output: a sha256 of each run's full
``RunReport`` repr and of its final learner weights. A change meant to leave
outputs byte-identical must pass these unedited; a deliberate re-baseline
re-records only the digests it moves and says why.
"""

import hashlib
from pathlib import Path

from conftest import state_digest
from hiercl.runtime import Runtime

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (RunReport repr, final weights) of stream 0 of each workload. The repr
# digests were re-recorded when RunReport.phase_log and
# SelectionRecord.deferred_profiling_seen were deleted, and again when
# RunReport.final_per_class and ProfileRecord.epoch_measured were deleted,
# and again when RunReport.reuses was added: each new repr is the old one
# with those fields cut out (or ``reuses=[]`` put in), and the weights
# digests did not move.
PINNED = {
    # re-recorded when the first task's warmup moved to the grid conf nearest
    # the static split, when each profiled task began continuing from the
    # profiler's warm state, and when a task began reusing the conf that the
    # last two profiles agreed on (tasks 5-10 reuse (500, 500) unprofiled)
    "desk-adaptive": (
        "593db00fc7888ad6ae449a6f68e9c7a5221d76ac20cd2a7717b184ee1321c86b",
        "e0539a0836d4f66d038966a549905c84cc6d59458e4c137a448b7b84d21c9a15",
    ),
    "desk-static": (
        "7120efe7b3573d428c8eb25aab6876df24ece74d4ce9aeb9bd8029dd5510dd2f",
        "5dcac38d2dedbbda9ae1ef873693e65024d88ef36d0659351edd3be60acd58fc",
    ),
    # re-recorded when swap picks were capped at each class's fresh count
    "edge-congested": (
        "ebf03e68927ab9bf3d2dabde0f2efbbaddda859339a26668aed019d42eae9f33",
        "14b47dba4674510e4f1922856ed11158b47f634782a8f92a74c5899d882c248a",
    ),
}


def test_stream_zero_of_every_workload_passes_the_bench_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import observe, run_checks
    from workloads import WORKLOADS, build_inputs

    problems = {}
    digests = {}
    for name, workload in WORKLOADS.items():
        inputs = build_inputs(workload, 0)
        runtime = Runtime(inputs.config, inputs.policy)
        report = runtime.run(inputs.stream.tasks, inputs.stream.probe_sets)
        found = run_checks(observe(inputs, runtime, report))
        if report.aborted:
            found.append(f"run aborted: {report.abort_reason}")
        if found:
            problems[name] = found
        digests[name] = (
            hashlib.sha256(repr(report).encode()).hexdigest(),
            state_digest(runtime.state),
        )
    assert problems == {}
    assert digests == PINNED
