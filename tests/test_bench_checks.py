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
# digests did not move. All six were re-recorded when the training step
# folded each layer's bias into its matrix product: that moves the epoch
# losses and the weights by rounding alone, and each repr with its losses
# masked equals the one before.
PINNED = {
    # re-recorded when the first task's warmup moved to the grid conf nearest
    # the static split, when each profiled task began continuing from the
    # profiler's warm state, and when a task began reusing the conf that the
    # last two profiles agreed on (tasks 5-10 reuse (500, 500) unprofiled)
    "desk-adaptive": (
        "0ad6fbfec5d559f9153bc2753b75bdf7dc7db3253b8fbb616c820cef14609d1b",
        "ec0059dbce924ec9bf1be43a9e82c44ac2aaa9851bbf1af74490c6756204b9a3",
    ),
    "desk-static": (
        "dfc89ca6124f0cca7314597cdb1b6b7416d1fbcd6e26cd3e349c14d1c7a966ba",
        "00239bec9aacd46af640b6675d428334ac4a3992ffc3e55733f655ad97675581",
    ),
    # re-recorded when swap picks were capped at each class's fresh count
    "edge-congested": (
        "b81bbbedfc110fac0a04ef7c9cefa0b61bf339413718d43d49519ce8c44d1d1b",
        "915768c70e6f74d21b270248038448562dcdc48df5124c91bbecf6a5200dac51",
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
