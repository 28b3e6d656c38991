"""Every benchmark workload must pass the benchmark's own output checks, so a
change that breaks one fails here, not only when the benchmark runs.

The same runs also pin every modeled output: a sha256 of each run's full
``RunReport`` repr and of its final learner weights. A change meant to leave
outputs byte-identical must pass these unedited; a deliberate re-baseline
re-records only the digests it moves and says why. A third sha256, of the
repr with every epoch loss masked, pins the modeled outputs apart from
rounding: a change that moves the losses and weights by rounding alone
re-records the first two and must pass it unedited.
"""

import hashlib
import re
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
# folded each layer's bias into its matrix product, and again when it moved
# to feature-major hidden activations: each moves the epoch losses and the
# weights by rounding alone, and each repr with its losses masked equals the
# one before (``PINNED_MODELED`` holds).
PINNED = {
    # re-recorded when the first task's warmup moved to the grid conf nearest
    # the static split, when each profiled task began continuing from the
    # profiler's warm state, and when a task began reusing the conf that the
    # last two profiles agreed on (tasks 5-10 reuse (500, 500) unprofiled)
    "desk-adaptive": (
        "a82e9335fb92e5ee76a2611359772afad258dd2efa4a377d7cc5229df8634387",
        "78fbad58df1b63670e9effb809fe3cae708f0651cb8dda9bbffe37aba957c921",
    ),
    "desk-static": (
        "ede6abf4a6cb40b4778cf679d06fe2bfcd0ffe68044c977a56f78c1736836260",
        "60a78f0779e0f7dc20f1b220eaf49896f44a15f43f9a16d9bec7e19275116129",
    ),
    # re-recorded when swap picks were capped at each class's fresh count
    "edge-congested": (
        "9e22724211bcada776407d7d2056b69028823a04c4b8ce3329c2ae1ac3fa2974",
        "c0dd1ef090b272397a117690bb276a6140459bd11b12e3dbfeaff6984672d179",
    ),
}

# sha256 of the RunReport repr of stream 0 of each workload with every
# ``loss=`` value masked (see ``masked_repr``)
PINNED_MODELED = {
    "desk-adaptive": "fc0874a0910d618a2b8d38773eeb0be9b0a3720b9bf64a6ad049177c91dd30be",
    "desk-static": "110eb25362139a5957fac3afb99787d31be7889b72817ff4ac681ac86d17005a",
    "edge-congested": "50ee578f1359a8857ca8d5b8cbef3b7f9159823b39202d23e4cc95be383bed2a",
}


def masked_repr(report) -> str:
    """The report's repr with each epoch loss replaced by ``*``: every
    decision, count, accuracy and joule it holds, and no loss float."""
    return re.sub(r"\bloss=[^,)]+", "loss=*", repr(report))


def test_stream_zero_of_every_workload_passes_the_bench_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import observe, run_checks
    from workloads import WORKLOADS, build_inputs

    problems = {}
    digests = {}
    modeled = {}
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
        modeled[name] = hashlib.sha256(masked_repr(report).encode()).hexdigest()
    assert problems == {}
    assert modeled == PINNED_MODELED
    assert digests == PINNED
