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
# SelectionRecord.deferred_profiling_seen were deleted: each new repr is the
# old one with those fields cut out, and the weights digests did not move.
PINNED = {
    "desk-adaptive": (
        "abbed7bd0ec4cad757a3c5a6e443ee209380aa0a9e7f69c8a9082a5cda6f9cf2",
        "aed512a8389be1a8e0eb2a08035d095ba39dfd2f451a86c3732809950f13f607",
    ),
    "desk-static": (
        "067c8e1cbef585ab1b7930a0a0090e0bf59cce07738d2ec2a74c5df97d5d22d5",
        "5dcac38d2dedbbda9ae1ef873693e65024d88ef36d0659351edd3be60acd58fc",
    ),
    # re-recorded when swap picks were capped at each class's fresh count
    "edge-congested": (
        "f06a6cd77b6bc3adc4306ebf67568ad34bf821d71c525c00704da1957f67bd85",
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
