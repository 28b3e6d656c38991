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
# RunReport.final_per_class and ProfileRecord.epoch_measured were deleted:
# each new repr is the old one with those fields cut out, and the weights
# digests did not move.
PINNED = {
    # re-recorded when the first task's warmup moved to the grid conf nearest
    # the static split, and again when each profiled task began continuing
    # from the profiler's warm state
    "desk-adaptive": (
        "1650d7f6fa54bde9a01869474b148fb1e155068d260b3d105c51a26eed55d2d3",
        "66a7259f35d324ce4d784f1cb8988170400dbebe854cc3a73f943f001ec38cbd",
    ),
    "desk-static": (
        "50ada78c4becbca20505e30f96df6902e8d306b68e94d89a082aa8cc381858cf",
        "5dcac38d2dedbbda9ae1ef873693e65024d88ef36d0659351edd3be60acd58fc",
    ),
    # re-recorded when swap picks were capped at each class's fresh count
    "edge-congested": (
        "dec8928a4691c5655c11e988d5296f90b94ed144d244ae369eb3bc96e1cbba8f",
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
