"""The benchmark's workloads: each turns a seed into a stream, a run config
and a conf policy.

The values mirror the shipped configs but are spelled out here, so that a
change to a config file does not silently change what the benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from hiercl.harness import Stream, StreamSpec, generate_stream, make_policy
from hiercl.learner import CostModel
from hiercl.runtime import ConfPolicy, RunConfig


@dataclass(frozen=True)
class Workload:
    name: str
    spec: StreamSpec
    config: RunConfig
    strategy: str


@dataclass
class Inputs:
    """What one seed of a workload hands to the runtime."""

    stream: Stream
    config: RunConfig
    policy: ConfPolicy | None


# configs/desk.yaml: 10 tasks x 10 classes x 200 samples, budget 2500, 20 epochs
DESK_SPEC = StreamSpec(
    n_tasks=10, classes_per_task=10, samples_per_class=200, feature_dim=32, separation=0.8
)
DESK_RUN = RunConfig(
    epochs_per_task=20,
    batch_size=32,
    learning_rate=0.1,
    hidden_width=32,
    step=500,
    budget_samples=2500,
    cutline=0.5,
    selection_mode="HU",
    cost=CostModel(
        seconds_per_sample_step=1.0e-4,
        gpu_dynamic_watts=7.0,
        static_watts=2.5,
        io_active_watts=0.1,
        ram_watts_per_1k_samples=0.05,
    ),
)

# configs/edge_image.yaml's sample size and cost constants on a 5-task stream.
# An external load leaves 4 MB/s of the 100 MB/s channel from simulated
# t=60 s to t=140 s (tasks 3 and 4), then the channel is idle again.
EDGE_SPEC = StreamSpec(
    n_tasks=5,
    classes_per_task=10,
    samples_per_class=200,
    feature_dim=32,
    separation=0.8,
    size_bytes=3072,
)
EDGE_LOAD = ((60.0, 9.6e7), (140.0, 0.0))
EDGE_RUN = RunConfig(
    epochs_per_task=20,
    batch_size=32,
    learning_rate=0.1,
    hidden_width=32,
    step=500,
    budget_samples=5000,
    cutline=0.5,
    selection_mode="HU",
    io_bandwidth_bytes_per_s=1.0e8,
    external_io_load=EDGE_LOAD,
    cost=CostModel(
        seconds_per_sample_step=4.6e-4,
        gpu_dynamic_watts=7.0,
        static_watts=2.5,
        io_active_watts=0.1,
        ram_watts_per_1k_samples=0.05,
    ),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-adaptive", DESK_SPEC, DESK_RUN, "adaptive"),
        Workload("desk-static", DESK_SPEC, DESK_RUN, "static"),
        Workload("edge-congested", EDGE_SPEC, EDGE_RUN, "static"),
    )
}


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the stream and build the policy for one seed (the set-up)."""
    config = replace(workload.config, seed=seed)
    stream = generate_stream(replace(workload.spec, seed=seed))
    policy = make_policy(workload.strategy, stream, config)
    return Inputs(stream, config, policy)
