"""Replay-based continual learning runtime and simulator over a two-level
memory hierarchy: fast stream buffer and episodic memory backed by a slow
sample archive, with adaptive swap-rate control and profiling-based
memory sizing."""

from .domain import (
    Conf,
    EnergyLedger,
    IoState,
    ProfileRecord,
    Sample,
    SampleTable,
    Task,
    validate_stream,
)
from .control import ControllerConfig, SwapController, adjust_ratio, classify_io, plan_from_ratio
from .learner import CostModel, LearnerState, charge_epoch, copy_state, evaluate, init_learner, probe_arrays, train_epoch
from .memory import EpisodicMemory, StorageArchive, compose_epoch_batches, flush
from .profiler import ProfilerConfig, build_search_space, profile_task, sample_confs
from .runtime import RunConfig, RunReport, Runtime, run_stream
from .selector import apply_cutline, select_record, utility
from .swap import IoChannel, SwapEngine
from .harness import StreamSpec, generate_stream, make_policy, sweep

__version__ = "0.1.0"
