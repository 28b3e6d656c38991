"""Command-line entry points: run one experiment, sweep a grid, or validate
a stream spec. Config files are YAML with `stream`, `run`, and `cost`
sections; flags override file values."""

from __future__ import annotations

import dataclasses
import sys
import typing
from pathlib import Path

import click
import yaml

from .domain import validate_stream
from .harness import (
    STRATEGY_NAMES,
    StreamSpec,
    emit_report,
    generate_stream,
    make_policy,
    sweep,
    write_sweep,
)
from .learner import CostModel, LearnerDiverged
from .runtime import RunConfig, check_load_step, run_stream


_SECTIONS = {"stream": StreamSpec, "run": RunConfig, "cost": CostModel}

# keys another section sets, so each setting has one source
_SET_ELSEWHERE = {
    "run.cost": "set the cost section",
    "run.domain_incremental": "set stream.domain_incremental",
}


def _numeric_kind(hint) -> type | None:
    """`int` or `float` when a field holds a number (or None), else None."""
    kinds = {a for a in typing.get_args(hint) if a is not type(None)} or {hint}
    return kinds.pop() if len(kinds) == 1 and kinds <= {int, float} else None


def _read_number(kind: type, value, where: str):
    """A number or numeric string as a value of the field's `kind`.

    YAML 1.1 reads a float with an unsigned exponent (`100.0e6`) as a
    string, so such a value is read here instead of reaching the runtime.
    A float field keeps a number as it is; an int field takes an integral
    float (`2.0`, `1.0e+3`) as an int and refuses any other.
    """
    number = value
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            pass
    if isinstance(number, int) or (kind is float and isinstance(number, float)):
        return number
    if isinstance(number, float) and number.is_integer():
        return int(number)
    raise click.ClickException(f"{where}: expected {kind.__name__}, got {value!r}")


def _build(where: str, cls, fields: dict):
    """The section's dataclass; a value its own checks reject is a config error."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise click.ClickException(f"config {where}: {exc}") from None


def _read_section(name: str, section, cls) -> dict:
    if not isinstance(section, dict):
        raise click.ClickException(f"config section '{name}' must hold a mapping")
    hints = typing.get_type_hints(cls)
    out = {}
    for key, value in section.items():
        where = f"{name}.{key}"
        if key not in hints:
            raise click.ClickException(f"config {where}: unknown key")
        if where in _SET_ELSEWHERE:
            raise click.ClickException(f"config {where}: {_SET_ELSEWHERE[where]}")
        hint = hints[key]
        kind = _numeric_kind(hint)
        if dataclasses.is_dataclass(hint):
            value = _build(where, hint, _read_section(where, value or {}, hint))
        elif kind is not None and not (value is None and type(None) in typing.get_args(hint)):
            value = _read_number(kind, value, f"config {where}")
        out[key] = value
    return out


def _read_pair(entry, kind: type, where: str) -> tuple:
    """Numeric strings are read as numbers; numbers pass unchanged to the
    range checks of `RunConfig` and `check_load_step`."""
    if not isinstance(entry, list) or len(entry) != 2:
        raise click.ClickException(f"{where}: expected a pair, got {entry!r}")
    return tuple(_read_number(kind, v, where) if isinstance(v, str) else v for v in entry)


def _read_pairs(value, where: str, kind: type) -> list[tuple]:
    if not isinstance(value, list):
        raise click.ClickException(f"config {where}: expected a list of pairs, got {value!r}")
    return [_read_pair(entry, kind, f"config {where}[{i}]") for i, entry in enumerate(value)]


def _load_config(path: str | None) -> dict:
    """Read a YAML config; each section holds only its dataclass's fields,
    numeric fields hold numbers, and the run's load steps and budget
    schedule hold number pairs (`RunConfig` checks their ranges)."""
    if path is None:
        return {}
    with open(path) as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise click.ClickException("config file must hold a mapping")
    for name, cls in _SECTIONS.items():
        if name in data:
            data[name] = _read_section(name, data[name] or {}, cls)
    run = data.get("run", {})
    for key, kind in (("external_io_load", float), ("budget_schedule", int)):
        if key in run:
            run[key] = tuple(_read_pairs(run[key], f"run.{key}", kind))
    return data


def _load_congestion_trace(path: str | None) -> tuple[tuple[float, float], ...]:
    """CSV of time_seconds,bytes_per_second load steps, checked like
    `run.external_io_load`; a bad row, or a second row at one time, is an
    error naming its lines."""
    if path is None:
        return ()
    steps = []
    lines_at: dict[float, int] = {}
    for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("time"):
            continue
        where = f"congestion trace {path}, line {n}"
        try:
            step = check_load_step(_read_pair(line.split(","), float, where), where)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from None
        if (first := lines_at.setdefault(step[0], n)) != n:
            raise click.ClickException(
                f"congestion trace {path}, lines {first} and {n} are both at time {step[0]}"
            )
        steps.append(step)
    return tuple(steps)


def _int_list(ctx, param, value: str) -> list[int]:
    """A comma-separated list of integers; anything else is a one-line error."""
    try:
        return [int(v) for v in value.split(",")]
    except ValueError:
        raise click.ClickException(
            f"--{param.name}: expected comma-separated integers, got {value!r}"
        ) from None


def _strategy_list(ctx, param, value: str) -> list[str]:
    """A non-empty comma-separated list of strategy names, checked before any run."""
    names = [v.strip() for v in value.split(",") if v.strip()]
    if not names or not set(names) <= set(STRATEGY_NAMES):
        raise click.ClickException(
            f"--strategies: expected comma-separated names from "
            f"{', '.join(STRATEGY_NAMES)}, got {value!r}"
        )
    return names


def _build_spec(cfg: dict, **overrides) -> StreamSpec:
    merged = dict(cfg.get("stream", {}))
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return _build("stream", StreamSpec, merged)


def _build_run_config(cfg: dict, spec: StreamSpec, **overrides) -> RunConfig:
    """The run section over the defaults; the stream decides whether class
    overlap between tasks is valid."""
    merged = dict(cfg.get("run", {}))
    merged["domain_incremental"] = spec.domain_incremental
    cost_cfg = cfg.get("cost", {})
    if cost_cfg:
        merged["cost"] = _build("cost", CostModel, cost_cfg)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return _build("run", RunConfig, merged)


@click.group()
def main():
    """Replay-based continual learning over a two-level memory hierarchy."""


def _stream_flag(field: str, *decls, **attrs):
    """A stream flag that the command gets in its ``stream`` mapping, under
    the ``StreamSpec`` field it sets."""

    def collect(ctx, param, value):
        ctx.params.setdefault("stream", {})[field] = value

    return click.option(*decls, default=None, expose_value=False, callback=collect, **attrs)


_STREAM_FLAGS = (
    _stream_flag("n_tasks", "--tasks", type=int, help="Number of tasks"),
    _stream_flag("classes_per_task", "--classes-per-task", type=int),
    _stream_flag("samples_per_class", "--samples-per-class", type=int),
    _stream_flag("feature_dim", "--dim", type=int, help="Feature dimensionality"),
    _stream_flag("separation", "--separation", type=float, help="Class cluster separation"),
    _stream_flag("seed", "--stream-seed", type=int, help="Stream generation seed"),
)


def stream_flags(command):
    """Give a command the stream flags, as one ``stream`` mapping of
    ``StreamSpec`` field to value (None where a flag is not given)."""
    for flag in reversed(_STREAM_FLAGS):
        command = flag(command)
    return command


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--strategy", type=click.Choice(STRATEGY_NAMES), default="adaptive")
@click.option("--budget", type=int, default=None, help="Memory budget in samples")
@click.option("--cutline", type=float, default=None)
@click.option("--mode", type=click.Choice(["HU", "LE"]), default=None, help="Selection metric")
@click.option("--epochs", type=int, default=None, help="Epochs per task")
@click.option("--seed", type=int, default=None, help="Run seed")
@click.option("--fixed-ratio", type=float, default=None, help="Pin the swap ratio (disables adaptation)")
@click.option("--bandwidth", type=float, default=None, help="I/O bandwidth in bytes/s")
@click.option("--congestion-trace", type=click.Path(exists=True), default=None,
              help="CSV of time,bytes_per_s external load steps")
@click.option("--outdir", type=click.Path(), default="out")
@click.option("--label", default=None, help="Output file prefix")
@stream_flags
def run(config_path, strategy, budget, cutline, mode, epochs, seed, fixed_ratio,
        bandwidth, congestion_trace, outdir, label, stream):
    """Run one strategy over one synthetic stream and write reports."""
    cfg = _load_config(config_path)
    spec = _build_spec(cfg, **stream)
    config = _build_run_config(
        cfg,
        spec,
        budget_samples=budget,
        cutline=cutline,
        selection_mode=mode,
        epochs_per_task=epochs,
        seed=seed,
        fixed_swap_ratio=fixed_ratio,
        io_bandwidth_bytes_per_s=bandwidth,
        external_io_load=_load_congestion_trace(congestion_trace) or None,
    )
    stream = generate_stream(spec)
    try:
        policy = make_policy(strategy, stream, config)
    except LearnerDiverged as exc:
        raise click.ClickException(f"learner diverged: {exc}") from None
    try:
        report = run_stream(stream.tasks, stream.probe_sets, config, policy)
    except ValueError as exc:  # a run refuses bad input before it starts
        raise click.ClickException(str(exc)) from None
    paths = emit_report(report, outdir, label or strategy)
    click.echo(f"final average accuracy: {report.final_average_accuracy:.4f}")
    click.echo(f"total energy: {report.ledger.total:.2f} J "
               f"(profiling {report.ledger.profiling:.2f} J, profiled "
               f"{len(report.profiling_units)} of {len(report.accuracy_matrix)} tasks)")
    for name, path in paths.items():
        click.echo(f"  {name}: {path}")
    if report.aborted:
        raise click.ClickException(f"learner diverged: {report.abort_reason}")


@main.command("sweep")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--strategies", default="adaptive,static,heuristic", callback=_strategy_list,
              help="Comma-separated strategy list")
@click.option("--budgets", default="1000,2500,5000", callback=_int_list,
              help="Comma-separated budgets")
@click.option("--seeds", default="0,1,2", callback=_int_list, help="Comma-separated run seeds")
@click.option("--outdir", type=click.Path(), default="out")
@stream_flags
def sweep_cmd(config_path, strategies, budgets, seeds, outdir, stream):
    """Run a (strategy x budget x seed) grid and write combined scatter data."""
    cfg = _load_config(config_path)
    spec = _build_spec(cfg, **stream)
    config = _build_run_config(cfg, spec)
    for budget in budgets:
        for seed in seeds:
            # each run of the grid must pass the run section's own checks
            _build_run_config(cfg, spec, budget_samples=budget, seed=seed)
    try:
        points = sweep(spec, config, strategies=strategies, budgets=budgets, seeds=seeds)
    except LearnerDiverged as exc:
        raise click.ClickException(f"learner diverged: {exc}") from None
    except ValueError as exc:  # a run refuses bad input before it starts
        raise click.ClickException(str(exc)) from None
    path = write_sweep(points, outdir)
    click.echo(f"wrote {len(points)} points to {path}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@stream_flags
def validate(config_path, stream):
    """Generate the stream and check its structural invariants."""
    cfg = _load_config(config_path)
    spec = _build_spec(cfg, **stream)
    stream = generate_stream(spec)
    issues = validate_stream(stream.tasks, spec.domain_incremental)
    for issue in issues:
        click.echo(issue)
    if issues:
        sys.exit(1)
    click.echo(f"stream ok: {len(stream.tasks)} tasks, "
               f"{sum(len(t) for t in stream.tasks)} samples")


if __name__ == "__main__":
    main()
