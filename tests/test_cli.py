import json
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from hiercl.cli import _load_config, main
from hiercl.control import ControllerConfig
from hiercl.profiler import ProfilerConfig


MICRO = [
    "--tasks", "2",
    "--classes-per-task", "3",
    "--samples-per-class", "30",
    "--dim", "8",
]


def write_config(path: Path) -> Path:
    cfg = {
        "stream": {
            "n_tasks": 2,
            "classes_per_task": 3,
            "samples_per_class": 30,
            "feature_dim": 8,
            "seed": 1,
        },
        "run": {
            "epochs_per_task": 3,
            "step": 100,
            "budget_samples": 500,
            "batch_size": 16,
            "hidden_width": 8,
        },
        "cost": {"seconds_per_sample_step": 1e-4},
    }
    p = path / "exp.yaml"
    p.write_text(yaml.safe_dump(cfg))
    return p


def test_run_command_writes_reports(tmp_path):
    runner = CliRunner()
    cfg = write_config(tmp_path)
    result = runner.invoke(
        main,
        ["run", "--config", str(cfg), "--strategy", "static",
         "--outdir", str(tmp_path / "out"), "--seed", "3"],
    )
    assert result.exit_code == 0, result.output
    assert "final average accuracy" in result.output
    assert (tmp_path / "out" / "static_summary.json").exists()
    assert (tmp_path / "out" / "static_trace.csv").exists()


def test_run_adaptive_with_flags(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["run", *MICRO, "--strategy", "adaptive", "--budget", "600",
         "--epochs", "3", "--mode", "LE", "--cutline", "0.5",
         "--outdir", str(tmp_path), "--label", "mini"],
    )
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "mini_summary.json").read_text())
    assert summary["energy_joules"]["profiling"] > 0


def test_run_with_congestion_trace(tmp_path):
    trace = tmp_path / "load.csv"
    trace.write_text("time,bytes_per_s\n0.0,99990000\n")
    runner = CliRunner()
    # 200 samples per class, so EM holds part of each class's archive and
    # swaps are sent at all
    result = runner.invoke(
        main,
        ["run", "--tasks", "2", "--classes-per-task", "3", "--samples-per-class", "200",
         "--dim", "8", "--strategy", "static", "--budget", "1000",
         "--epochs", "4", "--congestion-trace", str(trace),
         "--outdir", str(tmp_path / "out")],
    )
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "out" / "static_trace.csv").read_text().splitlines()[1:]
    states = {line.split(",")[4] for line in rows}
    assert "congested" in states


@pytest.mark.parametrize(
    "row, message",
    [
        ("1.0,fast", "line 3: expected float, got 'fast'"),
        ("1.0,5.0,7.0", "line 3: expected a pair, got ['1.0', '5.0', '7.0']"),
        ("1.0,-5.0", "line 3: time and load must be >= 0, got [1.0, -5.0]"),
    ],
    ids=["non-number", "field-count", "negative"],
)
def test_bad_congestion_trace_row_names_its_line(tmp_path, row, message):
    trace = tmp_path / "load.csv"
    trace.write_text(f"time,bytes_per_s\n0.0,1000.0\n{row}\n")
    result = CliRunner().invoke(
        main,
        ["run", *MICRO, "--strategy", "static", "--congestion-trace", str(trace),
         "--outdir", str(tmp_path / "out")],
    )
    assert_config_error(result, f"congestion trace {trace}, {message}")


def test_sweep_command(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["sweep", *MICRO, "--strategies", "static,heuristic-50",
         "--budgets", "1000,1500", "--seeds", "0",
         "--outdir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "sweep_scatter.csv").read_text().splitlines()
    assert len(lines) == 5


def test_validate_command_ok():
    runner = CliRunner()
    result = runner.invoke(main, ["validate", *MICRO])
    assert result.exit_code == 0
    assert "stream ok" in result.output


def test_validate_domain_incremental_stream(tmp_path):
    cfg = tmp_path / "di.yaml"
    cfg.write_text(yaml.safe_dump({
        "stream": {
            "n_tasks": 2, "classes_per_task": 2, "samples_per_class": 10,
            "feature_dim": 4, "domain_incremental": True, "drift": 0.2, "seed": 0,
        }
    }))
    runner = CliRunner()
    result = runner.invoke(main, ["validate", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    assert "stream ok" in result.output


SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.yaml"))


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_run_shipped_edge_image_config(config, tmp_path):
    result = CliRunner().invoke(
        main, ["run", "--config", str(config), *MICRO, "--outdir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert "final average accuracy" in result.output


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_sweep_shipped_edge_image_config(config, tmp_path):
    result = CliRunner().invoke(
        main,
        ["sweep", "--config", str(config), *MICRO, "--strategies", "static",
         "--budgets", "500", "--seeds", "0", "--outdir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "sweep_scatter.csv").exists()


def test_config_numeric_string_is_read_as_number(tmp_path):
    """YAML 1.1 loads `100.0e6` (unsigned exponent) as a string; the loader
    reads it as the number it spells."""
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["run"]["io_bandwidth_bytes_per_s"] = "100.0e6"
    cfg["run"]["budget_samples"] = "5.0e2"
    path = tmp_path / "str.yaml"
    path.write_text(yaml.safe_dump(cfg))
    loaded = _load_config(str(path))
    assert loaded["run"]["io_bandwidth_bytes_per_s"] == 100e6
    assert loaded["run"]["budget_samples"] == 500
    assert isinstance(loaded["run"]["budget_samples"], int)
    result = CliRunner().invoke(
        main, ["run", "--config", str(path), "--strategy", "static",
               "--outdir", str(tmp_path / "out")],
    )
    assert result.exit_code == 0, result.output


def test_config_non_numeric_value_names_the_key(tmp_path):
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["run"]["io_bandwidth_bytes_per_s"] = "fast"
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    for command in (["run"], ["sweep", "--seeds", "0"]):
        result = CliRunner().invoke(
            main, [*command, "--config", str(path), "--outdir", str(tmp_path / "out")],
        )
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        assert "run.io_bandwidth_bytes_per_s" in result.output
        assert "Traceback" not in result.output


def test_domain_incremental_config_runs_and_sweeps(tmp_path):
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["stream"].update(domain_incremental=True, drift=0.2)
    path = tmp_path / "di.yaml"
    path.write_text(yaml.safe_dump(cfg))
    for command in (["run", "--strategy", "static"],
                    ["sweep", "--strategies", "static", "--budgets", "500", "--seeds", "0"]):
        result = CliRunner().invoke(
            main, [*command, "--config", str(path), "--outdir", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output

    cfg["run"]["domain_incremental"] = True
    path.write_text(yaml.safe_dump(cfg))
    result = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert result.exit_code != 0
    assert "run.domain_incremental" in result.output


def test_run_exits_nonzero_when_learner_diverges(tmp_path):
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["run"]["learning_rate"] = 1.0e6
    path = tmp_path / "diverge.yaml"
    path.write_text(yaml.safe_dump(cfg))
    result = CliRunner().invoke(
        main, ["run", "--config", str(path), "--strategy", "static",
               "--outdir", str(tmp_path / "out")],
    )
    assert result.exit_code == 1
    assert "learner diverged: " in result.output
    assert "Traceback" not in result.output
    summary = json.loads((tmp_path / "out" / "static_summary.json").read_text())
    assert summary["aborted"] is True


@pytest.mark.parametrize(
    "command, message",
    [
        (["sweep", "--strategies", "static", "--budgets", "180", "--seeds", "0"],
         "learner diverged: static at budget 180, seed 0: non-finite loss"),
        (["sweep", "--strategies", "adaptive", "--budgets", "180", "--seeds", "0"],
         "learner diverged: adaptive at budget 180, seed 0: non-finite loss"),
        (["run", "--strategy", "best-static"],
         "learner diverged: exploring Conf(sb_size=30, em_size=0): non-finite loss"),
    ],
    ids=["sweep-static", "sweep-adaptive", "run-best-static"],
)
def test_diverging_sweep_or_exploration_ends_in_one_line(tmp_path, command, message):
    path = tmp_path / "diverge.yaml"
    path.write_text(yaml.safe_dump({
        "stream": {"n_tasks": 2, "classes_per_task": 3, "samples_per_class": 30, "feature_dim": 8},
        "run": {"epochs_per_task": 3, "step": 30, "budget_samples": 180, "learning_rate": 1.0e6},
    }))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [*command, "--config", str(path), "--outdir", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {message}" in result.output
    assert "Traceback" not in result.output
    assert not (out / "sweep_scatter.csv").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("stream", "n_taks", 3),
        ("run", "budget_samles", 800),
        ("run", "archive_capacity_samples", 1000),
        ("run", "validate", False),
        ("cost", "gpu_watts", 7.0),
    ],
)
def test_config_unknown_key_names_the_key(tmp_path, section, key, value):
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg[section][key] = value
    path = tmp_path / "typo.yaml"
    path.write_text(yaml.safe_dump(cfg))
    result = CliRunner().invoke(main, ["run", "--config", str(path), "--outdir", str(tmp_path)])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    assert f"config {section}.{key}: unknown key" in result.output
    assert "Traceback" not in result.output


def invoke_run(tmp_path, cfg, *args):
    path = tmp_path / "exp_edit.yaml"
    path.write_text(yaml.safe_dump(cfg))
    result = CliRunner().invoke(
        main, ["run", "--config", str(path), "--outdir", str(tmp_path / "out"), *args]
    )
    return path, result


def assert_config_error(result, message):
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {message}" in result.output
    assert "Traceback" not in result.output


def test_nested_run_sections_are_read_as_their_dataclasses(tmp_path):
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["run"]["profiler"] = {"conf_sample_size": 3, "warmup_epochs": "2"}
    cfg["run"]["controller"] = {"decrease_factor": 0.25}
    path, result = invoke_run(tmp_path, cfg, "--strategy", "adaptive")
    assert result.exit_code == 0, result.output
    run = _load_config(str(path))["run"]
    assert run["profiler"] == ProfilerConfig(conf_sample_size=3, warmup_epochs=2)
    assert run["controller"] == ControllerConfig(decrease_factor=0.25)


@pytest.mark.parametrize(
    "section, message",
    [
        ({"controller": {"decrease_factr": 0.5}}, "controller.decrease_factr: unknown key"),
        ({"profiler": {"subsample": "most"}}, "profiler.subsample: expected float, got 'most'"),
        ({"profiler": {"subsample": 2.0}}, "profiler: subsample must be a fraction in (0, 1]"),
        ({"cost": {"static_watts": 2.5}}, "cost: set the cost section"),
    ],
)
def test_nested_run_section_errors_name_the_key(tmp_path, section, message):
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["run"].update(section)
    assert_config_error(invoke_run(tmp_path, cfg)[1], f"config run.{message}")


@pytest.mark.parametrize(
    "section, message",
    [
        ({"controller": {"decrease_factor": 3.0}}, "decrease_factor must be in (0, 1)"),
        ({"controller": {"congested_below": 5}}, "congested_below must be a completion rate in (0, 1]"),
        ({"controller": {"ratio_floor": -1.0}}, "ratio_floor must be in (0, 1]"),
        ({"controller": {"increase_step": -0.5}}, "increase_step must be in (0, 1]"),
        ({"controller": {"idle_empty_epochs": 0}}, "idle_empty_epochs must be >= 1"),
        ({"profiler": {"warmup_epochs": -3}}, "warmup_epochs must be >= 0"),
        ({"profiler": {"profile_epochs": 0}}, "profile_epochs must be >= 1"),
    ],
)
def test_out_of_range_controller_or_profiler_setting_exits_with_one_line(tmp_path, section, message):
    # decrease_factor 3.0 used to surface mid-run, on the first congested
    # epoch, as a "ratio out of range" traceback; the others ran and exited 0
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["run"].update(section)
    (name,) = section
    _, result = invoke_run(tmp_path, cfg, "--strategy", "adaptive")
    assert_config_error(result, f"config run.{name}: {message}")
    assert len(result.output.strip().splitlines()) == 1


def test_value_a_section_rejects_exits_with_one_line(tmp_path):
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["cost"]["gpu_dynamic_watts"] = 0.01
    _, result = invoke_run(tmp_path, cfg, "--strategy", "static")
    assert_config_error(result, "config cost: gpu_dynamic_watts must be the largest dynamic term")


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_cost_exits_with_one_line(tmp_path, value):
    # a NaN static_watts used to exit 0 with NaN joules in the summary
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["cost"]["static_watts"] = value
    _, result = invoke_run(tmp_path, cfg, "--strategy", "static")
    assert_config_error(result, f"config cost: static_watts must be finite, got {value!r}")
    assert len(result.output.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "run, args, message",
    [
        # each of these used to fail mid-run with a traceback, or exit 0
        ({}, ["--epochs", "0"], "epochs_per_task must be >= 1"),
        ({}, ["--strategy", "static", "--epochs", "0"], "epochs_per_task must be >= 1"),
        ({"batch_size": 0}, [], "batch_size must be >= 1"),
        ({"hidden_width": 0}, [], "hidden_width must be >= 1"),
        ({"step": 0}, [], "step must be >= 1"),
        ({"step": 20}, ["--budget", "10"], "budget_samples must hold at least one step (20)"),
        ({"learning_rate": 0.0}, [], "learning_rate must be > 0"),
        ({}, ["--cutline", "0"], "cutline must be a fraction in (0, 1]"),
        ({"cutline": 1.5}, [], "cutline must be a fraction in (0, 1]"),
        ({"selection_mode": "XX"}, [], "selection_mode must be HU or LE"),
        ({"initial_swap_ratio": -0.1}, [], "initial_swap_ratio must be in [0, 1]"),
        ({}, ["--fixed-ratio", "1.5"], "fixed_swap_ratio must be in [0, 1]"),
        ({}, ["--bandwidth", "0"], "io_bandwidth_bytes_per_s must be > 0"),
        ({"learning_rate": float("inf")}, [], "learning_rate must be finite, got inf"),
    ],
)
def test_out_of_range_run_setting_exits_with_one_line(tmp_path, run, args, message):
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["run"].update(run)
    _, result = invoke_run(tmp_path, cfg, *args)
    assert_config_error(result, f"config run: {message}")
    assert len(result.output.strip().splitlines()) == 1


@pytest.mark.parametrize("strategy", ["static", "best-static"])
def test_fixed_conf_strategy_meets_a_schedule_shrink(tmp_path, strategy):
    # each used to end in a "policy conf ... exceeds budget 60" traceback at task 3
    cfg = {
        "stream": {"n_tasks": 3, "classes_per_task": 3, "samples_per_class": 30, "feature_dim": 8},
        "run": {"epochs_per_task": 3, "step": 30, "budget_samples": 180,
                "budget_schedule": [[4, 60]]},
    }
    with pytest.warns(UserWarning, match="budget 60; falling back to the static split") as caught:
        _, result = invoke_run(tmp_path, cfg, "--strategy", strategy)
    assert result.exit_code == 0, result.output
    assert any("exceeds budget 60" in str(w.message) for w in caught)
    rows = (tmp_path / "out" / f"{strategy}_trace.csv").read_text().splitlines()[1:]
    live = [180] * 3 + [60] * 6
    assert len(rows) == len(live)
    for line, budget in zip(rows, live):
        em, sb = map(int, line.split(",")[5:7])
        assert em + sb <= budget


def test_sweep_budget_below_one_step_exits_before_any_run(tmp_path):
    result = CliRunner().invoke(
        main,
        ["sweep", "--config", str(write_config(tmp_path)), "--budgets", "500,10",
         "--outdir", str(tmp_path / "out")],
    )
    assert_config_error(result, "config run: budget_samples must hold at least one step (100)")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        # a value that is not a number pair fails as the config is read
        ("external_io_load", [[1.0, "fast"]], ".external_io_load[0]: expected float, got 'fast'"),
        ("external_io_load", [[1.0]], ".external_io_load[0]: expected a pair"),
        ("external_io_load", 5.0, ".external_io_load: expected a list of pairs"),
        ("budget_schedule", [[2, "big"]], ".budget_schedule[0]: expected int, got 'big'"),
        # a number pair out of range fails RunConfig's own checks
        ("external_io_load", [[0.0, 1.0], [-1.0, 5.0]],
         ": external_io_load[1]: time and load must be >= 0, got [-1.0, 5.0]"),
        ("external_io_load", [[1.0, -5.0]], ": external_io_load[0]: time and load must be >= 0"),
        ("budget_schedule", [[3, -5]], ": budget_schedule[0]: expected an integer epoch >= 0"),
        ("budget_schedule", [[1.5, 400]], ": budget_schedule[0]: expected an integer epoch >= 0"),
        ("budget_schedule", [[-1, 400]], ": budget_schedule[0]: expected an integer epoch >= 0"),
        ("budget_schedule", [[2, 400], [4, 50]],
         ": budget_schedule[1]: expected an integer epoch >= 0 and an integer budget >= step (100), "
         "got [4, 50]"),
    ],
)
def test_bad_load_or_schedule_entry_names_it(tmp_path, key, value, message):
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["run"][key] = value
    result = invoke_run(tmp_path, cfg)[1]
    assert_config_error(result, f"config run{message}")
    assert len(result.output.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (["run", "--seed", "-1"], "config run: seed must be >= 0"),
        (["run", "--stream-seed", "-2"], "config stream: seed must be >= 0"),
        (["sweep", "--seeds", "0,-1"], "config run: seed must be >= 0"),
    ],
    ids=["run-seed", "stream-seed", "sweep-seeds"],
)
def test_negative_seed_exits_with_one_line_before_any_run(tmp_path, args, message):
    result = CliRunner().invoke(
        main, [*args, *MICRO, "--outdir", str(tmp_path / "out")]
    )
    assert_config_error(result, message)
    assert len(result.output.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_load_and_schedule_are_read_as_number_pairs(tmp_path):
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["run"].update(external_io_load=[[0.5, "1.0e3"]], budget_schedule=[[2, "4.0e2"]])
    path, result = invoke_run(tmp_path, cfg, "--strategy", "static")
    assert result.exit_code == 0, result.output
    run = _load_config(str(path))["run"]
    assert run["external_io_load"] == ((0.5, 1000.0),)
    assert run["budget_schedule"] == ((2, 400),)


@pytest.mark.parametrize("option, value", [("--budgets", "1000,abc"), ("--seeds", "0,x")])
def test_sweep_non_integer_list_exits_before_any_run(tmp_path, option, value):
    result = CliRunner().invoke(
        main,
        ["sweep", "--config", str(write_config(tmp_path)), option, value,
         "--outdir", str(tmp_path / "out")],
    )
    assert_config_error(result, f"{option}: expected comma-separated integers, got {value!r}")
    assert len(result.output.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["static,bogus", "", " , "])
def test_sweep_bad_strategy_list_exits_before_any_run(tmp_path, value):
    # an unknown name used to fail only when its turn in the grid came, after
    # the runs before it, with a traceback and no scatter file
    result = CliRunner().invoke(
        main,
        ["sweep", "--config", str(write_config(tmp_path)), "--strategies", value,
         "--budgets", "500", "--seeds", "0", "--outdir", str(tmp_path / "out")],
    )
    assert_config_error(
        result,
        f"--strategies: expected comma-separated names from "
        f"adaptive, static, heuristic, heuristic-50, heuristic-20, best-static, "
        f"best-history, got {value!r}",
    )
    assert len(result.output.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep", "validate"])
@pytest.mark.parametrize("source", ["flag", "yaml"])
@pytest.mark.parametrize(
    "flag, key",
    [
        ("--tasks", "n_tasks"),
        ("--classes-per-task", "classes_per_task"),
        ("--samples-per-class", "samples_per_class"),
        ("--dim", "feature_dim"),
    ],
)
def test_empty_stream_setting_exits_with_one_line(tmp_path, command, source, flag, key):
    # each used to end in a traceback from deep inside the run, or (validate
    # with no classes) in a list of empty-task issues
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    args = [flag, "0"] if source == "flag" else []
    if source == "yaml":
        cfg["stream"][key] = 0
    path = tmp_path / "exp_edit.yaml"
    path.write_text(yaml.safe_dump(cfg))
    outdir = [] if command == "validate" else ["--outdir", str(tmp_path / "out")]
    result = CliRunner().invoke(main, [command, "--config", str(path), *args, *outdir])
    assert_config_error(result, f"config stream: {key} must be >= 1")
    assert len(result.output.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("run", "test_fraction", float("nan")),
        ("run", "separation", float("nan")),
        ("run", "drift", float("inf")),
        ("validate", "test_fraction", float("-inf")),
    ],
)
def test_non_finite_stream_setting_exits_with_one_line(tmp_path, command, key, value):
    # test_fraction: .nan used to end in a "cannot convert float NaN to integer"
    # traceback, and separation: .nan in a diverged run after its reports
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["stream"][key] = value
    path = tmp_path / "exp_edit.yaml"
    path.write_text(yaml.safe_dump(cfg))
    outdir = [] if command == "validate" else ["--outdir", str(tmp_path / "out")]
    result = CliRunner().invoke(main, [command, "--config", str(path), *outdir])
    assert_config_error(result, f"config stream: {key} must be finite, got {value!r}")
    assert len(result.output.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_non_finite_separation_flag_exits_with_one_line(tmp_path):
    result = CliRunner().invoke(main, ["validate", *MICRO, "--separation", "nan"])
    assert_config_error(result, "config stream: separation must be finite, got nan")


@pytest.mark.parametrize("size_bytes", [0, -64])
def test_nonpositive_sample_size_exits_with_one_line(tmp_path, size_bytes):
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["stream"]["size_bytes"] = size_bytes
    _, result = invoke_run(tmp_path, cfg, "--strategy", "static")
    assert_config_error(result, "config stream: size_bytes must be None or >= 1")
    assert len(result.output.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("validate", "stream", "samples_per_class", 20.5),
        ("run", "stream", "samples_per_class", 20.5),
        ("run", "stream", "size_bytes", 64.5),
        ("run", "run", "epochs_per_task", 2.5),
        ("run", "run", "budget_samples", "550.5"),
        ("run", "run.profiler", "warmup_epochs", 1.5),
        ("run", "run.controller", "idle_empty_epochs", 0.5),
    ],
)
def test_int_field_refuses_a_fraction(tmp_path, command, section, key, value):
    # the first two used to end in numpy's or range's TypeError traceback
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    name, _, nested = section.partition(".")
    (cfg[name].setdefault(nested, {}) if nested else cfg[name])[key] = value
    path = tmp_path / "exp_edit.yaml"
    path.write_text(yaml.safe_dump(cfg))
    outdir = [] if command == "validate" else ["--outdir", str(tmp_path / "out")]
    result = CliRunner().invoke(main, [command, "--config", str(path), *outdir])
    assert_config_error(result, f"config {section}.{key}: expected int, got {value!r}")
    assert len(result.output.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_int_field_reads_an_integral_float_as_int(tmp_path):
    cfg = yaml.safe_load(write_config(tmp_path).read_text())
    cfg["stream"]["samples_per_class"] = 30.0
    cfg["run"].update(epochs_per_task=3.0, profiler={"warmup_epochs": 2.0})
    path = tmp_path / "exp_edit.yaml"
    path.write_text(yaml.safe_dump(cfg).replace("budget_samples: 500", "budget_samples: 5.0e+2"))
    loaded = _load_config(str(path))
    read = (loaded["stream"]["samples_per_class"], loaded["run"]["epochs_per_task"],
            loaded["run"]["budget_samples"], loaded["run"]["profiler"].warmup_epochs)
    assert read == (30, 3, 500, 2) and all(type(v) is int for v in read)
    for command in (["validate"], ["run", "--strategy", "static", "--outdir", str(tmp_path / "out")]):
        result = CliRunner().invoke(main, [*command, "--config", str(path)])
        assert result.exit_code == 0, result.output
