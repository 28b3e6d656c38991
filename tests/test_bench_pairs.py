"""``tools/bench_pairs.py``'s summary states the claim gate it measures
against: at least 10 pairs, every run correct and the modeled metrics equal,
faster in at least 9 of 10 pairs, a tie counting as no win, by a median gap
wider than the parent's interquartile range."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

MODELED = {"final_accuracy": 0.8, "total_joules": 100.0, "device_s": 5.0, "run_utility": 0.002}


def result(run_s, **modeled):
    metrics = {"run_s": run_s, **MODELED, **modeled}
    return {"metrics": {k: {"value": v} for k, v in metrics.items()}, "correct": True, "failed": 0}


def rows(before, after):
    return [{"before": result(b), "after": result(a)} for b, a in zip(before, after)]


BEFORE = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
FASTER = [b - 0.2 for b in BEFORE]


def failed_run(pairs):
    pairs[3]["after"]["failed"] = 1
    return pairs


def modeled_difference(pairs):
    pairs[3]["after"] = result(FASTER[3], total_joules=100.5)
    return pairs


@pytest.mark.parametrize(
    "before, after, spoil, won, gap, met",
    [
        (BEFORE, FASTER[:9] + BEFORE[9:], None, 9, True, True),
        (BEFORE, FASTER[:8] + BEFORE[8:], None, 8, True, False),
        (BEFORE, [b - 0.01 for b in BEFORE], None, 10, False, False),
        (BEFORE[:5], FASTER[:5], None, 5, True, False),
        (BEFORE[:1], FASTER[:1], None, 1, True, False),
        (BEFORE, FASTER, failed_run, 10, True, False),
        (BEFORE, FASTER, modeled_difference, 10, True, False),
    ],
    ids=["one-tie", "two-ties", "gap-inside-iqr", "five-pairs", "one-pair", "failed-run",
         "modeled-difference"],
)
def test_claim_gate(before, after, spoil, won, gap, met):
    pairs = rows(before, after)
    summary = bench_pairs.summarize(spoil(pairs) if spoil else pairs)
    assert summary["pairs"] == len(before)
    assert summary["run_s_pairs_won"] == won
    assert summary["run_s_median_gap_exceeds_before_iqr"] is gap
    assert summary["all_correct"] is (spoil is not failed_run)
    assert summary["modeled_identical"] is (spoil is not modeled_difference)
    assert summary["claim_met"] is met


def test_both_sides_get_median_and_quartiles():
    after = [b - 0.5 for b in BEFORE]
    run_s = bench_pairs.summarize(rows(BEFORE, after))["medians"]["run_s"]
    assert run_s["before"] == pytest.approx(1.045)
    assert run_s["after"] == pytest.approx(0.545)
    assert (run_s["before_q1"], run_s["before_q3"]) == pytest.approx((1.0175, 1.0725))
    assert (run_s["after_q1"], run_s["after_q3"]) == pytest.approx((0.5175, 0.5725))


def test_a_modeled_difference_is_reported():
    pairs = rows(BEFORE[:2], BEFORE[:2])
    pairs[1]["after"] = result(BEFORE[1], total_joules=100.5)
    assert bench_pairs.summarize(pairs)["modeled_identical"] is False


def test_traced_layers_are_medians_over_pairs():
    def traced(train_s):
        return {"metrics": {"learner.train_s": {"value": train_s}, "swap.issued": {"value": 7.0}}}

    pairs = [{"before": traced(b), "after": traced(a)}
             for b, a in [(0.60, 0.58), (0.65, 0.55), (0.63, 0.59)]]
    layers = bench_pairs.layer_medians(pairs)
    assert layers["learner.train_s"] == {"before": 0.63, "after": 0.58}
    assert layers["swap.issued"] == {"before": 7.0, "after": 7.0}


def never_run(*args, **kwargs):
    raise AssertionError("a bench run started before the inputs were checked")


def git_repo(path):
    path.mkdir()
    for args in (["init", "-q"], ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
                                 "--allow-empty", "-m", "empty"]):
        subprocess.run(["git", *args], cwd=path, check=True, capture_output=True)
    return path


@pytest.fixture
def no_runs(monkeypatch, tmp_path):
    # git looks no higher than tmp_path for a repository
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    monkeypatch.setattr(bench_pairs, "run_once", never_run)
    return tmp_path


def main_args(before, after, *specs):
    return [str(before), str(after), "--out", str(before.parent / "BENCH_x.json"), *specs]


def test_a_checkout_that_is_not_a_git_work_tree_fails_before_any_run(no_runs):
    before = git_repo(no_runs / "before")
    after = no_runs / "after"
    after.mkdir()
    with pytest.raises(SystemExit, match=r"git rev-parse HEAD failed in .*after: fatal: "):
        bench_pairs.main(main_args(before, after, "--runs", "desk-static:0:3"))
    assert not (no_runs / "BENCH_x.json").exists()


def test_a_missing_checkout_fails_before_any_run(no_runs):
    before = git_repo(no_runs / "before")
    with pytest.raises(SystemExit, match="after checkout .* is not a directory"):
        bench_pairs.main(main_args(before, no_runs / "after", "--runs", "desk-static:0:3"))


@pytest.mark.parametrize(
    "specs, bad",
    [
        (["--runs", "desk-static:0"], "'desk-static:0' is not WORKLOAD:SEED:PAIRS"),
        (["--runs", "desk-static:0:3", "desk-static:x:3"], "'desk-static:x:3'"),
        (["--runs", "desk-static:0:0"], "'desk-static:0:0'"),
        (["--runs", ":0:3"], "':0:3'"),
        (["--runs", "desk-static:0:3", "--traced", "desk-adaptive:1:2"],
         "'desk-adaptive:1:2' is not WORKLOAD\\[:PAIRS\\]"),
        (["--runs", "desk-static:0:3", "--traced", "desk-adaptive:-1"], "'desk-adaptive:-1'"),
    ],
)
def test_a_malformed_spec_fails_before_any_run(no_runs, specs, bad):
    before, after = git_repo(no_runs / "before"), git_repo(no_runs / "after")
    with pytest.raises(SystemExit, match=f"^bench_pairs: spec {bad}") as caught:
        bench_pairs.main(main_args(before, after, *specs))
    assert "\n" not in str(caught.value)


def test_well_formed_specs_parse():
    assert bench_pairs.parse_spec("desk-static:2:10", traced=False) == ("desk-static", 2, 10)
    assert bench_pairs.parse_spec("desk-adaptive", traced=True) == ("desk-adaptive", 0, 1)
    assert bench_pairs.parse_spec("desk-adaptive:3", traced=True) == ("desk-adaptive", 0, 3)
