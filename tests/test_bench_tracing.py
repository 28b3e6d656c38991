"""The benchmark's layer tracer patches library names from outside; a rename
of any of them must fail here, not only when the benchmark runs."""

from pathlib import Path

from hiercl.runtime import run_stream

from test_runtime import tiny_config, tiny_stream

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_layer_tracer_installs_and_sees_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import layer_tracer

    tracer = layer_tracer()
    stream = tiny_stream()
    with tracer.installed():
        # 6 live epochs after the 2 warmup ones, so that a swap is issued
        run_stream(stream.tasks, stream.probe_sets, tiny_config(epochs_per_task=8))
    expected = {name for _, _, name, _ in tracer._targets}
    assert set(tracer.totals()) == expected
