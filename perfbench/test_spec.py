"""BENCHMARK.json names exactly the workloads and metrics the code reports."""

import json
import os

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_per_layer_metrics_match_the_tracer():
    listed = [(m["name"], m["unit"], m["better"]) for m in _spec()["per_layer"]]
    assert listed == tracing.metric_specs()


def test_workloads_and_end_to_end_metrics_match_the_runner():
    import run

    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    workloads = run._import_workloads()
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
