import json

import layers
from conftest import BENCH_DIR


def declared(section):
    config = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in config[section]}


def test_per_layer_metrics_match_benchmark_json():
    run = {"screener_calls": 0, "model_calls": 0, "team_applications": 0, "rounds": 0,
           "cache": {"hits": 0, "team_invocations_saved": 0}, "phases": {},
           "overhead_ratio": 1.0, "wall_run_s": 1.0, "speed_scale": 1.0}
    produced = {name: unit for name, (_, unit) in layers.layer_metrics([], run).items()}
    assert produced == declared("per_layer")


def test_end_to_end_metrics_match_benchmark_json():
    import run

    assert run.END_TO_END_UNITS == declared("end_to_end")
