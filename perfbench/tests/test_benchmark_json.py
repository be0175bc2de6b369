import json
from pathlib import Path

import run
from tracing import CONTEXT, LAYER_METRICS, OVERHEAD
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in LAYER_METRICS if m.better != CONTEXT] + \
        [OVERHEAD]
    assert BENCHMARK["run_seconds"] == run._parse(["--workload", "all", "--seed", "0"]).seconds
