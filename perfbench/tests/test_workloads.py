import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from oscluster.subspace_lab import SubspaceModel
from workloads import ClusterTall, LabValidate, SweepWide

BENCH_DIR = Path(__file__).resolve().parent.parent

SMALL = SubspaceModel(p=30, k=3, subspace_dims=(3, 3, 3), cluster_sizes=(20, 20, 20),
                      noise_sigmas=(0.2, 0.2, 0.2))


def test_tall_input_depends_only_on_seed_and_index(tmp_path):
    wl = ClusterTall(SMALL, k=3)
    a = wl.make_input(5, 2, tmp_path / "a").csv.read_bytes()
    wl.make_input(5, 3, tmp_path / "b")
    wl.make_input(6, 2, tmp_path / "c")
    again = wl.make_input(5, 2, tmp_path / "d").csv.read_bytes()
    assert a == again
    assert a != wl.make_input(5, 3, tmp_path / "e").csv.read_bytes()
    assert a != wl.make_input(6, 2, tmp_path / "f").csv.read_bytes()


def test_wide_input_depends_only_on_seed_and_index(tmp_path):
    wl = SweepWide(SMALL, k=3)
    first = wl.make_input(1, 0, tmp_path).data.values
    wl.make_input(1, 1, tmp_path)
    assert np.array_equal(first, wl.make_input(1, 0, tmp_path).data.values)
    assert not np.array_equal(first, wl.make_input(1, 1, tmp_path).data.values)
    assert not np.array_equal(first, wl.make_input(2, 0, tmp_path).data.values)


def test_lab_input_depends_only_on_seed_and_index(tmp_path):
    wl = LabValidate()
    seeds = {wl.make_input(s, i, tmp_path).seed for s in range(3) for i in range(50)}
    assert len(seeds) == 150
    assert wl.make_input(2, 7, tmp_path) == wl.make_input(2, 7, tmp_path)


def test_cli_stdout_is_swallowed_and_outputs_check(tmp_path, capsys):
    wl = ClusterTall(SMALL, k=3)
    inp = wl.make_input(0, 0, tmp_path)
    rc = wl.run(inp)
    assert capsys.readouterr().out == ""
    failures, quality = wl.verify(inp, rc)
    assert failures == []
    assert quality["acc"] > 0.9
    wl.cleanup(inp)
    assert not inp.csv.parent.exists()


def test_tall_check_rejects_a_report_from_another_op(tmp_path):
    wl = ClusterTall(SMALL, k=3)
    inp = wl.make_input(0, 0, tmp_path)
    assert wl.run(inp) == 0
    report_path = inp.out_dir / "report.json"
    report = json.loads(report_path.read_text())
    report["dataset"] = "tall-s0-i1"
    report["kmeans"]["objective_trace"] = [1.0, 2.0]
    report_path.write_text(json.dumps(report))
    failures, _ = wl.verify(inp, 0)
    assert any("not this op's report" in f for f in failures)
    assert any("increases" in f for f in failures)
    assert wl.verify(inp, 1)[0] == ["exit code 1"]


def test_sweep_and_lab_checks_pass_on_the_program_output(tmp_path):
    wl = SweepWide(SMALL, k=3)
    inp = wl.make_input(0, 0, tmp_path)
    failures, quality = wl.verify(inp, wl.run(inp))
    assert failures == [] and 0 <= quality["acc"] <= 1
    lab = LabValidate(replace(SMALL, p=40), m=9)
    model = lab.make_input(0, 0, tmp_path)
    assert lab.verify(model, lab.run(model)) == ([], None)


def test_benchmark_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, print no result."""
    root = tmp_path / "bare"
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_bytes((BENCH_DIR.parent / "BENCHMARK.json").read_bytes())
    for path in BENCH_DIR.glob("*.py"):
        (root / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lab-validate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
