import json
import os

import numpy as np
import pytest

from oscluster.cli import main
from oscluster.subspace_lab import SubspaceModel, error_decay_study, generate


@pytest.fixture
def dataset(tmp_path):
    model = SubspaceModel(p=30, k=3, subspace_dims=(2, 2, 2),
                          cluster_sizes=(15, 15, 15),
                          noise_sigmas=(0.02, 0.02, 0.02), seed=17)
    sample = generate(model)
    x_path = tmp_path / "X.csv"
    y_path = tmp_path / "y.txt"
    np.savetxt(x_path, sample.y.T, delimiter=",")
    np.savetxt(y_path, sample.labels, fmt="%d")
    return str(x_path), str(y_path), tmp_path


def test_cluster_happy_path(dataset, capsys):
    x, y, tmp = dataset
    out = str(tmp / "out")
    code = main(["cluster", "--input", x, "--labels", y, "--k", "3",
                 "--theta", "0.85", "--seed", "7", "--out-dir", out])
    assert code == 0
    payload = json.loads((tmp / "out" / "report.json").read_text())
    assert {"acc", "nmi", "ari"} <= set(payload["metrics"])
    assert payload["metrics"]["acc"] == 1.0
    assert payload["config"]["seed"] == 7
    assert payload["config"]["theta"] == 0.85
    assert (tmp / "out" / "trace.csv").exists()
    stdout = capsys.readouterr().out
    assert "acc=1" in stdout


def test_cluster_missing_k_is_usage_error(dataset, capsys):
    x, y, _ = dataset
    code = main(["cluster", "--input", x, "--labels", y])
    assert code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_metrics_subcommand(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0\n0\n1\n1\n")
    b.write_text("1\n1\n0\n0\n")
    code = main(["metrics", "--true", str(a), "--pred", str(b)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["acc"] == 1.0
    assert payload["n"] == 4
    assert payload["clusters_true"] == 2 and payload["clusters_pred"] == 2


def test_metrics_length_mismatch_exit_one(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0\n1\n")
    b.write_text("0\n1\n0\n")
    code = main(["metrics", "--true", str(a), "--pred", str(b)])
    assert code == 1
    assert "LengthMismatch" in capsys.readouterr().err


def test_cluster_constant_row_exit_one(tmp_path, capsys):
    x = tmp_path / "X.csv"
    x.write_text("1,1,1\n1,2,3\n4,5,6\n")
    code = main(["cluster", "--input", str(x), "--k", "2",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "ConstantRow" in capsys.readouterr().err


def test_determinism_byte_identical_metrics(dataset):
    x, y, tmp = dataset
    args = ["cluster", "--input", x, "--labels", y, "--k", "3", "--seed", "123"]
    out1, out2 = str(tmp / "d1"), str(tmp / "d2")
    assert main(args + ["--out-dir", out1]) == 0
    assert main(args + ["--out-dir", out2]) == 0
    p1 = json.loads((tmp / "d1" / "report.json").read_text())
    p2 = json.loads((tmp / "d2" / "report.json").read_text())
    for payload in (p1, p2):
        payload.pop("timings_ms")
        payload["config"].pop("out_dir")
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)


def test_outputs_stay_in_out_dir(dataset, monkeypatch):
    x, y, tmp = dataset
    workdir = tmp / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = str(tmp / "sandboxed")
    assert main(["cluster", "--input", x, "--labels", y, "--k", "3",
                 "--out-dir", out]) == 0
    assert os.listdir(workdir) == []


def test_sweep_subcommand(dataset):
    x, y, tmp = dataset
    out = str(tmp / "sweep")
    code = main(["sweep", "--input", x, "--labels", y, "--k", "3",
                 "--theta-grid", "0.7,0.9", "--repeats", "2", "--restarts", "3",
                 "--seed", "1", "--out-dir", out])
    assert code == 0
    payload = json.loads((tmp / "sweep" / "report.json").read_text())
    assert [c["theta0"] for c in payload["cells"]] == [0.7, 0.9]
    assert (tmp / "sweep" / "per-run.jsonl").exists()


def test_subset_subcommand(dataset):
    x, y, tmp = dataset
    out = str(tmp / "subset")
    code = main(["subset", "--input", x, "--labels", y,
                 "--subset-counts", "2,3", "--repeats", "2", "--restarts", "3",
                 "--seed", "2", "--out-dir", out])
    assert code == 0
    payload = json.loads((tmp / "subset" / "report.json").read_text())
    assert [c["categories"] for c in payload["cells"]] == [2, 3]


def test_bench_subcommand(dataset):
    x, y, tmp = dataset
    out = str(tmp / "bench")
    code = main(["bench", "--input", x, "--labels", y, "--k", "3",
                 "--repeats", "2", "--restarts", "3", "--seed", "3",
                 "--out-dir", out])
    assert code == 0
    payload = json.loads((tmp / "bench" / "report.json").read_text())
    assert [c["method"] for c in payload["cells"]] == ["osc", "raw-kmeans", "pca-kmeans"]


def test_validate_theorem_subcommand(tmp_path, capsys):
    out = str(tmp_path / "lab")
    code = main(["validate-theorem", "--p", "30", "--k", "2", "--dims", "2,2",
                 "--sizes", "20,20", "--sigmas", "0.05,0.1", "--trials", "3",
                 "--seed", "5", "--out-dir", out])
    assert code == 0
    payload = json.loads((tmp_path / "lab" / "verdict.json").read_text())
    assert payload["orthonormality_err"] < 1e-8
    assert payload["m"] == 4 and payload["trials"] == 3
    stdout = capsys.readouterr().out
    assert "orthonormality_err" in stdout


def test_validate_theorem_with_decay(tmp_path):
    out = str(tmp_path / "lab")
    code = main(["validate-theorem", "--p", "30", "--k", "2", "--dims", "2,2",
                 "--sizes", "20,20", "--sigmas", "0.05,0.1",
                 "--signal-mean", "0,0", "--trials", "4",
                 "--n-grid", "40,80", "--seed", "5", "--out-dir", out])
    assert code == 0
    decay = (tmp_path / "lab" / "decay.csv").read_text().strip().split("\n")
    assert decay[0] == "n,cross_block_max,within_offdiag_max"
    assert len(decay) == 3


def test_validate_theorem_decay_uses_m(tmp_path):
    out = tmp_path / "lab"
    code = main(["validate-theorem", "--p", "30", "--k", "2", "--dims", "2,2",
                 "--sizes", "20,20", "--sigmas", "0.05,0.1", "--m", "6",
                 "--trials", "3", "--n-grid", "40,80", "--seed", "5",
                 "--out-dir", str(out)])
    assert code == 0
    model = SubspaceModel(p=30, k=2, subspace_dims=(2, 2), cluster_sizes=(20, 20),
                          noise_sigmas=(0.05, 0.1), seed=5)
    assert model.union_dim < 6
    expected = error_decay_study(model, (40, 80), 3, m=6).to_delimited()
    assert (out / "decay.csv").read_text() == expected


@pytest.mark.parametrize("missing", ["--input", "--labels"])
def test_missing_input_file_is_one_line_error(dataset, capsys, missing):
    x, y, tmp = dataset
    paths = {"--input": x, "--labels": y, missing: str(tmp / "absent.csv")}
    code = main(["cluster", "--input", paths["--input"], "--labels", paths["--labels"],
                 "--k", "3", "--out-dir", str(tmp / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("Unreadable: ")
    assert "Traceback" not in err


def test_cluster_report_has_the_run_record_schema(dataset):
    x, y, tmp = dataset
    assert main(["cluster", "--input", x, "--labels", y, "--k", "3",
                 "--out-dir", str(tmp / "c")]) == 0
    assert main(["sweep", "--input", x, "--labels", y, "--k", "3",
                 "--theta-grid", "0.85", "--repeats", "1", "--out-dir", str(tmp / "s")]) == 0
    assert main(["bench", "--input", x, "--labels", y, "--k", "3", "--repeats", "1",
                 "--out-dir", str(tmp / "b")]) == 0
    report = json.loads((tmp / "c" / "report.json").read_text())
    records = [json.loads(line) for name in ("s", "b")
               for line in (tmp / name / "per-run.jsonl").read_text().splitlines()]
    assert len(records) == 4    # one sweep run, then osc, raw-kmeans and pca-kmeans
    for record in records:
        assert set(report) - {"config"} == set(record)


def test_validate_theorem_infeasible_dims_exit_one(tmp_path, capsys):
    code = main(["validate-theorem", "--p", "3", "--k", "2", "--dims", "2,2",
                 "--sizes", "10,10", "--sigmas", "0.1,0.1",
                 "--out-dir", str(tmp_path / "lab")])
    assert code == 1
    assert "InfeasibleDims" in capsys.readouterr().err
