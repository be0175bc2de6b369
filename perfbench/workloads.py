"""The benchmark's three workloads.

Each workload makes the input of op i from (seed, i) alone, outside the timed
region (`make_input`), runs the op (`run`), checks its output (`verify`,
returning the list of failed checks and the quality readings) and removes what
the op wrote (`cleanup`). Every call into oscluster looks the name up on its
module at call time, so the tracer's wrappers see it.

cluster-tall   N=1200 >> p=120 through the `osc cluster` CLI: the N x N
               eigendecomposition and its canonicalization dominate; the only
               workload that covers CSV load and report writing.
sweep-wide     ORL-shaped N=400 << p=10304 through `sweep_theta` over three
               thresholds: the standardize GEMM, k-means++ seeding at k=40 and
               Lloyd carry the op, and the same decomposition is redone per
               threshold.
lab-validate   the theorem check `subspace_lab.validate` at p=500, N=250:
               projector separation dominates, and the spectral layer runs on a
               full-rank Gram instead of a correlation matrix.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from oscluster.subspace_lab import SubspaceModel, generate

# Roundoff allowance for "non-increasing", relative to the first objective.
TRACE_REL_TOL = 1e-12
# Exact-algebra checks of the lab verdict.
LAB_TOL = 1e-9


def _module(name: str):
    return importlib.import_module(f"oscluster.{name}")


def input_rng(seed: int, i: int) -> np.random.Generator:
    """The generator for op i's input: a function of (seed, i) only."""
    return np.random.default_rng([seed, i])


def _non_increasing(trace) -> bool:
    trace = np.asarray(trace, dtype=float)
    return trace.size > 0 and bool((np.diff(trace) <= TRACE_REL_TOL * abs(trace[0])).all())


def _quality(cells_or_metrics: list[dict], suffix: str = "") -> dict:
    return {name: float(np.mean([c[name + suffix] for c in cells_or_metrics]))
            for name in ("acc", "nmi", "ari")}


@dataclass(frozen=True)
class TallInput:
    csv: Path
    labels: Path
    out_dir: Path
    n: int


class ClusterTall:
    name = "cluster-tall"

    def __init__(self, model: SubspaceModel | None = None, k: int = 8):
        self.model = model or SubspaceModel(
            p=120, k=8, subspace_dims=(8,) * 8, cluster_sizes=(150,) * 8,
            noise_sigmas=(2.0,) * 8)
        self.k = k

    def make_input(self, seed: int, i: int, work: Path) -> TallInput:
        sample = generate(self.model, rng=input_rng(seed, i))
        op_dir = work / f"tall-s{seed}-i{i}"
        shutil.rmtree(op_dir, ignore_errors=True)
        op_dir.mkdir(parents=True)
        csv = op_dir / f"tall-s{seed}-i{i}.csv"
        labels = op_dir / "labels.txt"
        # One write call per file: on ext4 with online discard, deleting a file
        # built from many small writes was measured at ~0.1 s, a third of an op.
        csv.write_text("".join(",".join(map(repr, row)) + "\n"
                               for row in sample.y.T.tolist()), encoding="utf-8")
        labels.write_text("".join(f"{v}\n" for v in sample.labels.tolist()), encoding="utf-8")
        return TallInput(csv, labels, op_dir / "out", sample.y.shape[1])

    def run(self, inp: TallInput) -> int:
        argv = ["cluster", "--input", str(inp.csv), "--labels", str(inp.labels),
                "--k", str(self.k), "--out-dir", str(inp.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            return _module("cli").main(argv)

    def verify(self, inp: TallInput, rc: int) -> tuple[list[str], dict | None]:
        if rc != 0:
            return [f"exit code {rc}"], None
        try:
            report = json.loads((inp.out_dir / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"report.json: {exc}"], None
        failures = []
        # The out-dir did not exist before the op and the dataset name is unique
        # to op i, so a matching report is the one this op wrote.
        if report.get("dataset") != inp.csv.stem or report.get("N") != inp.n:
            failures.append("report.json is not this op's report")
        if not report["theta_of_m"] >= report["theta0"] - 1e-12:
            failures.append(f"theta_of_m {report['theta_of_m']} < theta0 {report['theta0']}")
        if not 1 <= report["m"] <= inp.n:
            failures.append(f"m={report['m']} outside [1, {inp.n}]")
        if not _non_increasing(report["kmeans"]["objective_trace"]):
            failures.append("objective trace increases")
        if "metrics" not in report:
            failures.append("no metrics in report")
            return failures, None
        return failures, _quality([report["metrics"]])

    def cleanup(self, inp: TallInput) -> None:
        shutil.rmtree(inp.csv.parent, ignore_errors=True)


@dataclass(frozen=True)
class SweepInput:
    index: int
    data: object          # oscluster.matrix.DataMatrix
    out_dir: Path


class SweepWide:
    name = "sweep-wide"
    thetas = (0.75, 0.85, 0.95)
    files = ("report.json", "per-run.jsonl", "table.csv")

    def __init__(self, model: SubspaceModel | None = None, k: int = 40):
        self.model = model or SubspaceModel(
            p=10304, k=40, subspace_dims=(5,) * 40, cluster_sizes=(10,) * 40,
            noise_sigmas=(0.1,) * 40)
        self.k = k

    def make_input(self, seed: int, i: int, work: Path) -> SweepInput:
        sample = generate(self.model, rng=input_rng(seed, i))
        out_dir = work / f"wide-s{seed}-i{i}"
        shutil.rmtree(out_dir, ignore_errors=True)
        return SweepInput(i, sample.to_data_matrix(name=f"wide-s{seed}-i{i}"), out_dir)

    def run(self, inp: SweepInput):
        experiments = _module("experiments")
        cfg = experiments.ExperimentConfig(k=self.k, theta_grid=self.thetas, repeats=1,
                                           seed=inp.index)
        report = experiments.sweep_theta(inp.data, cfg)
        report.write(str(inp.out_dir))
        return report

    def verify(self, inp: SweepInput, report) -> tuple[list[str], dict | None]:
        failures = []
        cells = sorted(report.cells, key=lambda c: c["theta0"])
        if [c["theta0"] for c in cells] != list(self.thetas):
            failures.append("cells do not match the theta grid")
        ms = [c["m"] for c in cells]
        if any(b < a for a, b in zip(ms, ms[1:])):
            failures.append(f"m decreases in theta: {ms}")
        if not all(_non_increasing(run.objective_trace) for run in report.runs):
            failures.append("a run's objective trace increases")
        for name in self.files:
            if not (inp.out_dir / name).is_file():
                failures.append(f"{name} missing")
        return failures, _quality(cells, "_mean") if cells else None

    def cleanup(self, inp: SweepInput) -> None:
        shutil.rmtree(inp.out_dir, ignore_errors=True)


class LabValidate:
    name = "lab-validate"

    def __init__(self, model: SubspaceModel | None = None, m: int = 50):
        self.model = model or SubspaceModel(
            p=500, k=5, subspace_dims=(10,) * 5, cluster_sizes=(50,) * 5,
            noise_sigmas=(0.5,) * 5)
        self.m = m

    def make_input(self, seed: int, i: int, work: Path) -> SubspaceModel:
        # validate() draws its trial-0 sample from default_rng([model.seed, 0]);
        # seed * 2**32 + i is distinct for every (seed, i) with i < 2**32.
        return replace(self.model, seed=seed * 2**32 + i)

    def run(self, model: SubspaceModel):
        return _module("subspace_lab").validate(model, m=self.m, trials=1)

    def verify(self, model: SubspaceModel, verdict) -> tuple[list[str], dict | None]:
        failures = []
        for name in ("orthonormality_err", "residual_orth_err"):
            if not getattr(verdict, name) <= LAB_TOL:
                failures.append(f"{name}={getattr(verdict, name)!r} > {LAB_TOL}")
        if not abs(verdict.delta_hat - 1.0) <= LAB_TOL:
            failures.append(f"delta_hat={verdict.delta_hat!r} is not 1 (overlap 0)")
        return failures, None

    def cleanup(self, model: SubspaceModel) -> None:
        pass


WORKLOADS = {w.name: w for w in (ClusterTall, SweepWide, LabValidate)}
