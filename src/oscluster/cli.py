"""Command-line front end.

Subcommands: cluster, sweep, subset, bench, validate-theorem, metrics.
Exit codes: 0 success, 1 structured data/numeric error (error name printed on
one line, an unreadable input file included), 2 usage error. All file output
stays inside --out-dir.

`cluster` writes report.json, one run record in the schema of the studies'
per-run.jsonl lines (see `oscluster.experiments`) plus the resolved `config`,
and trace.csv. sweep, subset and bench write report.json, per-run.jsonl and
table.csv.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import OscError
from .experiments import (
    BASELINE_NAMES,
    ExperimentConfig,
    RunRecord,
    bench_runtime,
    subset_robustness,
    sweep_theta,
)
from .factor import run_osc
from .kmeans import KMeansConfig, write_objective_trace
from .matrix import load_labels, load_matrix, validate
from .metrics import contingency_table, evaluate
from .subspace_lab import SubspaceModel, error_decay_study, validate as validate_subspaces

DEFAULT_OUT_DIR = "./osc-out"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.handler(args)
    except OscError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osc",
        description="Orthogonal subspace clustering toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("cluster", help="run the full pipeline on one dataset")
    _add_data_flags(p)
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_cluster)

    p = sub.add_parser("sweep", help="threshold sweep with repeats")
    _add_data_flags(p, labels_required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta-grid", type=_floats, default=(0.70, 0.75, 0.80, 0.85, 0.90),
                   help="comma-separated thresholds (default 0.70,...,0.90)")
    p.add_argument("--repeats", type=int, default=20)
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("subset", help="robustness across category subsets")
    _add_data_flags(p, labels_required=True)
    p.add_argument("--subset-counts", type=_ints, default=(2, 4, 7, 15, 30),
                   help="comma-separated category counts")
    p.add_argument("--repeats", type=int, default=20)
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_subset)

    p = sub.add_parser("bench", help="runtime comparison against baselines")
    _add_data_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--baselines", type=_names, default=BASELINE_NAMES,
                   help=f"comma-separated subset of {','.join(BASELINE_NAMES)}")
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("validate-theorem",
                       help="Monte Carlo residual diagnostics on synthetic subspace data")
    p.add_argument("--p", type=int, required=True, help="ambient dimension")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--dims", type=_ints, required=True, help="per-cluster subspace dims")
    p.add_argument("--sizes", type=_ints, required=True, help="per-cluster sample counts")
    p.add_argument("--sigmas", type=_floats, required=True, help="per-cluster noise sigmas")
    p.add_argument("--signal-strength", type=_floats, default=None,
                   help="per-cluster signal coordinate variance (default 1)")
    p.add_argument("--signal-mean", type=_floats, default=None,
                   help="per-cluster signal coordinate mean (default 3*sqrt(strength))")
    p.add_argument("--m", type=int, default=None,
                   help="projection dimension (default sum of dims)")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--n-grid", type=_ints, default=None,
                   help="total sample sizes for the decay study (optional)")
    p.add_argument("--decay-trials", type=int, default=None,
                   help="trials per decay grid point (default --trials)")
    _add_common_flags(p, include_theta=False, include_restarts=False)
    p.set_defaults(handler=_cmd_validate_theorem)

    p = sub.add_parser("metrics", help="score a predicted labeling against truth")
    p.add_argument("--true", dest="true_path", required=True, help="true label file")
    p.add_argument("--pred", dest="pred_path", required=True, help="predicted label file")
    p.add_argument("-v", "--verbose", action="count", default=0)
    p.set_defaults(handler=_cmd_metrics)

    return parser


def _add_data_flags(p, labels_required=False):
    p.add_argument("--input", required=True, help="CSV matrix, one sample per line")
    p.add_argument("--labels", required=labels_required,
                   help="label file, one integer per line")
    p.add_argument("--name", default=None, help="dataset name for reports")


def _add_common_flags(p, include_theta=True, include_restarts=True):
    if include_theta:
        p.add_argument("--theta", type=float, default=0.85,
                       help="cumulative variance threshold (default 0.85)")
    if include_restarts:
        p.add_argument("--restarts", type=int, default=10)
        p.add_argument("--max-iter", type=int, default=300)
        p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=DEFAULT_OUT_DIR)
    p.add_argument("-v", "--verbose", action="count", default=0)


def _cmd_cluster(args) -> int:
    data = _load_data(args)
    cfg = KMeansConfig(k=args.k, max_iter=args.max_iter, tol=args.tol,
                       restarts=args.restarts, seed=args.seed)
    report = run_osc(data, args.theta, args.k, cfg)
    payload = RunRecord.from_osc(report, "cluster", {}).to_dict()
    payload["config"] = _resolved_config(args)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_json(os.path.join(args.out_dir, "report.json"), payload)
    write_objective_trace(os.path.join(args.out_dir, "trace.csv"),
                          report.clustering.objective_trace)
    print(f"m={report.m} theta(m)={_g6(report.theta_of_m)} "
          f"iters={report.clustering.iterations} "
          f"objective={_g6(report.clustering.objective_trace[-1])}")
    if report.metrics is not None:
        print(f"acc={_g6(report.metrics.acc)} nmi={_g6(report.metrics.nmi)} "
              f"ari={_g6(report.metrics.ari)}")
    print(f"report: {os.path.join(args.out_dir, 'report.json')}")
    return 0


def _cmd_sweep(args) -> int:
    data = _load_data(args)
    cfg = _experiment_config(args, theta_grid=tuple(args.theta_grid))
    report = sweep_theta(data, cfg)
    report.write(args.out_dir)
    for cell in report.cells:
        print(f"theta0={cell['theta0']:.2f} m={cell['m']} "
              f"acc={_g6(cell['acc_mean'])}±{_g6(cell['acc_sd'])}")
    return 0


def _cmd_subset(args) -> int:
    data = _load_data(args)
    cfg = _experiment_config(args, k=2, subset_category_counts=tuple(args.subset_counts))
    report = subset_robustness(data, cfg)
    report.write(args.out_dir)
    for cell in report.cells:
        print(f"categories={cell['categories']} acc={_g6(cell['acc_mean'])}"
              f"±{_g6(cell['acc_sd'])} nmi={_g6(cell['nmi_mean'])}±{_g6(cell['nmi_sd'])}")
    return 0


def _cmd_bench(args) -> int:
    data = _load_data(args)
    cfg = _experiment_config(args, baselines=tuple(args.baselines))
    report = bench_runtime(data, cfg)
    report.write(args.out_dir)
    for cell in report.cells:
        line = f"{cell['method']}: wall={_g6(cell['wall_ms_mean'])}ms"
        if "acc_mean" in cell:
            line += f" acc={_g6(cell['acc_mean'])}"
        print(line)
    return 0


def _cmd_validate_theorem(args) -> int:
    model = SubspaceModel(
        p=args.p, k=args.k,
        subspace_dims=tuple(args.dims),
        cluster_sizes=tuple(args.sizes),
        noise_sigmas=tuple(args.sigmas),
        signal_min_eig=tuple(args.signal_strength) if args.signal_strength else None,
        signal_mean=tuple(args.signal_mean) if args.signal_mean else None,
        overlap=args.overlap,
        seed=args.seed,
    )
    m = args.m if args.m is not None else model.union_dim
    verdict = validate_subspaces(model, m, args.trials)
    payload = verdict.to_dict()
    payload["config"] = _resolved_config(args)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_json(os.path.join(args.out_dir, "verdict.json"), payload)
    print(json.dumps(_round6(verdict.to_dict()), indent=2))
    if args.n_grid:
        study = error_decay_study(model, tuple(args.n_grid),
                                  args.decay_trials or args.trials, m=m)
        with open(os.path.join(args.out_dir, "decay.csv"), "w", encoding="utf-8") as fh:
            fh.write(study.to_delimited())
        print(f"decay slope={_g6(study.slope)} "
              f"({os.path.join(args.out_dir, 'decay.csv')})")
    return 0


def _cmd_metrics(args) -> int:
    true_labels = load_labels(args.true_path)
    pred_labels = load_labels(args.pred_path)
    report = evaluate(true_labels, pred_labels)
    table = contingency_table(true_labels, pred_labels)
    print(json.dumps({
        "acc": report.acc,
        "nmi": report.nmi,
        "ari": report.ari,
        "n": table.n,
        "clusters_true": int(table.row_labels.size),
        "clusters_pred": int(table.col_labels.size),
    }, indent=2))
    return 0


def _load_data(args):
    raw = load_matrix(args.input)
    labels = load_labels(args.labels) if args.labels else None
    name = args.name or os.path.splitext(os.path.basename(args.input))[0]
    return validate(raw, labels=labels, name=name)


def _experiment_config(args, **overrides) -> ExperimentConfig:
    base = dict(
        k=getattr(args, "k", 2),
        theta0=getattr(args, "theta", 0.85),
        repeats=getattr(args, "repeats", 20),
        seed=args.seed,
        restarts=getattr(args, "restarts", 10),
        max_iter=getattr(args, "max_iter", 300),
        tol=getattr(args, "tol", 1e-6),
        dataset=getattr(args, "input", ""),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _resolved_config(args) -> dict:
    skip = {"handler"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _g6(value) -> str:
    return f"{float(value):.6g}"


def _round6(obj):
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    if isinstance(obj, list):
        return [_round6(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    return obj


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _names(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


if __name__ == "__main__":
    sys.exit(main())
