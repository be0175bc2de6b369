#!/usr/bin/env python3
"""Benchmark of the oscluster pipeline: closed-loop workloads with one client.

One workload, end-to-end metrics (tracing off) or per-layer metrics (traced):

    python3 perfbench/run.py --workload cluster-tall --seed 1 --seconds 20 --trace 0

All three workloads untraced, then traced, with a summary table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics. Details (every metric with unit,
direction and sample count, failures, the environment block) go to
perfbench/out/. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import MIN_BEYOND, median, min_samples, tail_percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("cluster-tall", "sweep-wide", "lab-validate")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
TAIL_PCT = 90
# Fresh processes that each run the import plus a first op; setup_s and
# peak_rss_mb are medians over them.
SETUP_PROBES = 3
# Traced runs measure per-span heap peaks on this many ops, with tracemalloc on.
MEMORY_PROBES = 3
# Stop taking new ops after this long, so the process ends within 180 s.
WALL_LIMIT_S = 140.0
PROBE_TIMEOUT_S = 60.0
CHILD_TIMEOUT_S = 180.0


class ProgramMissing(RuntimeError):
    pass


def main(argv=None) -> int:
    started = time.monotonic()
    args = _parse(argv)
    threads = pin_blas_threads()
    init = SRC / "oscluster" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: the program is missing ({init.relative_to(ROOT)} not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.setup_probe is not None:
            return _setup_probe(args)
        if args.workload == "all":
            return _run_all(args)
        return _run_workload(args, threads, started)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="input seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="minimum measured op time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def pin_blas_threads() -> dict:
    """Cap BLAS threads at the CPU-affinity count, before numpy is imported."""
    cpus = _cpu_count()
    pinned = {}
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= cpus):
            value = str(cpus)
        os.environ[var] = pinned[var] = value
    return pinned


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _import_program():
    """Import oscluster from this checkout's src/, never an installed copy."""
    import oscluster.cli  # noqa: F401  (the CLI imports every module the workloads use)

    oscluster = sys.modules["oscluster"]
    if Path(oscluster.__file__).resolve().parent != (SRC / "oscluster").resolve():
        raise ProgramMissing(f"imported oscluster from {oscluster.__file__}, not from src/")


def environment(threads: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "cpu_affinity": _cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        **_git_state(),
    }


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None, "git_note": "not a git checkout"}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"], check=True,
                                capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return {"git_sha": None, "git_dirty": None, "git_note": f"git failed: {exc}"}
    return {"git_sha": sha, "git_dirty": bool(status.strip())}


def _setup_probe(args) -> int:
    """Child process: time `import oscluster` plus one first op.

    The input comes pickled from the parent, which wrote it, so neither its
    generation time nor its generation's transient memory is counted.
    """
    t0 = time.perf_counter()
    _import_program()
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    with open(args.setup_probe, "rb") as fh:
        inp = pickle.load(fh)
    t0 = time.perf_counter()
    out = wl.run(inp)
    op_s = time.perf_counter() - t0
    failures, _ = wl.verify(inp, out)
    wl.cleanup(inp)
    print(json.dumps({"setup_s": import_s + op_s, "peak_rss_mb": _peak_rss_mb(),
                      "failures": failures}))
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _run_setup_probes(args, run) -> dict[str, list[float]]:
    """Setup time and peak RSS of SETUP_PROBES fresh processes, on inputs 0..SETUP_PROBES-1."""
    values = {"setup_s": [], "peak_rss_mb": []}
    for j in range(SETUP_PROBES):
        run.attempted += 1
        inp = run.wl.make_input(args.seed, j, run.work)
        path = run.work / f"probe-{j}.pickle"
        with open(path, "wb") as fh:
            pickle.dump(inp, fh, protocol=pickle.HIGHEST_PROTOCOL)
        del inp
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(path)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.SubprocessError as exc:
            run.fail(f"setup probe {j}", [f"{type(exc).__name__}: {exc}"])
            continue
        finally:
            path.unlink(missing_ok=True)
        if proc.returncode != 0:
            run.fail(f"setup probe {j}", [f"exit {proc.returncode}: {proc.stderr[-500:]}"])
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result[name])
        run.fail(f"setup probe {j}", result["failures"])
    return values


class Run:
    """The closed loop of one workload: input, op, check, cleanup, repeat."""

    def __init__(self, wl, seed: int, tracer):
        self.wl, self.seed, self.tracer = wl, seed, tracer
        self.work = OUT_DIR / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.quality: list[dict] = []

    def op(self, i: int, mode: str | None = None) -> tuple[float, bool]:
        """Run op i untraced (mode None), traced ("time") or heap-traced ("memory").

        Returns the op's wall time in ms and whether it returned (not raised).
        """
        inp = self.wl.make_input(self.seed, i, self.work)
        first_span = len(self.tracer.spans) if self.tracer else 0
        ctx = (self.tracer.recording(i, memory=mode == "memory") if mode
               else contextlib.nullcontext())
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with ctx:
                out = self.wl.run(inp)
            ms = (time.perf_counter() - t0) * 1e3
            failures, quality = self.wl.verify(inp, out)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.fail(f"op {i}", [f"{type(exc).__name__}: {exc}"])
            return (time.perf_counter() - t0) * 1e3, False
        finally:
            self.wl.cleanup(inp)
        if mode == "time":
            failures += self._accounting(first_span)
        self.fail(f"op {i}", failures)
        if quality is not None and not failures:
            self.quality.append(quality)
        return ms, True

    def fail(self, what: str, failures: list[str]) -> None:
        """Count `what` as one failed op if any of its checks failed."""
        if failures:
            self.failed += 1
            self.failures.extend(f"{what}: {f}" for f in failures)

    def _accounting(self, first_span: int) -> list[str]:
        from tracing import RUN_OSC_COVERAGE, OpSpans

        spans = OpSpans(self.tracer.spans[first_span:])
        return [f"run_osc children cover {c:.3f} < {RUN_OSC_COVERAGE}"
                for c in spans.coverage("run_osc") if c < RUN_OSC_COVERAGE]


def _metric(values, unit: str, reduce=median, **extra) -> dict:
    return {"value": reduce(values) if values else None, "unit": unit, "n": len(values),
            **extra}


def _run_workload(args, threads: dict, started: float) -> int:
    _import_program()
    from tracing import CONTEXT, LAYER_METRICS, OVERHEAD, Tracer, layer_values
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    run = Run(WORKLOADS[args.workload](), args.seed, tracer)
    probes = {} if args.trace else _run_setup_probes(args, run)

    i = SETUP_PROBES
    run.op(i)                                   # warm-up, not timed
    i += 1
    memory_ops = []
    if args.trace:
        for _ in range(MEMORY_PROBES):
            run.op(i, "memory")
            memory_ops.append(i)
            i += 1
    samples = {False: [], True: []}             # op ms by traced
    timing_ops = []
    measured_s = 0.0
    n_loop = 0
    floor = min_samples(TAIL_PCT)
    while (measured_s < args.seconds or n_loop < floor) and \
            time.monotonic() - started < WALL_LIMIT_S:
        traced = bool(args.trace) and n_loop % 2 == 1
        ms, ok = run.op(i, "time" if traced else None)
        if ok:
            samples[traced].append(ms)
            if traced:
                timing_ops.append(i)
        measured_s += ms / 1e3
        n_loop += 1
        i += 1

    metrics = {}
    if args.trace:
        metrics.update(layer_values(tracer, timing_ops, memory_ops))
        traced, untraced = samples[True], samples[False]
        overhead = median(traced) / median(untraced) - 1.0 if traced and untraced else None
        metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1], "n": len(traced)}
        wanted = [m.name for m in LAYER_METRICS if m.better != CONTEXT] + [OVERHEAD[0]]
    else:
        ops = samples[False]
        p90, beyond = tail_percentile(ops, TAIL_PCT) if ops else (None, 0)
        metrics["op_ms_p50"] = _metric(ops, "ms")
        metrics["op_ms_p90"] = {"value": p90, "unit": "ms", "n": len(ops), "beyond": beyond}
        metrics["peak_rss_mb"] = _metric(probes["peak_rss_mb"], "MB")
        metrics["setup_s"] = _metric(probes["setup_s"], "s")
        metrics["loop_rss_mb"] = _metric([_peak_rss_mb()], "MB")
        if beyond < MIN_BEYOND:
            # An under-sampled p90 must not reach a comparison: fail the run.
            run.fail("run", [f"only {beyond} samples beyond p{TAIL_PCT}, the rule asks for "
                             f"{MIN_BEYOND} (no new ops after {WALL_LIMIT_S:.0f} s)"])
        wanted = [name for name, _, _ in END_TO_END]
    metrics["error_rate"] = {"value": run.failed / run.attempted, "unit": "fraction",
                             "n": run.attempted}
    for name in ("acc", "nmi", "ari") if run.quality else ():
        metrics[f"{name}_mean"] = _metric([q[name] for q in run.quality], "fraction",
                                          statistics.fmean)

    env = environment(threads)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "attempted": run.attempted, "failed": run.failed,
              "failures": run.failures, "metrics": metrics,
              "op_ms": {"untraced": samples[False], "traced": samples[True]}}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    _detail_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
    for line in _rows(detail):
        print(line)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {k: metrics[name][k] for k in ("value", "unit", "absent")
                           if k in metrics[name]} for name in wanted},
    }))
    return 0


def _detail_path(workload: str, seed: int, trace: int) -> Path:
    return OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"


def _directions() -> dict:
    from tracing import LAYER_METRICS, OVERHEAD

    out = {name: better for name, _, better in END_TO_END}
    out.update({m.name: m.better for m in LAYER_METRICS})
    out[OVERHEAD[0]] = OVERHEAD[2]
    out["error_rate"] = out["loop_rss_mb"] = "lower"
    out.update({f"{q}_mean": "higher" for q in ("acc", "nmi", "ari")})
    return out


def _rows(detail: dict) -> list[str]:
    better = _directions()
    rows = []
    for name, m in detail["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        extra = f" ({m['beyond']} beyond)" if "beyond" in m else ""
        extra += f" [{m['absent']}]" if "absent" in m else ""
        rows.append(f"{detail['workload']:<13} {name:<28} {value:>12} {m['unit']:<8} "
                    f"{better.get(name, '?'):<6} n={m.get('n', 0)}{extra}")
    return rows


def _run_all(args) -> int:
    """Every workload untraced, then every workload traced, one process each."""
    status = 0
    details = []
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"# {name} trace={trace}", flush=True)
            path = _detail_path(name, args.seed, trace)
            path.unlink(missing_ok=True)
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S)
                correct = json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
            except (subprocess.SubprocessError, ValueError, IndexError, KeyError) as exc:
                print(f"{name} trace={trace}: {type(exc).__name__}: {exc}", file=sys.stderr)
                correct = False
            if not correct:
                status = 1
            if path.is_file():
                details.append(json.loads(path.read_text(encoding="utf-8")))
    print(f"{'workload':<13} {'metric':<28} {'value':>12} {'unit':<8} better sample count")
    for detail in details:
        for line in _rows(detail):
            print(line)
    if details:
        print("environment " + json.dumps(details[0]["environment"]))
    return status


if __name__ == "__main__":
    sys.exit(main())
