import run


class FlakyWorkload:
    """Op i raises when i % 3 == 1 and fails its check when i % 3 == 2."""

    def __init__(self):
        self.cleaned = []

    def make_input(self, seed, i, work):
        return i

    def run(self, i):
        if i % 3 == 1:
            raise RuntimeError("boom")
        return i

    def verify(self, i, out):
        return (["bad output"] if i % 3 == 2 else []), {"acc": 1.0, "nmi": 1.0, "ari": 1.0}

    def cleanup(self, i):
        self.cleaned.append(i)


def test_raising_and_failed_ops_count_once_each_and_are_cleaned_up():
    wl = FlakyWorkload()
    loop = run.Run(wl, seed=0, tracer=None)
    results = [loop.op(i) for i in range(6)]
    assert [ok for _, ok in results] == [True, False, True] * 2
    assert all(ms >= 0 for ms, _ in results)
    assert loop.attempted == 6
    assert loop.failed == 4
    assert loop.failures[0] == "op 1: RuntimeError: boom"
    assert loop.failures[1] == "op 2: bad output"
    assert wl.cleaned == list(range(6))
    assert len(loop.quality) == 2      # only ops that passed their checks


def test_blas_threads_are_capped_at_the_cpu_count(monkeypatch):
    cpus = run._cpu_count()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(cpus + 5))
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    pinned = run.pin_blas_threads()
    assert pinned == {"OPENBLAS_NUM_THREADS": str(cpus), "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": str(cpus)}


def test_untraced_setup_probes_run_in_a_fresh_checkout(monkeypatch, tmp_path):
    """perfbench/out/ is not committed: the probes must create their work dir."""
    from workloads import LabValidate

    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    loop = run.Run(LabValidate(), seed=1, tracer=None)
    args = run._parse(["--workload", "lab-validate", "--seed", "1", "--trace", "0"])
    values = run._run_setup_probes(args, loop)
    assert loop.failures == []
    assert loop.attempted == run.SETUP_PROBES
    assert len(values["setup_s"]) == len(values["peak_rss_mb"]) == run.SETUP_PROBES
    assert list((tmp_path / "out" / "work").iterdir()) == []
