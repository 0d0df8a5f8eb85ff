"""One traced round of each benchmark workload, in-process.

Builds each workload of `ttobench` from its seed, installs the tracer that
wraps ttolab's public functions, runs one round through the benchmark's
own round loop and requires every operation to complete and pass its
check.  A package change that would end a benchmark run as failed or
incorrect, or break a name the tracer binds, fails here first.
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "ttobench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["boundary", "interior", "nehari"])
def test_one_traced_round_passes_its_checks(name):
    wl = workloads.build(name, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rounds = run.run_rounds(wl, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert len(rounds) == 1
    assert len(rounds[0]) == len(wl.schedule)
    problems = [f"{r.label}: {'; '.join(r.problems)}" for r in rounds[0] if not run.passed(r)]
    assert not problems, "\n".join(problems)
    # the tracer's wrappers were live: the round's calls went through them
    metrics = tracer.round_metrics(0)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["modelspace.basis_builds"] > 0
    assert metrics["modelspace.sample_evals"] > 0


def test_one_clark_pass_per_operation(monkeypatch):
    # a boundary `clark` operation asks for theta = 1 and theta = -1, an
    # interior one for the pair of cross_route_equivalence and then the
    # square measure: one pass each, also when an interior operation runs
    # again on the theta it keeps across rounds
    from ttolab import clark

    passes = []
    solve = clark._level_sets
    monkeypatch.setattr(clark, "_level_sets",
                        lambda *args: passes.append(args) or solve(*args))
    boundary = [op for op in workloads.build("boundary", 1).operations
                if op.label.startswith("clark") and op.degree <= 6]
    interior = list(workloads.build("interior", 1).operations[:8])
    assert len(boundary) == 5
    for op in boundary + interior:
        for _ in range(2):
            passes.clear()
            op.run()
            assert len(passes) == 1, op.label
