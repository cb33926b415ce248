"""The functions perfbench/workloads.py traces must exist under the names it
patches, its tracer must put them back, and one operation of each workload
must run. A rename or a changed signature would otherwise break only
`python3 perfbench/run.py`."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TARGETS = workloads.TRACE_TARGETS + workloads.SETUP_TARGETS


def test_every_traced_function_exists():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in TARGETS
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_tracer_install_then_uninstall_restores_every_function():
    for targets in (workloads.TRACE_TARGETS, workloads.SETUP_TARGETS):
        before = [getattr(owner, attr) for owner, attr, _, _ in targets]
        tracer = Tracer()
        tracer.install(targets)
        try:
            assert all(getattr(owner, attr) is not original
                       for (owner, attr, _, _), original in zip(targets, before))
        finally:
            tracer.uninstall()
        assert all(getattr(owner, attr) is original
                   for (owner, attr, _, _), original in zip(targets, before))


def test_one_operation_of_each_workload_runs(tmp_path):
    # an untraced detect_windows operation reads its setup_s from the one
    # load_checkpoint span; without that span, setup_s would read 0
    for name, seed, loads in (("train_ref", 1201, 0), ("detect_windows", 1401, 1)):
        work = tmp_path / name
        work.mkdir()
        workloads.setup(name, seed, work)
        tracer = Tracer()
        tracer.install(workloads.SETUP_TARGETS)
        try:
            sample = workloads.WORKLOADS[name](seed, work)()
        finally:
            tracer.uninstall()
        assert sample["flows_per_s"] > 0 and 0.0 <= sample["macro_f1"] <= 1.0, name
        assert [s.name for s in tracer.spans] == ["trainer.load_checkpoint"] * loads, name
