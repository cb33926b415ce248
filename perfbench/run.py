"""flowid benchmark: one seeded workload per call, run in its own processes.

    python3 perfbench/run.py --workload train_ref|detect_windows --seed N --seconds T --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
The set-up (inputs from the seed, plus the checkpoint detect_windows
loads) runs in one child process and the measured closed loop in a second, so
peak memory is the workload's own. Work files live under `.bench_work/` and
are removed at the end.

Output: one `env {...}` line, one `metric <name> <value> <unit>` line per
metric, an `errors ...` line, and as the last line one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # a run must end within 180 s
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "flows_per_s": "flows/s", "macro_f1": "ratio",
                    "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s/op"
    return {"extractors.extract_calls_per_snapshot": "calls/snapshot",
            "hypergraph.nodes": "nodes/call", "ingest.packets": "packets/op",
            "ingest.skipped_frames": "frames/op", "cli.windows": "windows/op",
            "trace.spans_per_op": "spans/op"}[name]


def metric_lines(metrics: dict) -> list[str]:
    """One `metric <name> <value> <unit>` line per metric, value with all digits."""
    lines = []
    for name, entry in metrics.items():
        if not NAME.fullmatch(name):
            raise ValueError(f"metric name {name!r} does not match {NAME.pattern}")
        lines.append(f"metric {name} {entry['value']!r} {entry['unit']}")
    return lines


def environment(args) -> dict:
    """What a result depends on besides the code: compare runs only when equal."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError) as exc:
        blas = f"unknown ({type(exc).__name__})"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def _child(step: str, args, work: Path, deadline: float) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, str(BENCH / "workloads.py"), step, "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(work), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # stdout carries the program's own console output, which the benchmark ignores
    subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))


def _terminate(signum, frame):
    # unwinding through subprocess.run kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    p = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=["train_ref", "detect_windows"], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "flowid" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        _child("setup", args, work, deadline)
        _child("measure", args, work, deadline)
        result = json.loads((work / "result.json").read_text())
    except subprocess.CalledProcessError as exc:
        print(f"error: benchmark {exc.cmd[2]} step exited with {exc.returncode}",
              file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: benchmark step timed out after {exc.timeout:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = result.get("per_layer", {})
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = result.get("end_to_end", {})
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    if not metrics:
        print("error: no operation succeeded; failures: " + "; ".join(result["failures"]),
              file=sys.stderr)
        return 1

    print("env " + json.dumps(environment(args), sort_keys=True))
    for line in metric_lines(metrics):
        print(line)
    attempted, failed = result["attempted"], result["failed"]
    print("ops wall_s=" + json.dumps(result["walls"]))
    print(f"errors failed={failed} attempted={attempted} error_rate={failed / attempted!r}"
          + "".join(f"\nfailure {msg}" for msg in result["failures"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
