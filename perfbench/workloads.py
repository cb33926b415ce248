"""The benchmark's workloads, run in a child process of run.py.

    python3 perfbench/workloads.py setup   --workload W --seed S --dir D
    python3 perfbench/workloads.py measure --workload W --seed S --dir D \
        --seconds T --trace 0|1

`setup` generates the workload's inputs into D (and, for detect_windows,
trains the checkpoint it loads). `measure` runs the workload as a
closed loop, one operation after another, until the next operation would end
past T seconds, checks every operation's outputs, and writes D/result.json.
With --trace 1, every second operation runs with the tracer installed; the
untraced ones give the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import gen
from tracer import Span, Tracer, self_times

import flowid.cli as cli
import flowid.hypergraph as hypergraph
import flowid.tensor_core as tensor_core
import flowid.trainer as trainer
from flowid.augment import parse_pipeline
from flowid.config import TrainConfig
from flowid.ingest import parse_capture, write_flows_jsonl
from flowid.metrics import macro_f1_score
from flowid.tensor_core.optim import Adam

TRAIN_EPOCHS = 6            # fixed; early stopping off
# set-ups per fit: one takes about a second, and with one sample per fit the
# median of setup_s spread by a third between runs of the same code
TRAIN_SETUPS = 3
DETECT_WINDOWS = 50
DETECT_WIDTH = 60.0         # seconds per tumbling window
DETECT_PER_CLASS = 500      # 1,500 flows, 30 per window
CKPT_PER_CLASS = 60         # checkpoint trained on 108 flows, validated on 36
CKPT_FLAGS = ["--epochs", "12", "--no-early-stop"]
# The checkpoint is the fixed model under test: every run trains it from this
# seed, and --seed draws only the flows it scores. At this training budget the
# model's quality varies widely with its seed (detection macro-F1 0.89-0.97 over
# five seeds), which would swamp every change detect_windows can show.
CKPT_SEED = 0
PROB_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _count_parse(args, result):
    return {"packets": result.packets_kept, "skipped_frames": result.skipped_frames}


def _count_read(args, flows):
    return {"packets": sum(len(f.packets) for f in flows)}


def _count_knn(args, incidence):
    return {"nodes": int(incidence.shape[0])}


# (owner, attribute callers look it up by, span name, counter)
TRACE_TARGETS = [
    (cli, "parse_capture", "ingest.parse_capture", _count_parse),
    (cli, "read_flows_jsonl", "ingest.read_flows_jsonl", _count_read),
    (trainer, "build_view_batch", "ingest.build_view_batch", None),
    (trainer, "extract", "extractors.extract", None),
    (hypergraph, "knn_hyperedges", "hypergraph.knn", _count_knn),
    (trainer, "encode", "encoder.encode", None),
    (trainer, "predict", "encoder.predict", None),
    (trainer, "make_views", "augment.make_views", None),
    (trainer, "node_node_loss", "contrast.loss", None),
    (trainer, "group_group_loss", "contrast.loss", None),
    (tensor_core, "backward", "tensor_core.backward", None),
    (Adam, "step", "tensor_core.adam_step", None),
    (trainer, "train_step", "trainer.train_step", None),
    (cli, "load_checkpoint", "trainer.load_checkpoint", None),
    (cli, "prepare_snapshot", "trainer.prepare_snapshot", None),
    (trainer, "prepare_snapshot", "trainer.prepare_snapshot", None),
    (cli, "evaluate_probs", "trainer.evaluate_probs", None),
    (trainer, "evaluate_probs", "trainer.evaluate_probs", None),
]
# the only target of untraced runs: set-up time of the detect command
SETUP_TARGETS = [(cli, "load_checkpoint", "trainer.load_checkpoint", None)]

# per-layer self times reported, in seconds per operation
SELF_TIME_SPANS = sorted({name for _, _, name, _ in TRACE_TARGETS})
WINDOW_START = "flowid.cli.prepare_snapshot"
WINDOW_END = "flowid.cli.evaluate_probs"


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _checkpoint(work: Path) -> None:
    """Put the fixed checkpoint (and its metadata sidecar) into `work`. It is
    trained once per version of the program and settings, and kept next to
    the runs' work directories for the runs after."""
    source = Path(cli.__file__).resolve().parent
    key = hashlib.sha256(repr((CKPT_SEED, CKPT_PER_CLASS, CKPT_FLAGS)).encode())
    for path in sorted(source.rglob("*.py")):
        key.update(path.relative_to(source).as_posix().encode() + path.read_bytes())
    cache = work.parent / f"checkpoint-{key.hexdigest()[:16]}"
    if not (cache / "model.ckpt").is_file():
        fresh = work / "checkpoint"
        fresh.mkdir()
        train, val = gen.checkpoint_splits(CKPT_SEED, CKPT_PER_CLASS)
        write_flows_jsonl(train, fresh / "train.jsonl")
        write_flows_jsonl(val, fresh / "val.jsonl")
        code = cli.main(["train", "--flows", str(fresh / "train.jsonl"),
                         "--val", str(fresh / "val.jsonl"), "--out", str(fresh / "model.ckpt"),
                         "--seed", str(CKPT_SEED), *CKPT_FLAGS])
        if code != 0:
            raise RuntimeError(f"training the benchmark checkpoint exited with {code}")
        try:
            fresh.rename(cache)  # atomic; a concurrent run may have won
        except OSError:
            pass
        for stale in work.parent.glob("checkpoint-*"):  # older program versions
            if stale != cache:
                shutil.rmtree(stale, ignore_errors=True)
    if not (cache / "model.ckpt").is_file():
        cache = work / "checkpoint"
    for name in ("model.ckpt", "model.ckpt.meta.json"):
        shutil.copyfile(cache / name, work / name)


def setup(workload: str, seed: int, work: Path) -> None:
    if workload == "train_ref":
        for name, part in zip(("train", "val", "test"), gen.train_ref_splits(seed)):
            write_flows_jsonl(part, work / f"{name}.jsonl")
        return
    _checkpoint(work)
    flows = gen.detect_flows(seed, DETECT_PER_CLASS, DETECT_WINDOWS, DETECT_WIDTH)
    written = gen.write_pcap(flows, work / "capture.pcap")
    parsed = parse_capture(work / "capture.pcap", n=gen.PCAP_N, m=gen.PCAP_M).flows
    gen.check_round_trip(written, parsed)
    # the parser numbers flows by first appearance; scoring matches them to the
    # generator's labels through their 5-tuples
    labels = {f.key: f.label for f in flows}
    expected = {p.id: {"label": labels[p.key],
                       "window": math.floor(p.first_timestamp() / DETECT_WIDTH)}
                for p in parsed}
    (work / "expected.json").write_text(json.dumps(expected))


# ---------------------------------------------------------------------------
# operations: each returns its samples and raises on any failure
# ---------------------------------------------------------------------------

def train_ref_config(seed: int) -> TrainConfig:
    return TrainConfig(seed=seed, epochs=TRAIN_EPOCHS, patience=None,
                       aug1=parse_pipeline("nf:0.4"), aug2=parse_pipeline("ed:0.4"),
                       cosine_eps=1e-8).validate()


class TrainRef:
    """Read the splits, build parameters and the train/val snapshots (set-up,
    TRAIN_SETUPS times; the last one is used), fit for a fixed number of
    epochs, score the held-out test split."""

    def __init__(self, seed: int, work: Path):
        self.cfg = train_ref_config(seed)
        self.work = work
        self.first = None

    def __call__(self) -> dict:
        train, val, test = (cli.read_flows_jsonl(self.work / f"{n}.jsonl")
                            for n in ("train", "val", "test"))
        setups = []
        for _ in range(TRAIN_SETUPS):
            store = train_snap = val_snap = None  # free the last set-up's arrays first
            t0 = time.perf_counter()
            store = trainer.build_parameter_store(self.cfg, 2)
            train_snap = trainer.prepare_snapshot(train, store, self.cfg)
            val_snap = trainer.prepare_snapshot(val, store, self.cfg)
            t1 = time.perf_counter()
            setups.append(t1 - t0)
        result = trainer.fit(train_snap, val_snap, self.cfg, store=store)
        t2 = time.perf_counter()
        test_snap = trainer.prepare_snapshot(test, result.store, self.cfg)
        probs = trainer.evaluate_probs(test_snap, result.store, self.cfg)
        idx = test_snap.labels.labeled_indices()
        f1 = macro_f1_score(probs[idx].argmax(axis=1), test_snap.labels.y[idx], 2)

        _require(len(result.history) == self.cfg.epochs,
                 f"fit ran {len(result.history)} epochs, expected {self.cfg.epochs}")
        outcome = (f1, result.history)
        if self.first is None:
            self.first = outcome
        _require(outcome == self.first, "a fit repeated with the same seed gave a different "
                                        f"result (test macro-F1 {f1} vs {self.first[0]})")
        return {"setup_s": setups, "flows_per_s": len(train) * self.cfg.epochs / (t2 - t1),
                "macro_f1": f1}


class DetectWindows:
    """One `flowid detect` command per operation; set-up is its load_checkpoint."""

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.expected = json.loads((work / "expected.json").read_text())
        self.digest = None

    def __call__(self) -> dict:
        out = self.work / "detections.jsonl"
        t0 = time.perf_counter()
        code = cli.main(["detect", "--pcap", str(self.work / "capture.pcap"),
                         "--model", str(self.work / "model.ckpt"),
                         "--window", str(DETECT_WIDTH), "--out", str(out)])
        wall = time.perf_counter() - t0
        _require(code == 0, f"flowid detect exited with {code}")
        records = [json.loads(line) for line in out.read_text().splitlines()]
        check_detections(records, self.expected)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if self.digest is None:
            self.digest = digest
        _require(digest == self.digest, f"{out.name} differs from the first operation's")
        pred = [r["pred"] for r in records]
        truth = [self.expected[r["flow_id"]]["label"] for r in records]
        return {"flows_per_s": len(records) / wall,
                "macro_f1": macro_f1_score(pred, truth, 3)}


def check_detections(records: list[dict], expected: dict) -> None:
    """Exactly one record per expected flow, in its window, none skipped, and
    probabilities that sum to 1."""
    skipped = [r for r in records if r.get("skipped")]
    _require(not skipped, f"{len(skipped)} windows skipped, e.g. {skipped[:1]}")
    ids = [r["flow_id"] for r in records]
    _require(len(ids) == len(set(ids)), "a flow has more than one detection record")
    _require(set(ids) == set(expected),
             f"{len(set(expected) - set(ids))} flows missing, "
             f"{len(set(ids) - set(expected))} unknown flows in the detections")
    for r in records:
        _require(r["window"] == expected[r["flow_id"]]["window"],
                 f"{r['flow_id']} detected in window {r['window']}")
        _require(abs(math.fsum(r["probs"]) - 1.0) <= PROB_TOLERANCE,
                 f"{r['flow_id']} probabilities sum to {math.fsum(r['probs'])!r}")


WORKLOADS = {"train_ref": TrainRef, "detect_windows": DetectWindows}
# operations a run makes at least, whatever its time budget
MIN_OPS = {"train_ref": 3, "detect_windows": 4}
MIN_TRACED_OPS = {"train_ref": 1, "detect_windows": 2}
# leading operations that are checked but not timed: the first `flowid`
# command in a process runs slower than the next ones (first touch of its
# arrays); a fit shows no such effect and costs too much to discard
WARMUP_OPS = {"train_ref": 0, "detect_windows": 1}


# ---------------------------------------------------------------------------
# the closed loop and what it reports
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, work: Path, seconds: float, trace: bool) -> dict:
    """Closed loop until the next operation would end past `seconds`. With
    `trace`, odd-numbered operations run traced."""
    op = WORKLOADS[workload](seed, work)
    warmup = WARMUP_OPS[workload]
    tracer, probe = Tracer(), Tracer()
    min_ops = warmup + 2 * MIN_TRACED_OPS[workload] if trace else MIN_OPS[workload]
    samples, walls, traced_walls, failures = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        active = tracer if traced else probe
        active.install(TRACE_TARGETS if traced else SETUP_TARGETS)
        probed = len(probe.spans)
        t0 = time.perf_counter()
        try:
            with active.root("op"):
                sample = op()
        except Exception as exc:  # every failure counts against the run
            failures.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            sample = None
        finally:
            active.uninstall()
        wall = time.perf_counter() - t0
        attempted += 1
        if sample is not None and attempted > warmup:
            (traced_walls if traced else walls).append(wall)
            if not traced:
                # the detect command's set-up is its load_checkpoint call
                sample.setdefault("setup_s", [sum(
                    s.duration for s in probe.spans[probed:]
                    if s.name == "trainer.load_checkpoint")])
                samples.append(sample)
        if attempted >= min_ops and time.perf_counter() - start + wall > seconds:
            break

    result = {"attempted": attempted, "failed": len(failures), "failures": failures[:5],
              "walls": {"untraced": walls, "traced": traced_walls},
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        result["per_layer"] = layer_metrics(tracer.spans, walls, traced_walls)
    elif samples:
        result["end_to_end"] = {
            "setup_s": statistics.median(x for s in samples for x in s["setup_s"]),
            **{k: statistics.median(s[k] for s in samples) for k in ("flows_per_s", "macro_f1")},
            "peak_rss_mb": result["peak_rss_mb"]}
    return result


def window_latencies(spans: list[Span]) -> list[float]:
    """Per-window seconds: from a command's prepare_snapshot to the
    evaluate_probs that follows it on the same thread."""
    opened: dict[int, float] = {}
    out = []
    for s in sorted(spans, key=lambda s: s.start):
        if s.site == WINDOW_START:
            opened[s.thread] = s.start
        elif s.site == WINDOW_END and s.thread in opened:
            out.append(s.end - opened.pop(s.thread))
    return out


def _percentile(values: list[float], level: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(level / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def layer_metrics(spans: list[Span], untraced_walls: list[float],
                  traced_walls: list[float]) -> dict:
    """Per-layer metrics per traced operation (see perfbench/README.md)."""
    ops = max(1, sum(1 for s in spans if s.name == "op"))
    own = self_times(spans)
    metrics = {}
    for name in SELF_TIME_SPANS + ["op"]:
        total = sum(own[s.id] for s in spans if s.name == name)
        metrics["cli.self_s" if name == "op" else f"{name}_s"] = total / ops

    def count(name, key=None):
        hits = [s for s in spans if s.name == name]
        return sum(s.counts.get(key, 0) for s in hits) if key else len(hits)

    snapshots = count("trainer.prepare_snapshot")
    knn_calls = count("hypergraph.knn")
    metrics["extractors.extract_calls_per_snapshot"] = \
        count("extractors.extract") / snapshots if snapshots else 0.0
    metrics["hypergraph.nodes"] = count("hypergraph.knn", "nodes") / knn_calls \
        if knn_calls else 0.0
    metrics["ingest.packets"] = (count("ingest.parse_capture", "packets")
                                 + count("ingest.read_flows_jsonl", "packets")) / ops
    metrics["ingest.skipped_frames"] = count("ingest.parse_capture", "skipped_frames") / ops

    windows = window_latencies(spans)
    metrics["cli.window_p50_ms"] = 1e3 * _percentile(windows, 50.0)
    metrics["cli.window_p90_ms"] = 1e3 * _percentile(windows, 90.0)
    metrics["cli.windows"] = len(windows) / ops
    metrics["trace.spans_per_op"] = (len(spans) - ops) / ops
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - \
        statistics.median(untraced_walls) if traced_walls and untraced_walls else 0.0
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="workloads.py")
    p.add_argument("step", choices=["setup", "measure"])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.step == "setup":
        setup(args.workload, args.seed, args.dir)
        return 0
    result = measure(args.workload, args.seed, args.dir, args.seconds, bool(args.trace))
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
