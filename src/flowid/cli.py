"""Command-line pipeline: extract | train | eval | detect | sweep | synth.

Exit codes: 0 success, 1 I/O or runtime failure, 2 malformed input format,
3 configuration/usage error (including unknown flags).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .augment import parse_pipeline
from .config import TrainConfig
from .errors import (
    CheckpointError,
    ConfigError,
    FlowFormatError,
    FlowidError,
    PcapFormatError,
    ShapeError,
)
from .ingest import (
    ParseResult,
    default_spec,
    generate_synthetic_flows,
    parse_capture,
    read_flows_jsonl,
    split_flows,
    write_flows_jsonl,
)
from .trainer import (
    build_parameter_store,
    evaluate_probs,
    fit,
    load_checkpoint,
    prepare_snapshot,
    save_checkpoint,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_FORMAT = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems in one line with exit code 3."""

    def error(self, message):
        print(f"usage error: {self.prog}: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


# TrainConfig fields whose flag is not --field-name
_FLAG_NAMES = {"learning_rate": "lr"}


def _scalar_flags() -> list:
    """(field, flag) for each int and float TrainConfig field."""
    return [(f, "--" + _FLAG_NAMES.get(f.name, f.name).replace("_", "-"))
            for f in fields(TrainConfig) if type(f.default) in (int, float)]


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    for f, flag in _scalar_flags():
        p.add_argument(flag, type=type(f.default), default=f.default)
    defaults = TrainConfig()
    p.add_argument("--aug1", type=str, default=defaults.aug1.spec_string())
    p.add_argument("--aug2", type=str, default=defaults.aug2.spec_string())
    p.add_argument("--cnn-channels", type=str,
                   default=",".join(map(str, defaults.cnn_channels)))
    p.add_argument("--no-early-stop", action="store_true")


def _config_from_args(args) -> TrainConfig:
    values = {f.name: getattr(args, flag[2:].replace("-", "_")) for f, flag in _scalar_flags()}
    if args.no_early_stop:
        values["patience"] = None
    return TrainConfig(**values, aug1=parse_pipeline(args.aug1), aug2=parse_pipeline(args.aug2),
                       cnn_channels=tuple(_int_list("--cnn-channels", args.cnn_channels)),
                       ).validate()


def _meta_path(model_path: str) -> Path:
    return Path(str(model_path) + ".meta.json")


def _write_meta(model_path: str, cfg: TrainConfig) -> None:
    _meta_path(model_path).write_text(json.dumps({"config": cfg.echo()}, indent=2))


def _load_model(args) -> tuple:
    """(store, cfg) from --model and its required sidecar. The checkpoint must
    hold exactly the model that the sidecar's config describes."""
    meta_file = _meta_path(args.model)
    try:
        cfg = TrainConfig.from_echo(json.loads(meta_file.read_text())["config"])
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CheckpointError(f"{meta_file}: malformed metadata: {exc!r}") from exc
    return load_checkpoint(args.model, cfg.validate()), cfg


def _int_list(flag: str, text: str) -> list[int]:
    values = []
    for raw in text.split(","):
        try:
            values.append(int(raw))
        except ValueError:
            raise ConfigError(f"{flag} expects integers, got {raw!r}") from None
    return values


def _train(train_flows, val_flows, cfg: TrainConfig):
    """fit's result for a new model whose prediction head has one class per
    label up to the training data's largest."""
    _require_labels(train_flows, "training")
    _require_labels(val_flows, "validation")
    store = build_parameter_store(cfg, max(f.label or 0 for f in train_flows + val_flows) + 1)
    train_snap = prepare_snapshot(train_flows, store, cfg)
    val_snap = prepare_snapshot(val_flows, store, cfg)
    return fit(train_snap, val_snap, cfg, store=store)


def _score(flows, store, cfg: TrainConfig):
    """(probs, report) of the model on labeled `flows`, in one snapshot."""
    snapshot = prepare_snapshot(flows, store, cfg)
    probs = evaluate_probs(snapshot, store, cfg)
    return probs, snapshot.report(probs)


def _require_labels(flows, split: str) -> None:
    if all(f.label is None for f in flows):
        raise ConfigError(f"{split} flows carry no labels")


def _read_input_flows(args, n: int, m: int) -> ParseResult:
    """The flows of --pcap, capped at n packets and m payload bytes, or of
    --flows as written."""
    if n < 1 or m < 1:
        raise ConfigError(f"packet cap n and byte cap m must be >= 1, got n={n}, m={m}")
    if not args.timeout > 0:  # NaN fails; inf means flows never split on idle
        raise ConfigError(f"idle_timeout must be positive, got {args.timeout}")
    if args.pcap:
        return parse_capture(args.pcap, n=n, m=m, idle_timeout=args.timeout)
    return ParseResult(read_flows_jsonl(args.flows))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_extract(args) -> int:
    result = _read_input_flows(args, args.n, args.m)
    for flow in result.flows:  # --pcap's flows are capped already, --flows' are as written
        del flow.packets[args.n:]
        for pkt in flow.packets:
            pkt.payload_prefix = pkt.payload_prefix[:args.m]
    write_flows_jsonl(result.flows, args.out)
    print(" ".join(f"{k}={v}" for k, v in result.counters().items()))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    print("config " + json.dumps(cfg.echo()))
    train_flows = read_flows_jsonl(args.flows)
    val_flows = read_flows_jsonl(args.val)
    result = _train(train_flows, val_flows, cfg)
    print(f"data train_flows={len(train_flows)} val_flows={len(val_flows)} "
          f"classes={result.store.get('predict.b2').shape[0]}")
    save_checkpoint(result.store, args.out)
    _write_meta(args.out, cfg)
    Path(str(args.out) + ".history.json").write_text(json.dumps(result.history, indent=2))
    print(f"done best_epoch={result.best_epoch} "
          f"best_val_macro_f1={result.best_val_macro_f1:.4f} "
          f"epochs_ran={len(result.history)}")
    return EXIT_OK


def cmd_eval(args) -> int:
    store, cfg = _load_model(args)
    flows = read_flows_jsonl(args.flows)
    _require_labels(flows, "evaluation")
    probs, report = _score(flows, store, cfg)
    Path(args.report).write_text(report.to_json())
    if args.pred_out:
        with open(args.pred_out, "w", encoding="utf-8") as fh:
            for flow, p in zip(flows, probs):
                fh.write(json.dumps({"flow_id": flow.id, "pred": int(p.argmax()),
                                     "probs": [float(x) for x in p]}) + "\n")
    print(report.to_text())
    print(f"macro_f1={report.macro_f1:.4f}")
    return EXIT_OK


def assign_windows(flows, duration: float) -> dict[int, list]:
    """Epoch-aligned tumbling windows: each flow lands in exactly one window,
    chosen by its first packet's timestamp."""
    if not duration > 0:  # NaN fails; inf means one window
        raise ConfigError(f"window duration must be positive, got {duration}")
    windows: dict[int, list] = {}
    for flow in flows:
        index = flow.first_timestamp() / duration
        if not abs(index) < 2 ** 63:  # NaN and inf fail too
            raise ConfigError(f"window duration {duration} puts a flow starting at "
                              f"{flow.first_timestamp()} s in a window index beyond int64")
        windows.setdefault(math.floor(index), []).append(flow)
    return windows


def cmd_detect(args) -> int:
    store, cfg = _load_model(args)
    flows = _read_input_flows(args, cfg.n, cfg.m).flows
    windows = assign_windows(flows, args.window)

    # written, and skipped windows reported, only after every window has been
    # scored: a failing window leaves one error line and no output
    records = []
    for index, members in sorted(windows.items()):
        if len(members) < cfg.k + 1:
            records.append({"window": index, "skipped": True, "flows": len(members),
                            "reason": f"fewer than K+1={cfg.k + 1} flows"})
            continue
        snapshot = prepare_snapshot(members, store, cfg)
        probs = evaluate_probs(snapshot, store, cfg)
        records.extend({"flow_id": flow.id, "window": index, "pred": int(p.argmax()),
                        "probs": [float(x) for x in p]}
                       for flow, p in zip(members, probs))
    with open(args.out, "w", encoding="utf-8") as fh:
        for record in records:
            if record.get("skipped"):
                print(f"window {record['window']}: skipped "
                      f"({record['flows']} flows < K+1={cfg.k + 1})", file=sys.stderr)
            fh.write(json.dumps(record) + "\n")
    print(f"windows={len(windows)} flows={len(flows)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.flows and not (args.val and args.test):
        raise ConfigError("sweep with --flows also needs --val and --test")
    base = _config_from_args(args)
    values = _int_list("--values", args.values)
    seeds = _int_list("--seeds", args.seeds) if args.seeds else [base.seed]

    if args.flows:  # read once: nothing below modifies the flows
        given = tuple(read_flows_jsonl(path) for path in (args.flows, args.val, args.test))
        _require_labels(given[2], "test")
    rows = []
    for value in values:
        for seed in seeds:
            cfg = replace(base, seed=seed, **{args.param: value}).validate()
            if args.flows:
                train_flows, val_flows, test_flows = given
            else:
                flows = generate_synthetic_flows(
                    default_spec(args.synth_classes, args.per_class), seed=seed)
                train_flows, val_flows, test_flows = split_flows(
                    flows, (0.6, 0.2, 0.2), seed=seed)
            result = _train(train_flows, val_flows, cfg)
            _, report = _score(test_flows, result.store, cfg)
            rows.append({"param": args.param, "value": value, "seed": seed,
                         "accuracy": report.accuracy,
                         "macro_precision": report.macro_precision,
                         "macro_recall": report.macro_recall,
                         "macro_f1": report.macro_f1,
                         "epochs_ran": len(result.history)})
            print(f"{args.param}={value} seed={seed} macro_f1={report.macro_f1:.4f}")

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


def cmd_synth(args) -> int:
    flows = generate_synthetic_flows(default_spec(args.classes, args.per_class),
                                     seed=args.seed)
    if args.split:
        try:
            fractions = tuple(float(x) for x in args.split.split(","))
        except ValueError:
            raise ConfigError(f"--split expects three floats, got {args.split!r}")
        if len(fractions) != 3:
            raise ConfigError("--split expects exactly three fractions")
        train, val, test = split_flows(flows, fractions, seed=args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, part in (("train", train), ("val", val), ("test", test)):
            write_flows_jsonl(part, out_dir / f"{name}.jsonl")
            print(f"{name}={len(part)}")
    else:
        write_flows_jsonl(flows, args.out)
        print(f"flows={len(flows)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="flowid",
                     description="Flow hypergraph traffic classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="pcap/JSONL -> canonical flow JSONL")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pcap")
    group.add_argument("--flows")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=TrainConfig.n)
    p.add_argument("--m", type=int, default=TrainConfig.m)
    p.add_argument("--timeout", type=float, default=64.0)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train on labeled flow JSONL")
    p.add_argument("--flows", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on labeled flows")
    p.add_argument("--flows", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--pred-out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detect", help="windowed snapshot inference over a capture")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pcap")
    group.add_argument("--flows")
    p.add_argument("--model", required=True)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--timeout", type=float, default=64.0)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sweep", help="train+eval over a parameter grid")
    p.add_argument("--param", choices=["n", "m", "k"], required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--seeds")
    p.add_argument("--out", required=True)
    p.add_argument("--flows")
    p.add_argument("--val")
    p.add_argument("--test")
    p.add_argument("--synth-classes", type=int, default=2)
    p.add_argument("--per-class", type=int, default=30)
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate labeled synthetic flows")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--split")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # an overflow, NaN or division by zero stops the command with one line
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except FloatingPointError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PcapFormatError, FlowFormatError, CheckpointError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ConfigError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    except FlowidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
