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
    TrainingDivergedError,
)
from .ingest import (
    default_spec,
    generate_synthetic_flows,
    parse_capture,
    read_flows_jsonl,
    split_flows,
    write_flows_jsonl,
)
from .metrics import confusion_matrix, macro_metrics
from .trainer import (
    LabelSet,
    build_parameter_store,
    check_parameters,
    evaluate_probs,
    fit,
    load_checkpoint,
    parameter_shapes,
    prepare_snapshot,
    save_checkpoint,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_FORMAT = 2
EXIT_CONFIG = 3

# how numpy reports an array whose shape or byte count overflows
_SHAPE_OVERFLOW = ("Maximum allowed dimension exceeded", "array is too big")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


# TrainConfig fields whose flag is not --field-name
_FLAG_NAMES = {"learning_rate": "lr"}


def _scalar_flags() -> list:
    """(field, flag) for each int, float and bool TrainConfig field; a bool's
    flag switches away from its default (--no-include-self, --freeze-extractor)."""
    return [(f, "--" + ("no-" if f.default is True else "")
             + _FLAG_NAMES.get(f.name, f.name).replace("_", "-"))
            for f in fields(TrainConfig) if type(f.default) in (int, float, bool)]


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    for f, flag in _scalar_flags():
        if type(f.default) is bool:
            p.add_argument(flag, action="store_true")
        else:
            p.add_argument(flag, type=type(f.default), default=f.default)
    defaults = TrainConfig()
    p.add_argument("--aug1", type=str, default=defaults.aug1.spec_string())
    p.add_argument("--aug2", type=str, default=defaults.aug2.spec_string())
    p.add_argument("--cnn-channels", type=str,
                   default=",".join(map(str, defaults.cnn_channels)))
    p.add_argument("--no-early-stop", action="store_true")


def _config_from_args(args) -> TrainConfig:
    values = {}
    for f, flag in _scalar_flags():
        value = getattr(args, flag[2:].replace("-", "_"))
        values[f.name] = value ^ f.default if type(f.default) is bool else value
    if args.no_early_stop:
        values["patience"] = None
    return TrainConfig(**values, aug1=parse_pipeline(args.aug1), aug2=parse_pipeline(args.aug2),
                       cnn_channels=tuple(_int_list("--cnn-channels", args.cnn_channels)),
                       ).validate()


def _meta_path(model_path: str) -> Path:
    return Path(str(model_path) + ".meta.json")


# config fields that eval/detect flags may override over the sidecar
_OVERRIDE_KEYS = ("n", "m", "k")


def _write_meta(model_path: str, cfg: TrainConfig) -> None:
    _meta_path(model_path).write_text(json.dumps({"config": cfg.echo()}, indent=2))


def _load_model(args) -> tuple:
    """(store, cfg, n_classes) from --model, its required sidecar and the
    --n/--m/--k overrides.

    The checkpoint must hold exactly the tensors, by name and shape, of the
    model that the sidecar's config describes, with as many classes as its
    prediction head is wide.
    """
    loaded = load_checkpoint(args.model)
    meta_file = _meta_path(args.model)
    try:
        cfg = TrainConfig.from_echo(json.loads(meta_file.read_text())["config"])
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CheckpointError(f"{meta_file}: malformed metadata: {exc!r}") from exc
    cfg = replace(cfg, **{key: getattr(args, key) for key in _OVERRIDE_KEYS
                          if getattr(args, key) is not None}).validate()
    # check_parameters names a missing or misshapen head
    head = loaded.get("predict.w2").shape if "predict.w2" in loaded else ()
    n_classes = head[1] if len(head) == 2 else 2
    try:
        shapes = parameter_shapes(cfg, n_classes)
    except ConfigError as exc:  # fewer than two classes
        raise CheckpointError(f"{args.model}: {exc}") from exc
    check_parameters({name: t.data for name, t in loaded.items()}, shapes)
    return loaded, cfg, n_classes


def _int_list(flag: str, text: str) -> list[int]:
    values = []
    for raw in text.split(","):
        try:
            values.append(int(raw))
        except ValueError:
            raise ConfigError(f"{flag} expects integers, got {raw!r}") from None
    return values


def _class_count(train_flows, val_flows) -> int:
    """Largest label of the training data plus one."""
    labels = [f.label for f in train_flows + val_flows if f.label is not None]
    if not labels:
        raise ConfigError("training data carries no labels")
    return max(labels) + 1


def _require_labels(flows) -> None:
    if all(f.label is None for f in flows):
        raise ConfigError("evaluation flows carry no labels")


def _read_input_flows(args, cfg_n: int, cfg_m: int, timeout: float):
    if cfg_n < 1 or cfg_m < 1:
        raise ConfigError(f"packet cap n and byte cap m must be >= 1, got n={cfg_n}, m={cfg_m}")
    if getattr(args, "pcap", None):
        result = parse_capture(args.pcap, n=cfg_n, m=cfg_m, idle_timeout=timeout)
        return result.flows, result.counters()
    flows = read_flows_jsonl(args.flows)
    for flow in flows:  # re-apply caps when reprocessing an existing flow file
        del flow.packets[cfg_n:]
        for pkt in flow.packets:
            pkt.payload_prefix = pkt.payload_prefix[:cfg_m]
    counters = {"flows": len(flows), "packets": sum(len(f.packets) for f in flows),
                "skipped_frames": 0, "truncated_records": 0, "empty_flows_dropped": 0}
    return flows, counters


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_extract(args) -> int:
    flows, counters = _read_input_flows(args, args.n, args.m, args.timeout)
    write_flows_jsonl(flows, args.out)
    print(" ".join(f"{k}={v}" for k, v in counters.items()))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    print("config " + json.dumps(cfg.echo()))
    train_flows = read_flows_jsonl(args.flows)
    val_flows = read_flows_jsonl(args.val)
    n_classes = _class_count(train_flows, val_flows)
    store = build_parameter_store(cfg, n_classes)
    train_snap = prepare_snapshot(train_flows, store, cfg)
    val_snap = prepare_snapshot(val_flows, store, cfg)
    print(f"data train_flows={len(train_flows)} val_flows={len(val_flows)} "
          f"classes={n_classes}")
    result = fit(train_snap, val_snap, cfg, store=store)
    save_checkpoint(result.store, args.out)
    _write_meta(args.out, cfg)
    history_path = args.history or (str(args.out) + ".history.json")
    Path(history_path).write_text(json.dumps(result.history, indent=2))
    print(f"done best_epoch={result.best_epoch} "
          f"best_val_macro_f1={result.best_val_macro_f1:.4f} "
          f"epochs_ran={len(result.history)}")
    return EXIT_OK


def cmd_eval(args) -> int:
    store, cfg, n_classes = _load_model(args)
    flows = read_flows_jsonl(args.flows)
    _require_labels(flows)
    snapshot = prepare_snapshot(flows, store, cfg)
    probs = evaluate_probs(snapshot, store, cfg)
    labels = snapshot.labels
    idx = labels.labeled_indices()
    pred = probs.argmax(axis=1)
    report = macro_metrics(confusion_matrix(pred[idx], labels.y[idx], n_classes))
    Path(args.report).write_text(report.to_json())
    if args.pred_out:
        with open(args.pred_out, "w", encoding="utf-8") as fh:
            for i, fid in enumerate(snapshot.flow_ids):
                fh.write(json.dumps({"flow_id": fid, "pred": int(pred[i]),
                                     "probs": [float(p) for p in probs[i]]}) + "\n")
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
        if not math.isfinite(index):
            raise ConfigError(f"window duration {duration} puts a flow starting at "
                              f"{flow.first_timestamp()} s in a non-finite window")
        windows.setdefault(math.floor(index), []).append(flow)
    return windows


def cmd_detect(args) -> int:
    store, cfg, n_classes = _load_model(args)
    flows, _ = _read_input_flows(args, cfg.n, cfg.m, args.timeout)
    windows = assign_windows(flows, args.window)

    records = []  # written only after every window has been scored
    for index, members in sorted(windows.items()):
        if len(members) < cfg.k + 1:
            print(f"window {index}: skipped ({len(members)} flows < K+1={cfg.k + 1})",
                  file=sys.stderr)
            records.append({"window": index, "skipped": True, "flows": len(members),
                            "reason": f"fewer than K+1={cfg.k + 1} flows"})
            continue
        snapshot = prepare_snapshot(members, store, cfg)
        probs = evaluate_probs(snapshot, store, cfg)
        pred = probs.argmax(axis=1)
        records.extend({"flow_id": fid, "window": index, "pred": int(pred[i]),
                        "probs": [float(p) for p in probs[i]]}
                       for i, fid in enumerate(snapshot.flow_ids))
    with open(args.out, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    print(f"windows={len(windows)} flows={len(flows)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = _config_from_args(args)
    values = _int_list("--values", args.values)
    seeds = _int_list("--seeds", args.seeds) if args.seeds else [base.seed]

    if args.flows:  # read once: nothing below modifies the flows
        given = tuple(read_flows_jsonl(path) for path in (args.flows, args.val, args.test))
        _require_labels(given[2])
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
            n_classes = _class_count(train_flows, val_flows)
            store = build_parameter_store(cfg, n_classes)
            train_snap = prepare_snapshot(train_flows, store, cfg)
            val_snap = prepare_snapshot(val_flows, store, cfg)
            result = fit(train_snap, val_snap, cfg, store=store)
            test_snap = prepare_snapshot(test_flows, result.store, cfg)
            probs = evaluate_probs(test_snap, result.store, cfg)
            idx = test_snap.labels.labeled_indices()
            report = macro_metrics(confusion_matrix(
                probs[idx].argmax(axis=1), test_snap.labels.y[idx], n_classes))
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
    p.add_argument("--history")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on labeled flows")
    p.add_argument("--flows", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--pred-out")
    for key in _OVERRIDE_KEYS:
        p.add_argument(f"--{key}", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detect", help="windowed snapshot inference over a capture")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pcap")
    group.add_argument("--flows")
    p.add_argument("--model", required=True)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--timeout", type=float, default=64.0)
    for key in _OVERRIDE_KEYS:
        p.add_argument(f"--{key}", type=int, default=None)
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
        if args.command == "sweep" and args.flows and not (args.val and args.test):
            raise ConfigError("sweep with --flows also needs --val and --test")
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
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_SHAPE_OVERFLOW):
            raise
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    except FlowidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
