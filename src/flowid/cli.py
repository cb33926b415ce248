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
from dataclasses import replace
from pathlib import Path

import numpy as np

from .augment import parse_pipeline
from .config import TrainConfig
from .contrast import ContrastConfig
from .errors import (
    CheckpointError,
    ConfigError,
    DegenerateEmbeddingError,
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


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    defaults = TrainConfig()
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--lr", type=float, default=defaults.learning_rate)
    p.add_argument("--weight-decay", type=float, default=defaults.weight_decay)
    p.add_argument("--omega-n", type=float, default=defaults.omega_n)
    p.add_argument("--omega-g", type=float, default=defaults.omega_g)
    p.add_argument("--tau-n", type=float, default=0.5)
    p.add_argument("--tau-g", type=float, default=0.5)
    p.add_argument("--aug1", type=str, default=defaults.aug1.spec_string())
    p.add_argument("--aug2", type=str, default=defaults.aug2.spec_string())
    p.add_argument("--depth", type=int, default=defaults.depth)
    p.add_argument("--hidden", type=int, default=defaults.hidden)
    p.add_argument("--projection-dim", type=int, default=defaults.projection_dim)
    p.add_argument("--extractor-dim", type=int, default=defaults.extractor_dim)
    p.add_argument("--n", type=int, default=defaults.n)
    p.add_argument("--m", type=int, default=defaults.m)
    p.add_argument("--k", type=int, default=defaults.k)
    p.add_argument("--dropout", type=float, default=defaults.dropout)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--patience", type=int, default=defaults.patience)
    p.add_argument("--no-early-stop", action="store_true")
    p.add_argument("--freeze-extractor", action="store_true")
    p.add_argument("--cosine-eps", type=float, default=defaults.cosine_eps)
    p.add_argument("--no-include-self", action="store_true")
    p.add_argument("--lstm-hidden", type=int, default=defaults.lstm_hidden)
    p.add_argument("--gcn-hidden", type=int, default=defaults.gcn_hidden)
    p.add_argument("--fuse-hidden", type=int, default=defaults.fuse_hidden)
    p.add_argument("--predict-hidden", type=int, default=defaults.predict_hidden)
    p.add_argument("--cnn-channels", type=str, default="16,32")
    p.add_argument("--conv-kernel", type=int, default=defaults.conv_kernel)
    p.add_argument("--conv-stride", type=int, default=defaults.conv_stride)
    p.add_argument("--conv-padding", type=int, default=defaults.conv_padding)


def _config_from_args(args) -> TrainConfig:
    try:
        c1, c2 = (int(x) for x in args.cnn_channels.split(","))
    except ValueError:
        raise ConfigError(f"--cnn-channels expects two ints, got {args.cnn_channels!r}")
    return TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        weight_decay=args.weight_decay,
        omega_n=args.omega_n,
        omega_g=args.omega_g,
        contrast=ContrastConfig(tau_n=args.tau_n, tau_g=args.tau_g),
        aug1=parse_pipeline(args.aug1),
        aug2=parse_pipeline(args.aug2),
        depth=args.depth,
        hidden=args.hidden,
        projection_dim=args.projection_dim,
        extractor_dim=args.extractor_dim,
        n=args.n,
        m=args.m,
        k=args.k,
        dropout=args.dropout,
        seed=args.seed,
        patience=None if args.no_early_stop else args.patience,
        freeze_extractor=args.freeze_extractor,
        cosine_eps=args.cosine_eps,
        include_self=not args.no_include_self,
        lstm_hidden=args.lstm_hidden,
        gcn_hidden=args.gcn_hidden,
        fuse_hidden=args.fuse_hidden,
        predict_hidden=args.predict_hidden,
        cnn_channels=(c1, c2),
        conv_kernel=args.conv_kernel,
        conv_stride=args.conv_stride,
        conv_padding=args.conv_padding,
    ).validate()


def _meta_path(model_path: str) -> Path:
    return Path(str(model_path) + ".meta.json")


def _write_meta(model_path: str, cfg: TrainConfig, n_classes: int) -> None:
    meta = {"config": cfg.echo(), "n_classes": n_classes,
            "cnn_channels": list(cfg.cnn_channels),
            "lstm_hidden": cfg.lstm_hidden, "gcn_hidden": cfg.gcn_hidden,
            "fuse_hidden": cfg.fuse_hidden, "predict_hidden": cfg.predict_hidden}
    _meta_path(model_path).write_text(json.dumps(meta, indent=2))


# sidecar keys: required in "config", then optional at the top level
_META_CONFIG_KEYS = ("n", "m", "k", "depth", "hidden", "projection_dim", "extractor_dim",
                     "dropout", "conv_kernel", "conv_stride", "conv_padding")
_META_TOP_KEYS = ("cnn_channels", "lstm_hidden", "gcn_hidden", "fuse_hidden", "predict_hidden")


def _meta_value(meta_file: Path, key: str, value, default):
    """`value` if it has the type of the config default `default` (a float
    field also takes an int, a tuple field a JSON list of as many ints),
    else CheckpointError."""
    if isinstance(default, tuple):
        ok = (isinstance(value, list) and len(value) == len(default)
              and all(type(v) is int for v in value))
        value = tuple(value) if ok else value
    elif isinstance(default, float):
        ok = type(value) in (int, float)
    else:
        ok = type(value) is type(default)
    if not ok:
        raise CheckpointError(f"{meta_file}: {key}={value!r} does not have the type "
                              f"of {default!r}")
    return value


def _load_model(model_path: str, overrides: dict) -> tuple:
    """(store, cfg, n_classes) from checkpoint + sidecar metadata.

    The checkpoint must hold exactly the tensors, by name and shape, of the
    model that the sidecar describes (the config defaults without one), with
    the sidecar's n_classes or else the prediction head's width.
    """
    loaded = load_checkpoint(model_path)
    meta_file = _meta_path(model_path)
    cfg = TrainConfig()
    n_classes = None
    if meta_file.exists():
        try:
            meta = json.loads(meta_file.read_text())
            c = meta["config"]
            given = {key: c[key] for key in _META_CONFIG_KEYS}
            given["include_self"] = c.get("include_self", True)
            given.update((key, meta[key]) for key in _META_TOP_KEYS if key in meta)
            n_classes = meta.get("n_classes")
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{meta_file}: malformed metadata: {exc!r}") from exc
        cfg = replace(cfg, **{key: _meta_value(meta_file, key, value, getattr(cfg, key))
                              for key, value in given.items()})
        if n_classes is not None:
            _meta_value(meta_file, "n_classes", n_classes, 0)
    applied = {k: v for k, v in overrides.items() if v is not None}
    if applied:
        cfg = replace(cfg, **applied)
    cfg = cfg.validate()
    if n_classes is None:  # the prediction head's width; check_parameters names a bad head
        head = loaded.get("predict.w2").shape if "predict.w2" in loaded else ()
        n_classes = head[1] if len(head) == 2 else 2
    try:
        shapes = parameter_shapes(cfg, n_classes)
    except ConfigError as exc:  # fewer than two classes
        raise CheckpointError(f"{model_path}: {exc}") from exc
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
    _write_meta(args.out, cfg, n_classes)
    history_path = args.history or (str(args.out) + ".history.json")
    Path(history_path).write_text(json.dumps(result.history, indent=2))
    print(f"done best_epoch={result.best_epoch} "
          f"best_val_macro_f1={result.best_val_macro_f1:.4f} "
          f"epochs_ran={len(result.history)}")
    return EXIT_OK


def cmd_eval(args) -> int:
    overrides = {"n": args.n, "m": args.m, "k": args.k}
    store, cfg, n_classes = _load_model(args.model, overrides)
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
    overrides = {"n": args.n, "m": args.m, "k": args.k}
    store, cfg, n_classes = _load_model(args.model, overrides)
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
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--m", type=int, default=16)
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
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detect", help="windowed snapshot inference over a capture")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pcap")
    group.add_argument("--flows")
    p.add_argument("--model", required=True)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--timeout", type=float, default=64.0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
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
        return args.func(args)
    except (PcapFormatError, FlowFormatError, CheckpointError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ConfigError, ShapeError, DegenerateEmbeddingError) as exc:
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
