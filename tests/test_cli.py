"""End-to-end command-line behavior: formats, exit codes, golden files."""

import argparse
import contextlib
import io
import json
import re
import shlex
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowid import cli
from flowid.augment import OPS, AugmentationPipeline, Step, parse_pipeline
from flowid.cli import main
from flowid.config import TrainConfig
from flowid.errors import ConfigError
from flowid.ingest import generate_synthetic_flows, two_class_spec
from flowid.tensor_core import ParameterStore
from flowid.trainer import (
    build_parameter_store,
    fit,
    load_checkpoint,
    prepare_snapshot,
    save_checkpoint,
)
from pcap_util import build_pcap
from test_trainer import seal, sealed_parts, write_sealed

TINY_FLAGS = [
    "--extractor-dim", "24", "--hidden", "12", "--projection-dim", "12",
    "--lstm-hidden", "6", "--cnn-channels", "3,4", "--conv-kernel", "5",
    "--gcn-hidden", "6", "--fuse-hidden", "16",
    "--predict-hidden", "8", "--n", "8", "--m", "6", "--k", "2",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic split + a small trained model shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--classes", "2", "--per-class", "30", "--seed", "11",
                 "--out", str(root), "--split", "0.6,0.2,0.2"]) == 0
    model = root / "model.ckpt"
    rc = main(["train", "--flows", str(root / "train.jsonl"),
               "--val", str(root / "val.jsonl"), "--out", str(model),
               "--epochs", "10", "--lr", "0.01", "--seed", "3",
               "--no-early-stop", *TINY_FLAGS])
    assert rc == 0
    return root


def _workspace_store(workspace) -> ParameterStore:
    """The parameters of the workspace model."""
    meta = json.loads((workspace / "model.ckpt.meta.json").read_text())
    return load_checkpoint(workspace / "model.ckpt", TrainConfig.from_echo(meta["config"]))


def _with_sidecar(workspace, model):
    """`model`, next to a copy of the workspace model's sidecar: a command
    reads the sidecar first, so a checkpoint test needs a good one."""
    (model.parent / (model.name + ".meta.json")).write_text(
        (workspace / "model.ckpt.meta.json").read_text())
    return model


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def test_extract_golden_jsonl(tmp_path):
    pcap = tmp_path / "two.pcap"
    pcap.write_bytes(build_pcap([
        (2.0, "10.0.0.1", 1234, "10.0.0.2", 80, "tcp", b"\x01\x02"),
        (2.5, "10.0.0.2", 80, "10.0.0.1", 1234, "tcp", b""),
    ]))
    out = tmp_path / "flows.jsonl"
    assert main(["extract", "--pcap", str(pcap), "--out", str(out)]) == 0
    golden = (
        '{"id":"flow-000001","five_tuple":{"src":"10.0.0.1","sport":1234,'
        '"dst":"10.0.0.2","dport":80,"proto":"tcp"},"label":null,"packets":'
        '[{"ts":2.0,"dir":-1,"len":56,"payload_hex":"0102"},'
        '{"ts":2.5,"dir":1,"len":54,"payload_hex":""}]}\n'
    )
    assert out.read_text() == golden


def test_extract_empty_pcap(tmp_path):
    pcap = tmp_path / "empty.pcap"
    pcap.write_bytes(build_pcap([]))
    out = tmp_path / "flows.jsonl"
    assert main(["extract", "--pcap", str(pcap), "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_extract_counts_the_packets_it_keeps(tmp_path, capsys):
    # a five-packet flow cut to n = 2, and a one-packet flow
    pcap = tmp_path / "two.pcap"
    pcap.write_bytes(build_pcap(
        [(1.0 + 0.1 * i, "10.0.0.1", 1234, "10.0.0.2", 80, "tcp", b"x") for i in range(5)]
        + [(2.0, "10.0.0.3", 53, "10.0.0.4", 53, "udp", b"q")]))
    flows = tmp_path / "flows.jsonl"
    assert main(["extract", "--pcap", str(pcap), "--out", str(flows), "--n", "2"]) == 0
    line = capsys.readouterr().out
    held = sum(len(json.loads(record)["packets"]) for record in flows.read_text().splitlines())
    assert held == 3 and line == "flows=2 packets=3 skipped_frames=0 truncated_records=0\n"
    # the same counter line for the flows read back from JSONL
    assert main(["extract", "--flows", str(flows), "--out", str(tmp_path / "again.jsonl")]) == 0
    assert capsys.readouterr().out == line


def test_extract_bad_flag_value_exit_3(tmp_path, capsys):
    rc = main(["extract", "--pcap", "x.pcap", "--out", "y", "--n", "lots"])
    assert rc == 3
    assert "usage" in _one_line_error(capsys)


def test_extract_missing_file_exit_1(tmp_path):
    assert main(["extract", "--pcap", str(tmp_path / "nope.pcap"),
                 "--out", str(tmp_path / "o")]) == 1


def test_extract_malformed_pcap_exit_2(tmp_path):
    bad = tmp_path / "bad.pcap"
    bad.write_bytes(b"\x00" * 48)
    assert main(["extract", "--pcap", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("source", ["pcap", "flows"])
@pytest.mark.parametrize("cap", ["--n=-1", "--m=-1", "--n=0", "--m=0"])
def test_extract_caps_below_one_exit_3(workspace, tmp_path, capsys, source, cap):
    # a JSONL flow cut to n = -1 packets would silently lose its last one
    path = {"pcap": _two_packet_pcap(tmp_path), "flows": workspace / "test.jsonl"}[source]
    out = tmp_path / "out.jsonl"
    assert main(["extract", f"--{source}", str(path), "--out", str(out), cap]) == 3
    assert _one_line_error(capsys).startswith("config error: packet cap n and byte cap m")
    assert not out.exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["train", "--help"]) == 0
    capsys.readouterr()


def test_unknown_flag_exit_3(capsys):
    assert main(["extract", "--nope"]) == 3
    assert _one_line_error(capsys).startswith("usage error: flowid extract:")


def test_readme_examples_parse():
    # an example that keeps a retired flag would be a usage error for its reader
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = "".join(re.findall(r"```sh\n(.*?)```", readme, flags=re.S))
    commands = [shlex.split(line, comments=True)
                for line in blocks.replace("\\\n", " ").splitlines() if line.startswith("flowid")]
    assert len(commands) == 6
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


@pytest.mark.parametrize("argv", [["train", "--flows", "a", "--val", "b", "--out", "c",
                                   "--lr", "x"],
                                  ["train", "--val", "b", "--out", "c"]],
                         ids=["bad_value", "missing_required"])
def test_train_usage_error_is_one_line_exit_3(capsys, argv):
    assert main(argv) == 3
    assert _one_line_error(capsys).startswith("usage error: flowid train:")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_header_echoes_reference_defaults(workspace, capsys, tmp_path):
    # run only the argument plumbing far enough to print the header
    rc = main(["train", "--flows", str(tmp_path / "missing.jsonl"),
               "--val", str(tmp_path / "missing.jsonl"),
               "--out", str(tmp_path / "m.ckpt")])
    out = capsys.readouterr().out
    assert rc == 1  # data files do not exist, but the header came first
    header = json.loads(out.splitlines()[0].removeprefix("config "))
    assert header["n"] == 40
    assert header["m"] == 16
    assert header["k"] == 3
    assert header["learning_rate"] == 0.002
    assert header["weight_decay"] == 1e-3
    assert header["extractor_dim"] == 512
    assert header["hidden"] == 128
    assert header["projection_dim"] == 128
    assert header["depth"] == 2
    assert header["dropout"] == 0.2
    assert header["conv_kernel"] == 25
    assert header["conv_stride"] == 1
    assert header["conv_padding"] == 12
    assert header["include_self"] is True
    assert header["lstm_layers"] == 1
    assert header["gcn_layers"] == 2
    assert header["cnn_layers"] == 2


def test_train_same_seed_identical_checkpoints(workspace, tmp_path):
    args = ["train", "--flows", str(workspace / "train.jsonl"),
            "--val", str(workspace / "val.jsonl"),
            "--epochs", "3", "--seed", "5", "--no-early-stop", *TINY_FLAGS]
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_best_validation_f1_is_what_eval_reports_on_val(tmp_path, capsys):
    # validation scores each epoch on the graph eval builds from that epoch's
    # features; with the initial-feature graph, train printed 0.9666 here
    assert main(["synth", "--classes", "3", "--per-class", "100", "--seed", "4",
                 "--out", str(tmp_path), "--split", "0.6,0.2,0.2"]) == 0
    model = str(tmp_path / "model.ckpt")
    assert main(["train", "--flows", str(tmp_path / "train.jsonl"),
                 "--val", str(tmp_path / "val.jsonl"), "--out", model, "--epochs", "8",
                 "--no-early-stop", "--aug1", "nf:0.4", "--aug2", "ed:0.4", "--seed", "3"]) == 0
    best = re.search(r"best_val_macro_f1=(\S+)", capsys.readouterr().out).group(1)
    assert main(["eval", "--flows", str(tmp_path / "val.jsonl"), "--model", model,
                 "--report", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"macro_f1={best}"


def test_train_no_contrast_flags(workspace, tmp_path):
    rc = main(["train", "--flows", str(workspace / "train.jsonl"),
               "--val", str(workspace / "val.jsonl"),
               "--out", str(tmp_path / "nc.ckpt"), "--epochs", "2",
               "--omega-n", "0", "--omega-g", "0", "--aug1", "iden",
               "--aug2", "iden", "--no-early-stop", *TINY_FLAGS])
    assert rc == 0
    history = json.loads((tmp_path / "nc.ckpt.history.json").read_text())
    assert len(history) == 2
    for entry in history:
        assert entry["total"] == pytest.approx(entry["l_pred"])


# one non-default value for every TrainConfig field, and the flags that set it
CONFIG_FLAG_CASES = [
    ("epochs", ["--epochs", "7"], 7),
    ("learning_rate", ["--lr", "0.25"], 0.25),
    ("weight_decay", ["--weight-decay", "0.5"], 0.5),
    ("omega_n", ["--omega-n", "0.75"], 0.75),
    ("omega_g", ["--omega-g", "1.5"], 1.5),
    ("tau_n", ["--tau-n", "0.3"], 0.3),
    ("tau_g", ["--tau-g", "0.7"], 0.7),
    ("aug1", ["--aug1", "nf:0.4"], parse_pipeline("nf:0.4")),
    ("aug2", ["--aug2", "ed:0.3,ew:0.2"], parse_pipeline("ed:0.3,ew:0.2")),
    ("depth", ["--depth", "3"], 3),
    ("hidden", ["--hidden", "64"], 64),
    ("projection_dim", ["--projection-dim", "32"], 32),
    ("extractor_dim", ["--extractor-dim", "256"], 256),
    ("n", ["--n", "20"], 20),
    ("m", ["--m", "8"], 8),
    ("k", ["--k", "5"], 5),
    ("dropout", ["--dropout", "0.1"], 0.1),
    ("seed", ["--seed", "9"], 9),
    ("lstm_hidden", ["--lstm-hidden", "16"], 16),
    ("cnn_channels", ["--cnn-channels", "3,5"], (3, 5)),
    ("conv_kernel", ["--conv-kernel", "7"], 7),
    ("gcn_hidden", ["--gcn-hidden", "12"], 12),
    ("fuse_hidden", ["--fuse-hidden", "100"], 100),
    ("predict_hidden", ["--predict-hidden", "48"], 48),
    ("patience", ["--patience", "4"], 4),
    ("patience", ["--no-early-stop"], None),
    ("cosine_eps", ["--cosine-eps", "1e-6"], 1e-6),
]
PARSER_ARGS = {"train": ["train", "--flows", "t", "--val", "v", "--out", "o"],
               "sweep": ["sweep", "--param", "k", "--values", "2", "--out", "o"]}


def test_every_config_field_has_a_flag():
    assert {name for name, _, _ in CONFIG_FLAG_CASES} == {f.name for f in fields(TrainConfig)}


@pytest.mark.parametrize("command", sorted(PARSER_ARGS))
def test_no_config_flags_give_the_default_config(command):
    args = cli.build_parser().parse_args(PARSER_ARGS[command])
    assert cli._config_from_args(args) == TrainConfig()


@pytest.mark.parametrize("command", sorted(PARSER_ARGS))
@pytest.mark.parametrize("name, flags, value", CONFIG_FLAG_CASES,
                         ids=[" ".join(flags) for _, flags, _ in CONFIG_FLAG_CASES])
def test_config_flag_sets_its_field(command, name, flags, value):
    cfg = cli._config_from_args(cli.build_parser().parse_args(PARSER_ARGS[command] + flags))
    assert getattr(cfg, name) == value != getattr(TrainConfig(), name)
    assert replace(cfg, **{name: getattr(TrainConfig(), name)}) == TrainConfig()


# every long option of every command: a new one must be added here, in sight
CONFIG_OPTIONS = [
    "--epochs", "--lr", "--weight-decay", "--omega-n", "--omega-g", "--tau-n", "--tau-g",
    "--depth", "--hidden", "--projection-dim", "--extractor-dim", "--n", "--m", "--k",
    "--dropout", "--seed", "--lstm-hidden", "--conv-kernel", "--gcn-hidden", "--fuse-hidden",
    "--predict-hidden", "--patience", "--cosine-eps", "--aug1", "--aug2", "--cnn-channels",
    "--no-early-stop",
]
OPTIONS = {
    "extract": ["--pcap", "--flows", "--out", "--n", "--m", "--timeout"],
    "train": ["--flows", "--val", "--out", *CONFIG_OPTIONS],
    "eval": ["--flows", "--model", "--report", "--pred-out"],
    "detect": ["--pcap", "--flows", "--model", "--window", "--out", "--timeout"],
    "sweep": ["--param", "--values", "--seeds", "--out", "--flows", "--val", "--test",
              "--synth-classes", "--per-class", *CONFIG_OPTIONS],
    "synth": ["--classes", "--per-class", "--seed", "--out", "--split"],
}


def test_option_inventory():
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    found = {name: sorted(option for action in parser._actions
                          for option in action.option_strings
                          if option.startswith("--") and option != "--help")
             for name, parser in commands.items()}
    assert found == {name: sorted(options) for name, options in OPTIONS.items()}
    assert sum(map(len, OPTIONS.values())) == 87


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_on_training_data_converged(workspace, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["eval", "--flows", str(workspace / "train.jsonl"),
               "--model", str(workspace / "model.ckpt"),
               "--report", str(report_path)])
    assert rc == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["macro_f1"] >= 0.95
    assert {"accuracy", "macro_precision", "macro_recall", "macro_f1",
            "per_class", "confusion"} <= set(report)
    for row in report["per_class"]:
        assert {"class", "precision", "recall", "f1"} <= set(row)
    confusion = np.array(report["confusion"])
    assert confusion.shape == (2, 2)
    assert confusion.sum() == 36  # 60% of 60 flows


def test_eval_missing_checkpoint_exit_1(workspace, tmp_path):
    assert main(["eval", "--flows", str(workspace / "train.jsonl"),
                 "--model", str(_with_sidecar(workspace, tmp_path / "missing.ckpt")),
                 "--report", str(tmp_path / "r.json")]) == 1


def test_eval_corrupt_checkpoint_exit_2(workspace, tmp_path):
    blob = bytearray((workspace / "model.ckpt").read_bytes())
    blob[30] ^= 0xFF
    bad = _with_sidecar(workspace, tmp_path / "bad.ckpt")
    bad.write_bytes(bytes(blob))
    assert main(["eval", "--flows", str(workspace / "train.jsonl"),
                 "--model", str(bad), "--report", str(tmp_path / "r.json")]) == 2


def _resealed(change):
    """Write the workspace checkpoint with `change` applied to its (manifest,
    payload) and sealed again, so that the layout check and not the checksum
    has to catch it."""
    return lambda bad, blob: write_sealed(bad, *change(*sealed_parts(blob)))


def _retagged(magic):
    """Write the workspace checkpoint under another magic."""
    return lambda bad, blob: bad.write_bytes(magic + blob[8:])


def _manifest_past_body(bad, blob):
    """Write the workspace checkpoint sealed again with a manifest length that
    ends one byte past its body (the file less its 8-byte seal)."""
    body = blob[:8] + (len(blob) - 8 - 12 + 1).to_bytes(4, "little") + blob[12:-8]
    bad.write_bytes(body + seal(body))


# defect -> (writer, stderr prefix); fuse.alpha is (1,). Checkpoints sealed
# with CRC-64 (FLOWID01), or laid out by offsets (FLOWID02), must be retrained.
BAD_CHECKPOINTS = {
    "old_format": (_retagged(b"FLOWID01"), "format error: bad magic b'FLOWID01'\n"),
    "offset_format": (_retagged(b"FLOWID02"), "format error: bad magic b'FLOWID02'\n"),
    "fractional_dimension": (_resealed(lambda manifest, payload: (
        [[name, [1.5] if name == "fuse.alpha" else shape] for name, shape in manifest],
        payload)), "format error: manifest entry"),
    "float_dimension": (_resealed(lambda manifest, payload: (
        [[name, [float(d) for d in shape]] for name, shape in manifest], payload)),
        "format error: manifest entry 0:"),
    "true_dimension": (_resealed(lambda manifest, payload: (
        [[name, [True] if name == "fuse.alpha" else shape] for name, shape in manifest],
        payload)), "format error: manifest entry"),
    "reordered_entry": (_resealed(lambda manifest, payload: (
        manifest[1::-1] + manifest[2:], payload)), "format error: manifest entry 0:"),
    "leftover_payload": (_resealed(lambda manifest, payload: (manifest, payload + bytes(4))),
                         "format error: payload of"),
    "short_payload": (_resealed(lambda manifest, payload: (manifest, payload[:-4])),
                      "format error: payload of"),
    "fifteen_bytes": (lambda bad, blob: bad.write_bytes(blob[:15]),
                      "format error: checkpoint shorter than its fixed framing\n"),
    "manifest_past_body": (_manifest_past_body,
                           "format error: manifest length exceeds file size\n"),
}


@pytest.mark.parametrize("defect", list(BAD_CHECKPOINTS))
def test_eval_bad_checkpoint_one_line_exit_2(workspace, tmp_path, capsys, defect):
    write, message = BAD_CHECKPOINTS[defect]
    bad = _with_sidecar(workspace, tmp_path / "bad.ckpt")
    write(bad, (workspace / "model.ckpt").read_bytes())
    out = tmp_path / "r.json"
    assert main(["eval", "--flows", str(workspace / "train.jsonl"),
                 "--model", str(bad), "--report", str(out)]) == 2
    assert _one_line_error(capsys).startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("meta", [
    "{not json",
    json.dumps({"n_classes": 2}),
    json.dumps({"config": {"n": 8, "m": 6}}),
    # the trained model's own sidecar with one config value of the wrong type
    ("k", "3"),
    ("n", True),
    ("dropout", "0.2"),
    ("include_self", "no"),
    ("include_self", False),
    ("cnn_channels", [3]),
    ("cnn_channels", [3, 4.0]),
    ("lstm_hidden", 6.0),
    ("patience", 30.0),
    ("conv_padding", 2.0),  # the model's padding, but not an integer
])
def test_detect_malformed_metadata_exit_2(workspace, tmp_path, capsys, meta):
    model = tmp_path / "model.ckpt"
    model.write_bytes((workspace / "model.ckpt").read_bytes())
    if isinstance(meta, tuple):
        key, value = meta
        meta = json.loads((workspace / "model.ckpt.meta.json").read_text())
        meta["config"][key] = value
        meta = json.dumps(meta)
    (tmp_path / "model.ckpt.meta.json").write_text(meta)
    out = tmp_path / "det.jsonl"
    assert main(["detect", "--flows", str(workspace / "test.jsonl"),
                 "--model", str(model), "--window", "60", "--out", str(out)]) == 2
    assert "format error:" in capsys.readouterr().err
    assert not out.exists()


def _run_with_sidecar(workspace, root, config: dict, args: list) -> int:
    """`main(args + --model)` on a copy of the workspace model whose sidecar
    holds `config`."""
    root.mkdir(exist_ok=True)
    model = root / "model.ckpt"
    model.write_bytes((workspace / "model.ckpt").read_bytes())
    (root / "model.ckpt.meta.json").write_text(json.dumps({"config": config}))
    return main([*args, "--model", str(model)])


# a fixed setting of another value describes another model, even where the
# tensors' shapes cannot tell (padding changes none)
@pytest.mark.parametrize("command", ["eval", "detect"])
@pytest.mark.parametrize("key, value", [("conv_padding", 3), ("conv_stride", 2),
                                        ("include_self", False), ("lstm_layers", 2)])
def test_sidecar_fixed_setting_of_another_value_exit_2(workspace, tmp_path, capsys,
                                                        command, key, value):
    config = json.loads((workspace / "model.ckpt.meta.json").read_text())["config"]
    out = tmp_path / "out"
    args = {"eval": ["eval", "--report", str(out)],
            "detect": ["detect", "--window", "60", "--out", str(out)]}[command]
    args += ["--flows", str(workspace / "test.jsonl")]
    assert _run_with_sidecar(workspace, tmp_path, {**config, key: value}, args) == 2
    err = _one_line_error(capsys)
    assert err.startswith("format error:") and key in err
    assert not out.exists()


# the sidecar config as written when conv_stride, conv_padding, include_self
# and freeze_extractor were TrainConfig fields, in their field order
OLDER_SIDECAR_KEYS = [
    "epochs", "learning_rate", "weight_decay", "omega_n", "omega_g", "tau_n", "tau_g",
    "aug1", "aug2", "depth", "hidden", "projection_dim", "extractor_dim", "n", "m", "k",
    "dropout", "seed", "lstm_hidden", "cnn_channels", "conv_kernel", "conv_stride",
    "conv_padding", "gcn_hidden", "fuse_hidden", "predict_hidden", "patience",
    "include_self", "cosine_eps", "freeze_extractor", "lstm_layers", "gcn_layers",
    "cnn_layers"]


@pytest.mark.parametrize("frozen", [False, True])
def test_older_sidecar_layout_gives_identical_detections(workspace, tmp_path, capsys, frozen):
    config = json.loads((workspace / "model.ckpt.meta.json").read_text())["config"]
    assert set(config) == set(OLDER_SIDECAR_KEYS) - {"freeze_extractor"}
    older = {key: config.get(key, frozen) for key in OLDER_SIDECAR_KEYS}
    outputs = []
    for name, sidecar in (("new", config), ("older", older)):
        out = tmp_path / f"{name}.jsonl"
        assert _run_with_sidecar(workspace, tmp_path / name, sidecar,
                                 ["detect", "--flows", str(workspace / "test.jsonl"),
                                  "--window", "60", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def _field_values(f):
    """Any valid value of TrainConfig field `f`; validate() settles combinations."""
    default = getattr(TrainConfig(), f.name)
    if isinstance(default, AugmentationPipeline):
        step = st.builds(Step, st.sampled_from(sorted(OPS)), st.floats(0, 1, exclude_max=True))
        return st.lists(step, max_size=3).map(lambda steps: AugmentationPipeline(tuple(steps)))
    if isinstance(default, tuple):
        return st.tuples(st.integers(1, 64), st.integers(1, 64))
    if f.name == "dropout":
        return st.floats(0, 1, exclude_max=True)
    if type(default) is float:
        positive = f.name in ("learning_rate", "tau_n", "tau_g", "cosine_eps")
        return st.floats(0, exclude_min=positive, allow_infinity=False)
    if f.name == "patience":
        return st.none() | st.integers(1, 10 ** 6)
    return st.integers(0 if f.name in ("depth", "seed") else 1, 2 ** 40)


def _is_valid(cfg) -> bool:
    try:
        cfg.validate()
    except ConfigError:
        return False
    return True


def test_fixed_padding_is_half_the_kernel():
    assert [TrainConfig(conv_kernel=k).echo()["conv_padding"]
            for k in (1, 4, 5, 25)] == [0, 2, 2, 12]


@given(st.fixed_dictionaries({f.name: _field_values(f) for f in fields(TrainConfig)})
       .map(lambda values: TrainConfig(**values)).filter(_is_valid))
@settings(max_examples=200, deadline=None)
def test_config_echo_round_trips_through_json(cfg):
    assert TrainConfig.from_echo(json.loads(json.dumps(cfg.echo()))) == cfg


# JSON values by kind; a sidecar entry takes the kinds _right_kinds names
JSON_KINDS = {"null": st.none(), "bool": st.booleans(), "int": st.integers(),
              "float": st.floats(), "str": st.text(max_size=8),
              "int_pair": st.lists(st.integers(), min_size=2, max_size=2),
              "str_list": st.lists(st.text(max_size=2), max_size=3),
              "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=2)}


def _right_kinds(name: str) -> set:
    default = TrainConfig().echo()[name]
    if isinstance(default, list):
        return {"int_pair"}
    if type(default) is float:
        return {"int", "float"}
    return {"int", "null"} if name == "patience" else {type(default).__name__}


# every sidecar entry: the fields, and the fixed settings
@given(st.sampled_from(sorted(TrainConfig().echo())).flatmap(
    lambda name: st.tuples(st.just(name), st.one_of(
        *(values for kind, values in JSON_KINDS.items() if kind not in _right_kinds(name))))))
@settings(max_examples=60, deadline=None)
def test_sidecar_value_of_the_wrong_json_type_exit_2(workspace, case):
    name, value = case
    root = workspace / "wrong_type"
    root.mkdir(exist_ok=True)
    model, out = root / "model.ckpt", root / "out"
    model.write_bytes((workspace / "model.ckpt").read_bytes())
    meta = json.loads((workspace / "model.ckpt.meta.json").read_text())
    meta["config"][name] = value
    (root / "model.ckpt.meta.json").write_text(json.dumps(meta))
    for args in (["eval", "--report", str(out)],
                 ["detect", "--window", "60", "--out", str(out)]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main([*args, "--flows", str(workspace / "test.jsonl"),
                         "--model", str(model)]) == 2
        assert err.getvalue().startswith("format error:") and err.getvalue().count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "detect"])
def test_missing_sidecar_exit_1(workspace, tmp_path, capsys, command):
    # a default-width model trained at n=8, m=4, k=2 fits the default config's
    # tensors, so only its sidecar keeps it from running at n=40, m=16, k=3
    cfg = TrainConfig(n=8, m=4, k=2)
    model, out = tmp_path / "model.ckpt", tmp_path / "out"
    save_checkpoint(build_parameter_store(cfg, 2), model)
    argv = [command, "--flows", str(workspace / "test.jsonl"), "--model", str(model),
            *{"eval": ["--report", str(out)],
              "detect": ["--window", "60", "--out", str(out)]}[command]]
    assert main(argv) == 1
    assert _one_line_error(capsys).startswith("io error:")
    assert not out.exists()
    cli._write_meta(str(model), cfg)
    assert main(argv) == 0


@pytest.mark.parametrize("command", ["eval", "detect"])
@pytest.mark.parametrize("defect", ["missing_tensor", "missing_head_and_n_classes",
                                    "extra_tensor", "sidecar_hidden"])
def test_checkpoint_must_hold_the_sidecar_model(workspace, tmp_path, capsys, command, defect):
    # the tensors must be exactly the model's, by name and shape
    store = _workspace_store(workspace)
    meta = json.loads((workspace / "model.ckpt.meta.json").read_text())
    kept = ParameterStore()
    missing = {"missing_tensor": "temporal.lstm.b", "missing_head_and_n_classes": "predict.w2"}
    for name, t in store.items():
        if name != missing.get(defect):
            kept.add(name, t.data)
    if defect == "extra_tensor":
        kept.add("predict.w3", np.ones((2, 2)))
    if defect == "sidecar_hidden":
        meta["config"]["hidden"] += 4  # the encoder's width
    model = tmp_path / "model.ckpt"
    save_checkpoint(kept, model)
    (tmp_path / "model.ckpt.meta.json").write_text(json.dumps(meta))
    out = tmp_path / "out.json"
    args = {"eval": ["--report", str(out)], "detect": ["--window", "60", "--out", str(out)]}
    assert main([command, "--flows", str(workspace / "test.jsonl"),
                 "--model", str(model), *args[command]]) == 2
    err = capsys.readouterr().err
    assert "format error:" in err
    named = {**missing, "extra_tensor": "predict.w3", "sidecar_hidden": "encoder.in.b"}
    assert named[defect] in err
    assert not out.exists()


# a sidecar dimension or depth too large for the checkpoint to hold is a
# model the checkpoint does not hold: no array is sized and no layer listed
# beyond the manifest's length
@pytest.mark.parametrize("command", ["eval", "detect"])
@pytest.mark.parametrize("key, value", [
    pytest.param("hidden", 2 ** 62, id="hidden_2e62"),
    pytest.param("hidden", 2 ** 40, id="hidden_2e40"),
    pytest.param("extractor_dim", 2 ** 62, id="extractor_dim_2e62"),
    pytest.param("cnn_channels", [3, 2 ** 62], id="cnn_channels_2e62"),  # c1 of TINY_FLAGS
    pytest.param("depth", 10 ** 9, id="depth_1e9"),
])
def test_sidecar_model_beyond_the_checkpoint_exit_2(workspace, tmp_path, capsys,
                                                    command, key, value):
    config = json.loads((workspace / "model.ckpt.meta.json").read_text())["config"]
    out = tmp_path / "out"
    args = {"eval": ["eval", "--report", str(out)],
            "detect": ["detect", "--window", "60", "--out", str(out)]}[command]
    args += ["--flows", str(workspace / "test.jsonl")]
    assert _run_with_sidecar(workspace, tmp_path, {**config, key: value}, args) == 2
    assert _one_line_error(capsys).startswith("format error: manifest entry ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "detect"])
def test_non_finite_checkpoint_value_exit_2(workspace, tmp_path, capsys, command):
    # a NaN weight under a valid checksum would score every flow as one class
    store = _workspace_store(workspace)
    store.get("predict.w2").data[0, 0] = np.nan
    model = _with_sidecar(workspace, tmp_path / "model.ckpt")
    save_checkpoint(store, model)
    out = tmp_path / "out.json"
    args = {"eval": ["--report", str(out)], "detect": ["--window", "60", "--out", str(out)]}
    assert main([command, "--flows", str(workspace / "test.jsonl"),
                 "--model", str(model), *args[command]]) == 2
    err = capsys.readouterr().err
    assert "format error:" in err and "predict.w2" in err and "non-finite" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def test_detect_single_window_matches_eval(workspace, tmp_path, capsys):
    preds = tmp_path / "eval_preds.jsonl"
    assert main(["eval", "--flows", str(workspace / "test.jsonl"),
                 "--model", str(workspace / "model.ckpt"),
                 "--report", str(tmp_path / "r.json"),
                 "--pred-out", str(preds)]) == 0
    detections = tmp_path / "det.jsonl"
    assert main(["detect", "--flows", str(workspace / "test.jsonl"),
                 "--model", str(workspace / "model.ckpt"),
                 "--window", "1e9", "--out", str(detections)]) == 0
    capsys.readouterr()
    eval_records = {r["flow_id"]: r
                    for r in map(json.loads, preds.read_text().splitlines())}
    det_records = {r["flow_id"]: r
                   for r in map(json.loads, detections.read_text().splitlines())}
    assert set(det_records) == set(eval_records)
    for fid, record in det_records.items():
        assert record["window"] == 0
        assert record["pred"] == eval_records[fid]["pred"]
        assert record["probs"] == eval_records[fid]["probs"]


def _three_windows(workspace, tmp_path):
    """12 test flows moved into 60 s windows, listed as window 2 (6 flows),
    window 1 (2 flows, fewer than K+1 = 3) and window 0 (4 flows)."""
    src = [json.loads(line)
           for line in (workspace / "test.jsonl").read_text().splitlines()]
    flows = []
    for i, rec in enumerate(src[:12]):
        base = 130.0 if i < 6 else 70.0 if i < 8 else 10.0
        shift = rec["packets"][0]["ts"]
        for pkt in rec["packets"]:
            pkt["ts"] = round(pkt["ts"] - shift + base, 6)
        flows.append(rec)
    moved = tmp_path / "windowed.jsonl"
    moved.write_text("".join(json.dumps(r) + "\n" for r in flows))
    return moved


def test_detect_skips_undersized_window(workspace, tmp_path, capsys):
    moved = _three_windows(workspace, tmp_path)
    out = tmp_path / "det.jsonl"
    rc = main(["detect", "--flows", str(moved), "--model",
               str(workspace / "model.ckpt"), "--window", "60", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "window 1: skipped" in captured.err
    assert "windows=3 flows=12" in captured.out
    records = [json.loads(line) for line in out.read_text().splitlines()]
    skip_records = [r for r in records if r.get("skipped")]
    assert len(skip_records) == 1
    assert skip_records[0]["window"] == 1 and skip_records[0]["flows"] == 2
    assert sum(1 for r in records if "pred" in r) == 10
    # ascending window order, the skipped record in window 1's place
    assert [r["window"] for r in records] == [0] * 4 + [1] + [2] * 6


def test_detect_extracts_once_per_scored_window(workspace, tmp_path, capsys, extract_calls):
    moved = _three_windows(workspace, tmp_path)
    assert main(["detect", "--flows", str(moved), "--model", str(workspace / "model.ckpt"),
                 "--window", "60", "--out", str(tmp_path / "det.jsonl")]) == 0
    capsys.readouterr()
    assert len(extract_calls) == 2  # windows 0 and 2; window 1 is skipped


def test_eval_extracts_once(workspace, tmp_path, capsys, extract_calls):
    assert main(["eval", "--flows", str(workspace / "test.jsonl"),
                 "--model", str(workspace / "model.ckpt"),
                 "--report", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    assert len(extract_calls) == 1


def test_detect_deterministic(workspace, tmp_path, capsys):
    out1, out2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
    for out in (out1, out2):
        assert main(["detect", "--flows", str(workspace / "test.jsonl"),
                     "--model", str(workspace / "model.ckpt"),
                     "--window", "120", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_detect_ignores_what_the_caps_drop(workspace, tmp_path, capsys):
    # the workspace model reads a flow's first n = 8 packets and m = 6 payload bytes
    flows = workspace / "test.jsonl"
    packets = [json.loads(line)["packets"] for line in flows.read_text().splitlines()]
    assert any(len(p) > 8 for p in packets)
    assert any(len(pkt["payload_hex"]) > 2 * 6 for p in packets for pkt in p[:8])
    capped = tmp_path / "capped.jsonl"
    assert main(["extract", "--flows", str(flows), "--out", str(capped),
                 "--n", "8", "--m", "6"]) == 0
    capsys.readouterr()
    runs = []
    for source in (flows, capped):
        out = tmp_path / f"det-{source.stem}.jsonl"
        assert main(["detect", "--flows", str(source), "--model", str(workspace / "model.ckpt"),
                     "--window", "120", "--out", str(out)]) == 0
        runs.append((out.read_bytes(), capsys.readouterr()))
    assert runs[0] == runs[1]


def test_detect_from_pcap(workspace, tmp_path, capsys):
    pcap = tmp_path / "mini.pcap"
    packets = []
    for i in range(5):
        packets.append((1.0 + i * 0.3, f"10.0.0.{i + 1}", 1000 + i, "10.9.9.9", 443,
                        "tcp", bytes([i * 10 + 1, i * 10 + 2])))
        packets.append((1.15 + i * 0.3, "10.9.9.9", 443, f"10.0.0.{i + 1}", 1000 + i,
                        "tcp", b"\xaa\xbb"))
    pcap.write_bytes(build_pcap(packets))
    out = tmp_path / "det.jsonl"
    rc = main(["detect", "--pcap", str(pcap), "--model",
               str(workspace / "model.ckpt"), "--window", "600", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 5
    assert all("pred" in r for r in records)


def _conversation(i: int) -> list:
    client, server = (f"10.0.0.{i + 1}", 1000 + i), ("10.0.0.9", 443)
    proto = "udp" if i % 2 else "tcp"
    return [(1.0 + i * 0.3, *client, *server, proto, bytes([i, 0, 7])),
            (1.15 + i * 0.3, *server, *client, proto, bytes([i, 1, 7]))]


# five two-packet conversations, TCP and UDP, in one 600 s window
FUZZ_PCAP = build_pcap([packet for i in range(5) for packet in _conversation(i)])
# (kind, position, value): flip bit `value` % 8 of the byte at `position`,
# overwrite that byte with `value`, or truncate the capture to `position` bytes
FUZZ_MUTATION = st.tuples(st.sampled_from(["flip", "overwrite", "truncate"]),
                          st.integers(0, len(FUZZ_PCAP) - 1), st.integers(0, 255))


def _mutate(data: bytes, mutations) -> bytes:
    data = bytearray(data)
    for kind, position, value in mutations:
        if kind == "truncate":
            del data[position:]
        elif position < len(data):
            data[position] = data[position] ^ (1 << value % 8) if kind == "flip" else value
    return bytes(data)


@given(st.lists(FUZZ_MUTATION, min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_mutated_pcap_exits_cleanly(workspace, mutations):
    # extract and detect end in exit 0 or 2: one format error line, or only
    # the notices of windows too small to score
    root = workspace / "pcap_fuzz"
    root.mkdir(exist_ok=True)
    pcap, out = root / "mutated.pcap", root / "out"
    pcap.write_bytes(_mutate(FUZZ_PCAP, mutations))
    for args in (["extract"], ["detect", "--model", str(workspace / "model.ckpt"),
                               "--window", "600"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([*args, "--pcap", str(pcap), "--out", str(out)])
        lines = err.getvalue().splitlines()
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            assert len(lines) == 1 and lines[0].startswith("format error:"), lines
        else:
            assert rc == 0 and all(re.fullmatch(r"window \d+: skipped \(.*\)", line)
                                   for line in lines), (rc, lines)


# (kind, index, value): set the name or one dimension (position, size) of
# manifest entry `index`, drop or duplicate it, swap it with the next, or
# append an entry; overwrite payload bytes from byte `index` on (with random
# bytes, or a float32 inf, NaN or largest finite value), cut the payload
# there, or extend it; the result is sealed again
CKPT_MUTATION = st.one_of(
    st.tuples(st.just("name"), st.integers(0),
              st.sampled_from(["predict.w2", "fuse.alpha", "w"]) | st.text(max_size=12)),
    st.tuples(st.just("shape"), st.integers(0),
              st.tuples(st.integers(0, 3), st.integers(0, 64) | st.integers(-1, 2 ** 64))),
    st.tuples(st.sampled_from(["drop", "duplicate", "swap", "truncate"]), st.integers(0),
              st.none()),
    st.tuples(st.just("append"), st.integers(0),
              st.tuples(st.sampled_from(["predict.w3", "fuse.alpha"]) | st.text(max_size=12),
                        st.lists(st.integers(0, 64), max_size=3))),
    st.tuples(st.just("payload"), st.integers(0), st.binary(min_size=1, max_size=16)
              | st.sampled_from([b"\x00\x00\x80\x7f", b"\x00\x00\xc0\x7f", b"\xff\xff\x7f\x7f"])),
    st.tuples(st.just("extend"), st.integers(0), st.binary(min_size=1, max_size=16)),
)


def _mutate_checkpoint(blob: bytes, mutation) -> tuple[list, bytes]:
    """(manifest, payload) of sealed checkpoint `blob` after `mutation`."""
    manifest, payload = sealed_parts(blob)
    payload = bytearray(payload)
    kind, index, value = mutation
    entry = index % len(manifest)
    if kind == "payload":
        at = index % len(payload)
        payload[at:at + len(value)] = value[:len(payload) - at]
    elif kind == "truncate":
        del payload[index % len(payload):]
    elif kind == "extend":
        payload += value
    elif kind == "name":
        manifest[entry][0] = value
    elif kind == "shape":
        shape = manifest[entry][1]
        position, size = value
        shape[position % len(shape)] = size
    elif kind == "drop":
        del manifest[entry]
    elif kind == "duplicate":
        manifest.insert(entry, manifest[entry])
    elif kind == "swap":
        manifest[entry:entry + 2] = manifest[entry:entry + 2][::-1]
    else:
        manifest.append(list(value))
    return manifest, bytes(payload)


@given(CKPT_MUTATION)
@settings(max_examples=60, deadline=None)
def test_mutated_sealed_checkpoint_exits_cleanly(workspace, mutation):
    # eval and detect end in exit 0, or one numeric (1) or format (2) error line
    root = workspace / "ckpt_fuzz"
    root.mkdir(exist_ok=True)
    model, out = root / "model.ckpt", root / "out"
    write_sealed(_with_sidecar(workspace, model),
                 *_mutate_checkpoint((workspace / "model.ckpt").read_bytes(), mutation))
    for args in (["eval", "--report", str(out)], ["detect", "--window", "60", "--out", str(out)]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([*args, "--flows", str(workspace / "test.jsonl"), "--model", str(model)])
        lines = err.getvalue().splitlines()
        assert "Traceback" not in err.getvalue()
        if rc == 0:
            assert all(re.fullmatch(r"window \d+: skipped \(.*\)", line) for line in lines)
        else:
            prefix = {1: "numeric error:", 2: "format error:"}[rc]
            assert len(lines) == 1 and lines[0].startswith(prefix), (rc, lines)


def test_detect_numeric_error_is_its_only_line(workspace, tmp_path, capsys):
    # the largest float32 in the first conv's bias overflows the second conv;
    # the windows skipped before that are not reported
    store = _workspace_store(workspace)
    store.get("payload.conv1.b").data[0] = np.finfo(np.float32).max
    model, out = _with_sidecar(workspace, tmp_path / "model.ckpt"), tmp_path / "det.jsonl"
    save_checkpoint(store, model)
    args = ["detect", "--flows", str(workspace / "test.jsonl"), "--window", "60",
            "--out", str(out)]
    assert main([*args, "--model", str(workspace / "model.ckpt")]) == 0
    assert "skipped" in capsys.readouterr().err
    assert main([*args, "--model", str(model)]) == 1
    assert _one_line_error(capsys).startswith("numeric error:")


@pytest.mark.parametrize("packets", [
    [],
    [{"ts": 1.0, "dir": 0, "len": 60, "payload_hex": ""}],
])
def test_detect_malformed_flow_exit_2(workspace, tmp_path, capsys, packets):
    rec = json.loads((workspace / "test.jsonl").read_text().splitlines()[0])
    rec["packets"] = packets
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(rec) + "\n")
    out = tmp_path / "det.jsonl"
    assert main(["detect", "--flows", str(bad), "--model",
                 str(workspace / "model.ckpt"), "--window", "60",
                 "--out", str(out)]) == 2
    assert "format error:" in capsys.readouterr().err
    assert not out.exists()


def test_training_still_works_after_detect(workspace, tmp_path, capsys):
    # detect scores every window through plain tensors; training afterwards
    # in the same process must still build graphs and move the parameters
    src = [json.loads(line)
           for line in (workspace / "train.jsonl").read_text().splitlines()]
    for i, rec in enumerate(src):
        shift = rec["packets"][0]["ts"] - 60.0 * (i // 3)
        for pkt in rec["packets"]:
            pkt["ts"] = round(pkt["ts"] - shift, 6)
    windowed = tmp_path / "windowed.jsonl"
    windowed.write_text("".join(json.dumps(r) + "\n" for r in src))
    assert main(["detect", "--flows", str(windowed),
                 "--model", str(workspace / "model.ckpt"),
                 "--window", "60", "--out", str(tmp_path / "d.jsonl")]) == 0
    assert "windows=12" in capsys.readouterr().out
    cfg = TrainConfig(n=6, m=4, extractor_dim=6, hidden=5, projection_dim=4,
                      lstm_hidden=3, cnn_channels=(2, 3), conv_kernel=3,
                      gcn_hidden=3, fuse_hidden=4, predict_hidden=4,
                      k=2, epochs=2, patience=None, seed=7, cosine_eps=1e-8,
                      weight_decay=0.0).validate()
    flows = generate_synthetic_flows(two_class_spec(6), seed=5)
    store = build_parameter_store(cfg, 2)
    before = store.copy()
    fit(prepare_snapshot(flows[::2], store, cfg), prepare_snapshot(flows[1::2], store, cfg),
        cfg, store=store)
    moved = [name for name in store.names()
             if not np.array_equal(store.get(name).data, before.get(name).data)]
    assert moved


# ---------------------------------------------------------------------------
# sweep / synth
# ---------------------------------------------------------------------------

def test_sweep_emits_one_csv_row_per_value(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    # --cosine-eps guards against the tiny-dims relu collapse at init (a
    # hidden=12 artifact; the real-dims default stays strict)
    rc = main(["sweep", "--param", "k", "--values", "2,3,4", "--out", str(out),
               "--synth-classes", "2", "--per-class", "15", "--epochs", "2",
               "--seed", "1", "--cosine-eps", "1e-8", "--no-early-stop", *TINY_FLAGS])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 rows
    header = lines[0].split(",")
    assert header[:3] == ["param", "value", "seed"]
    assert "macro_f1" in header
    values = [line.split(",")[1] for line in lines[1:]]
    assert values == ["2", "3", "4"]


def test_sweep_reads_each_input_once(workspace, tmp_path, capsys, monkeypatch):
    reads = []
    real = cli.read_flows_jsonl
    monkeypatch.setattr(cli, "read_flows_jsonl",
                        lambda path: reads.append(str(path)) or real(path))
    files = [str(workspace / f"{name}.jsonl") for name in ("train", "val", "test")]
    args = ["sweep", "--param", "k", "--flows", files[0], "--val", files[1],
            "--test", files[2], "--epochs", "2", "--cosine-eps", "1e-8",
            "--no-early-stop", *TINY_FLAGS]
    out = tmp_path / "sweep.csv"
    assert main(args + ["--values", "2,3", "--seeds", "1,2", "--out", str(out)]) == 0
    assert sorted(reads) == sorted(files)
    # every (value, seed) pair run alone, on freshly read files, gives the same row
    lines = out.read_text().splitlines()
    expected = lines[:1]
    for value in ("2", "3"):
        for seed in ("1", "2"):
            single = tmp_path / f"sweep-{value}-{seed}.csv"
            assert main(args + ["--values", value, "--seeds", seed,
                                "--out", str(single)]) == 0
            expected.append(single.read_text().splitlines()[1])
    capsys.readouterr()
    assert lines == expected


def _relabeled_copy(src, dst, label=None):
    records = [json.loads(line) for line in src.read_text().splitlines()]
    dst.write_text("".join(json.dumps({**r, "label": label}) + "\n" for r in records))
    return str(dst)


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("case", ["unlabeled", "seeds_not_int", "seeds_negative",
                                  "unlabeled_test", "flows_alone", "synth_classes_4"])
def test_sweep_bad_input_exit_3(workspace, tmp_path, capsys, monkeypatch, case):
    files = [str(workspace / f"{name}.jsonl") for name in ("train", "val", "test")]
    args = ["sweep", "--param", "k", "--values", "2", "--out", str(tmp_path / "s.csv"),
            "--epochs", "1", *TINY_FLAGS]
    if case == "unlabeled":
        args += ["--flows", _relabeled_copy(workspace / "train.jsonl", tmp_path / "t.jsonl"),
                 "--val", _relabeled_copy(workspace / "val.jsonl", tmp_path / "v.jsonl"),
                 "--test", files[2]]
        message = "training flows carry no labels"
    elif case == "unlabeled_test":
        # rejected before any model is fitted
        monkeypatch.setattr(cli, "fit", lambda *a, **k: pytest.fail("sweep fitted a model"))
        args += ["--flows", files[0], "--val", files[1],
                 "--test", _relabeled_copy(workspace / "test.jsonl", tmp_path / "s.jsonl")]
        message = "test flows carry no labels"
    elif case == "flows_alone":
        args += ["--flows", files[0]]
        message = "sweep with --flows also needs --val and --test"
    elif case == "synth_classes_4":
        args += ["--synth-classes", "4", "--per-class", "5"]
        message = "no built-in preset for 4 classes"
    else:
        args += ["--flows", *files[:1], "--val", files[1], "--test", files[2],
                 "--seeds", "a" if case == "seeds_not_int" else "1,-1"]
        message = "--seeds expects integers" if case == "seeds_not_int" else "seed must be >= 0"
    assert main(args) == 3
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("split, message", [("--flows", "training flows carry no labels"),
                                            ("--val", "validation flows carry no labels")])
def test_train_unlabeled_split_exit_3(workspace, tmp_path, capsys, monkeypatch, split, message):
    # rejected before any parameter is drawn
    monkeypatch.setattr(cli, "build_parameter_store",
                        lambda *a, **k: pytest.fail("train drew parameters"))
    files = {"--flows": str(workspace / "train.jsonl"), "--val": str(workspace / "val.jsonl")}
    files[split] = _relabeled_copy(Path(files[split]), tmp_path / "unlabeled.jsonl")
    model = tmp_path / "m.ckpt"
    assert main(["train", *[x for pair in files.items() for x in pair], "--out", str(model),
                 "--epochs", "1", *TINY_FLAGS]) == 3
    assert message in _one_line_error(capsys)
    assert not model.exists()


def test_train_single_class_exit_3(workspace, tmp_path, capsys):
    files = [_relabeled_copy(workspace / f"{name}.jsonl", tmp_path / f"{name}.jsonl", 0)
             for name in ("train", "val")]
    model = tmp_path / "m.ckpt"
    assert main(["train", "--flows", files[0], "--val", files[1], "--out", str(model),
                 "--epochs", "1", *TINY_FLAGS]) == 3
    assert "need at least 2 classes, got 1" in _one_line_error(capsys)
    assert not model.exists()


@pytest.mark.parametrize("label", [-1, True, 1.5])
def test_train_bad_label_exit_2(workspace, tmp_path, capsys, label):
    records = [json.loads(line) for line in (workspace / "train.jsonl").read_text().splitlines()]
    records[0]["label"] = label
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    model = tmp_path / "m.ckpt"
    assert main(["train", "--flows", str(bad), "--val", str(workspace / "val.jsonl"),
                 "--out", str(model), "--epochs", "1", *TINY_FLAGS]) == 2
    assert "label must be null or an int >= 0" in _one_line_error(capsys)
    assert not model.exists()


def _with_first_record(src, dst, edit):
    records = [json.loads(line) for line in src.read_text().splitlines()]
    edit(records[0])
    dst.write_text("".join(json.dumps(r) + "\n" for r in records))
    return dst


# Sizes whose byte count is beyond a 47-bit address space: the allocation
# fails at once, whatever the machine's overcommit policy. The model and the
# view arrays are checked against physical memory before numpy sees a shape,
# so a size beyond int64 ends the same way. eval and detect read n from the
# sidecar, and only there.
@pytest.mark.parametrize("command, flag, size", [
    pytest.param("train", "--hidden", 10 ** 13, id="hidden"),
    pytest.param("train", "label", 10 ** 14, id="label"),
    pytest.param("train", "--hidden", 10 ** 22, id="hidden_1e22"),
    pytest.param("train", "--hidden", 2 ** 62, id="hidden_2e62"),
    pytest.param("train", "--n", 10 ** 22, id="n_1e22"),
    pytest.param("train", "--m", 10 ** 22, id="m_1e22"),
    pytest.param("eval", "n", 10 ** 22, id="eval_n_1e22"),
    pytest.param("detect", "n", 10 ** 22, id="detect_n_1e22"),
    pytest.param("train", "--conv-kernel", 10 ** 22, id="conv_kernel_1e22"),
    pytest.param("train", "--depth", 10 ** 9, id="depth_1e9"),
])
def test_out_of_memory_exit_1(workspace, tmp_path, capsys, command, flag, size):
    train = workspace / "train.jsonl"
    flags = list(TINY_FLAGS)
    if flag == "label":
        train = _with_first_record(train, tmp_path / "big-label.jsonl",
                                   lambda r: r.update(label=size))
    elif flag == "--depth":  # the reference width: at --hidden 12 the size walk takes seconds
        flags += [flag, str(size), "--hidden", "128"]
    elif command == "train":
        flags[flags.index(flag) + 1] = str(size)
    else:
        meta = json.loads((workspace / "model.ckpt.meta.json").read_text())
        meta["config"][flag] = size
        (tmp_path / "model.ckpt.meta.json").write_text(json.dumps(meta))
        (tmp_path / "model.ckpt").write_bytes((workspace / "model.ckpt").read_bytes())
    out = tmp_path / "m.ckpt"
    test, model = str(workspace / "test.jsonl"), str(tmp_path / "model.ckpt")
    args = {"train": ["train", "--flows", str(train), "--val", str(workspace / "val.jsonl"),
                      "--out", str(out), "--epochs", "1", *flags],
            "eval": ["eval", "--flows", test, "--model", model, "--report", str(out)],
            # one window, so that no skipped window is reported
            "detect": ["detect", "--flows", test, "--model", model, "--window", "inf",
                       "--out", str(out)]}[command]
    assert main(args) == 1
    views = flag.strip("-") in ("n", "m")
    assert _one_line_error(capsys).startswith("out of memory: the view arrays of " if views
                                              else "out of memory:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "sweep"])
@pytest.mark.parametrize("per_class", [10 ** 11, 2 ** 63])
def test_synthetic_flows_beyond_memory_exit_1(tmp_path, capsys, command, per_class):
    # refused before the first draw: generating them would run for hours
    out = tmp_path / "out"
    args = {"synth": ["synth", "--per-class", str(per_class), "--out", str(out)],
            "sweep": ["sweep", "--param", "k", "--values", "2", "--per-class", str(per_class),
                      "--out", str(out)]}[command]
    assert main(args) == 1
    assert _one_line_error(capsys).startswith("out of memory:")
    assert not out.exists()


# a pcap length field is 32 bits and labels are stored as int64
@pytest.mark.parametrize("command", ["train", "eval", "detect"])
@pytest.mark.parametrize("field, value", [("len", 2 ** 32), ("len", 10 ** 30),
                                          ("label", 2 ** 63), ("label", 10 ** 30)])
def test_oversized_jsonl_integer_exit_2(workspace, tmp_path, capsys, command, field, value):
    def edit(record):
        (record["packets"][0] if field == "len" else record)[field] = value

    source = workspace / ("train.jsonl" if command == "train" else "test.jsonl")
    flows = str(_with_first_record(source, tmp_path / "big.jsonl", edit))
    out = tmp_path / "out"
    model = str(workspace / "model.ckpt")
    args = {"train": ["train", "--flows", flows, "--val", str(workspace / "val.jsonl"),
                      "--out", str(out), "--epochs", "1", *TINY_FLAGS],
            "eval": ["eval", "--flows", flows, "--model", model, "--report", str(out)],
            "detect": ["detect", "--flows", flows, "--model", model, "--window", "60",
                       "--out", str(out)]}[command]
    assert main(args) == 2
    assert f"{field} must be" in _one_line_error(capsys)
    assert not out.exists()


# JSON that the parser itself refuses with other errors than a syntax error
UNPARSABLE_JSON = {"deep": "[" * 100000 + "]" * 100000,  # RecursionError
                   "long_integer": "1" * 5000}  # beyond Python's int digit limit


@pytest.mark.parametrize("command", ["train", "eval", "detect"])
@pytest.mark.parametrize("text", sorted(UNPARSABLE_JSON))
def test_unparsable_jsonl_line_exit_2(workspace, tmp_path, capsys, command, text):
    source = workspace / ("train.jsonl" if command == "train" else "test.jsonl")
    lines = source.read_text().splitlines()
    lines[0] = UNPARSABLE_JSON[text]
    flows = tmp_path / "bad.jsonl"
    flows.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    model = str(workspace / "model.ckpt")
    args = {"train": ["train", "--flows", str(flows), "--val", str(workspace / "val.jsonl"),
                      "--out", str(out), "--epochs", "1", *TINY_FLAGS],
            "eval": ["eval", "--flows", str(flows), "--model", model, "--report", str(out)],
            "detect": ["detect", "--flows", str(flows), "--model", model, "--window", "60",
                       "--out", str(out)]}[command]
    assert main(args) == 2
    assert "bad.jsonl:1: invalid JSON:" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "detect"])
@pytest.mark.parametrize("text", sorted(UNPARSABLE_JSON))
def test_unparsable_sidecar_exit_2(workspace, tmp_path, capsys, command, text):
    model = tmp_path / "model.ckpt"
    model.write_bytes((workspace / "model.ckpt").read_bytes())
    (tmp_path / "model.ckpt.meta.json").write_text(UNPARSABLE_JSON[text])
    out = tmp_path / "out"
    args = {"eval": ["--report", str(out)], "detect": ["--window", "60", "--out", str(out)]}
    assert main([command, "--flows", str(workspace / "test.jsonl"),
                 "--model", str(model), *args[command]]) == 2
    assert "malformed metadata" in _one_line_error(capsys)
    assert not out.exists()


def test_window_assignment_partition():
    from flowid.cli import assign_windows
    from flowid.ingest import FiveTuple, FlowRecord, PacketView

    key = FiveTuple("1.1.1.1", "2.2.2.2", 1, 2, "tcp")
    flows = [FlowRecord(f"f{i}", key, [PacketView(ts, -1, 60)])
             for i, ts in enumerate([0.0, 59.999, 60.0, 119.5, 3600.0])]
    windows = assign_windows(flows, 60.0)
    assert {w: [f.id for f in fl] for w, fl in windows.items()} == {
        0: ["f0", "f1"], 1: ["f2", "f3"], 60: ["f4"]}
    assert sum(len(v) for v in windows.values()) == len(flows)
    with pytest.raises(ConfigError):
        assign_windows(flows, 0.0)


def _two_packet_pcap(tmp_path):
    """One TCP conversation whose two packets are 100 s apart."""
    pcap = tmp_path / "gap.pcap"
    pcap.write_bytes(build_pcap([
        (1.0, "10.0.0.1", 1234, "10.0.0.2", 80, "tcp", b"\x01"),
        (101.0, "10.0.0.2", 80, "10.0.0.1", 1234, "tcp", b"\x02"),
    ]))
    return pcap


@pytest.mark.parametrize("flag,value", [
    ("--lr", "nan"),
    ("--weight-decay", "nan"),
    ("--omega-n", "nan"),
    ("--omega-g", "inf"),
    ("--tau-n", "nan"),
    ("--tau-g", "inf"),
    ("--cosine-eps", "nan"),
])
def test_train_rejects_non_finite_values_exit_3(workspace, tmp_path, capsys, flag, value):
    model = tmp_path / "m.ckpt"
    assert main(["train", "--flows", str(workspace / "train.jsonl"),
                 "--val", str(workspace / "val.jsonl"), "--out", str(model),
                 "--epochs", "1", "--seed", "3", flag, value, *TINY_FLAGS]) == 3
    assert "config error:" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("value", ["0", "-1e-8"])
def test_cosine_eps_must_be_positive_exit_3(workspace, tmp_path, capsys, value):
    model = tmp_path / "m.ckpt"
    assert main(["train", "--flows", str(workspace / "train.jsonl"),
                 "--val", str(workspace / "val.jsonl"), "--out", str(model),
                 "--epochs", "1", f"--cosine-eps={value}", *TINY_FLAGS]) == 3
    assert _one_line_error(capsys).startswith("config error: cosine_eps must be positive")
    assert not model.exists()


def test_train_with_strong_edge_drop_at_default_settings(workspace, tmp_path, capsys):
    # ED at 0.9 strips some nodes of every incoming message: zero-norm rows,
    # which the default cosine_eps keeps finite
    model = tmp_path / "m.ckpt"
    assert main(["train", "--flows", str(workspace / "train.jsonl"),
                 "--val", str(workspace / "val.jsonl"), "--out", str(model),
                 "--epochs", "2", "--seed", "5", "--aug2", "ed:0.9", *TINY_FLAGS]) == 0
    assert "Traceback" not in capsys.readouterr().err and model.exists()


# finite settings whose arithmetic overflows: the contrast logits at a tiny
# temperature, a parameter update at a huge step or loss weight, the squared
# row-norm stabilizer (which would otherwise flatten every cosine to 0)
@pytest.mark.parametrize("flag, value", [("--tau-n", "1e-300"), ("--lr", "1e308"),
                                         ("--omega-n", "1e308"), ("--cosine-eps", "1e300")])
def test_numeric_error_exit_1(workspace, tmp_path, capsys, flag, value):
    model = tmp_path / "m.ckpt"
    assert main(["train", "--flows", str(workspace / "train.jsonl"),
                 "--val", str(workspace / "val.jsonl"), "--out", str(model),
                 "--epochs", "2", "--seed", "3", flag, value, *TINY_FLAGS]) == 1
    assert _one_line_error(capsys).startswith("numeric error:")
    assert not model.exists()


def test_saturated_lstm_gates_are_not_a_numeric_error(workspace, tmp_path, capsys):
    # every gate pre-activation is about -100: float32 exp(100) overflows,
    # and each sigmoid gate takes its limit 0
    store = _workspace_store(workspace)
    store.get("temporal.lstm.b").data[...] = -100.0
    model = _with_sidecar(workspace, tmp_path / "model.ckpt")
    save_checkpoint(store, model)
    assert main(["eval", "--flows", str(workspace / "test.jsonl"), "--model", str(model),
                 "--report", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, channels", [
    ("train", "0,4"), ("train", "3,0"), ("train", "-1,4"), ("sweep", "3,0"), ("sweep", "-1,4"),
    ("eval", "3,0"), ("detect", "0,4"),
])
def test_cnn_channels_below_one_exit_3(workspace, tmp_path, capsys, command, channels):
    out = tmp_path / "out"
    test, train, val = (str(workspace / f"{name}.jsonl") for name in ("test", "train", "val"))
    if command in ("eval", "detect"):  # the sidecar's channels
        model = tmp_path / "model.ckpt"
        model.write_bytes((workspace / "model.ckpt").read_bytes())
        meta = json.loads((workspace / "model.ckpt.meta.json").read_text())
        meta["config"]["cnn_channels"] = [int(c) for c in channels.split(",")]
        (tmp_path / "model.ckpt.meta.json").write_text(json.dumps(meta))
    args = {"train": ["train", "--flows", train, "--val", val, "--out", str(out),
                      "--epochs", "1", *TINY_FLAGS, f"--cnn-channels={channels}"],
            "sweep": ["sweep", "--param", "k", "--values", "2", "--out", str(out),
                      "--flows", train, "--val", val, "--test", test, "--epochs", "1",
                      *TINY_FLAGS, f"--cnn-channels={channels}"],
            "eval": ["eval", "--flows", test, "--model", str(tmp_path / "model.ckpt"),
                     "--report", str(out)],
            "detect": ["detect", "--flows", test, "--model", str(tmp_path / "model.ckpt"),
                       "--window", "60", "--out", str(out)]}[command]
    assert main(args) == 3
    assert _one_line_error(capsys).startswith("config error: cnn_channels must be")
    assert not out.exists()


def _numeric_config_flag_cases():
    """0 and -1 for every numeric config flag, and NaN for a float one."""
    kinds = {"--" + f.name.replace("_", "-"): type(f.default)
             for f in fields(TrainConfig) if type(f.default) in (int, float)}
    kinds["--lr"] = kinds.pop("--learning-rate")
    cases = [(flag, value) for flag, kind in kinds.items()
             for value in ("0", "-1") + (("nan",) if kind is float else ())]
    return cases + [("--cnn-channels", channels) for channels in ("0,4", "4,0", "-1,4", "4,-1")]


# huge sizes are test_out_of_memory_exit_1's; a huge --depth would allocate layer after layer
@pytest.mark.parametrize("flag, value", _numeric_config_flag_cases())
def test_numeric_config_flag_fuzz(workspace, tmp_path, capsys, flag, value):
    out = tmp_path / "m.ckpt"
    code = main(["train", "--flows", str(workspace / "train.jsonl"),
                 "--val", str(workspace / "val.jsonl"), "--out", str(out),
                 *TINY_FLAGS, "--epochs", "1", f"{flag}={value}"])
    assert code in (0, 3)
    if code:
        assert _one_line_error(capsys).startswith("config error:")
    else:
        assert "Traceback" not in capsys.readouterr().err and out.exists()


@pytest.mark.parametrize("case", ["detect_window", "detect_tiny_window", "detect_small_window",
                                  "detect_timeout", "extract_timeout", "detect_flows_timeout",
                                  "extract_flows_timeout", "synth_split"])
def test_nan_ranges_exit_3(workspace, tmp_path, capsys, case):
    pcap = _two_packet_pcap(tmp_path)
    out = tmp_path / "out"
    detect = ["detect", "--model", str(workspace / "model.ckpt"), "--out", str(out)]
    argv = {
        "detect_window": detect + ["--flows", str(workspace / "test.jsonl"),
                                   "--window", "nan"],
        # finite and positive, but a flow's window index overflows to inf
        "detect_tiny_window": detect + ["--flows", str(workspace / "test.jsonl"),
                                        "--window", "1e-310"],
        # finite, but a flow's window index is beyond int64
        "detect_small_window": detect + ["--flows", str(workspace / "test.jsonl"),
                                         "--window", "1e-300"],
        "detect_timeout": detect + ["--pcap", str(pcap), "--window", "60",
                                    "--timeout", "nan"],
        "extract_timeout": ["extract", "--pcap", str(pcap), "--out", str(out),
                            "--timeout", "nan"],
        # a flow file holds its flows already, but the setting is checked alike
        "detect_flows_timeout": detect + ["--flows", str(workspace / "test.jsonl"),
                                          "--window", "60", "--timeout", "nan"],
        "extract_flows_timeout": ["extract", "--flows", str(workspace / "test.jsonl"),
                                  "--out", str(out), "--timeout", "-1"],
        "synth_split": ["synth", "--per-class", "5", "--out", str(out),
                        "--split", "0.5,0.5,nan"],
    }[case]
    assert main(argv) == 3
    assert _one_line_error(capsys).startswith("config error:")
    assert not out.exists()


def test_infinite_window_and_timeout_keep_their_meaning(workspace, tmp_path, capsys):
    # an infinite idle timeout never splits a flow: the 100 s gap stays one flow
    flows = tmp_path / "flows.jsonl"
    assert main(["extract", "--pcap", str(_two_packet_pcap(tmp_path)),
                 "--out", str(flows), "--timeout", "inf"]) == 0
    assert len(flows.read_text().splitlines()) == 1
    # an infinite window puts every flow in window 0
    out = tmp_path / "det.jsonl"
    assert main(["detect", "--flows", str(workspace / "test.jsonl"),
                 "--model", str(workspace / "model.ckpt"),
                 "--window", "inf", "--out", str(out)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records and {r["window"] for r in records} == {0}


@pytest.mark.parametrize("flag, value, message", [
    ("--split", "a,b,c", "--split expects three floats"),
    ("--split", "0.5,0.5", "--split expects exactly three fractions"),
    ("--classes", "4", "no built-in preset for 4 classes"),
])
def test_synth_bad_input_exit_3(tmp_path, capsys, flag, value, message):
    out = tmp_path / "out"
    assert main(["synth", "--per-class", "5", "--out", str(out), flag, value]) == 3
    assert message in _one_line_error(capsys)
    assert not out.exists()


def test_eval_skips_blank_jsonl_lines(workspace, tmp_path, capsys):
    lines = (workspace / "test.jsonl").read_text().splitlines()
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n" + "\n\n".join(lines) + "\n\n")
    reports = []
    for flows in (workspace / "test.jsonl", spaced):
        report = tmp_path / f"{flows.stem}.json"
        assert main(["eval", "--flows", str(flows), "--model", str(workspace / "model.ckpt"),
                     "--report", str(report)]) == 0
        reports.append((report.read_bytes(), capsys.readouterr().out))
    assert reports[0] == reports[1]


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["synth", "--classes", "3", "--per-class", "4", "--seed", "9",
                 "--out", str(a)]) == 0
    assert main(["synth", "--classes", "3", "--per-class", "4", "--seed", "9",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 12
