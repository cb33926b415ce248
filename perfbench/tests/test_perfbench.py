"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, covered, self_times  # noqa: E402

from flowid.ingest import parse_capture  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# pcap round trip
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    flows = gen.detect_flows(seed=5, per_class=6, windows=3, width=60.0)
    path = tmp_path_factory.mktemp("pcap") / "capture.pcap"
    written = gen.write_pcap(flows, path)
    return flows, written, path


def test_pcap_round_trip_returns_the_written_flows(capture):
    flows, written, path = capture
    parsed = parse_capture(path, n=gen.PCAP_N, m=gen.PCAP_M)
    assert parsed.skipped_frames == 0 and parsed.truncated_records == 0
    assert parsed.packets_kept == sum(len(f.packets) for f in flows)
    gen.check_round_trip(written, parsed.flows)
    for want, got in zip(written, parsed.flows):
        assert [p.direction * p.length for p in got.packets] == \
            [p.direction * p.length for p in want.packets]


def test_round_trip_check_catches_a_changed_length(capture):
    _, written, path = capture
    parsed = parse_capture(path, n=gen.PCAP_N, m=gen.PCAP_M).flows
    parsed[3].packets[1].length += 1
    with pytest.raises(gen.RoundTripError, match="flow 3"):
        gen.check_round_trip(written, parsed)
    with pytest.raises(gen.RoundTripError, match="parser returned"):
        gen.check_round_trip(written, parsed[:-1])


def test_frames_are_padded_to_the_packet_length(capture):
    _, written, path = capture
    data = path.read_bytes()
    offset, lengths = 24, []
    while offset < len(data):
        incl, orig = int.from_bytes(data[offset + 8:offset + 12], "little"), \
            int.from_bytes(data[offset + 12:offset + 16], "little")
        assert incl == orig
        lengths.append(incl)
        offset += 16 + incl
    assert sorted(lengths) == sorted(p.length for f in written for p in f.packets)


def test_detect_flows_fill_every_window_evenly():
    flows = gen.detect_flows(seed=2, per_class=10, windows=5, width=60.0)
    windows = [math.floor(f.first_timestamp() / 60.0) for f in flows]
    assert sorted(set(windows)) == [0, 1, 2, 3, 4]
    assert all(windows.count(w) == 6 for w in range(5))


def test_inputs_depend_only_on_the_seed():
    a, b = gen.train_ref_splits(9), gen.train_ref_splits(9)
    assert [[f.id for f in part] for part in a] == [[f.id for f in part] for part in b]
    assert [len(part) for part in a] == [300, 100, 100]
    assert gen.train_ref_splits(10)[0][0].packets != a[0][0].packets


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered([], 0, 10) == 0


def test_self_time_on_a_hand_made_tree():
    spans = [Span(0, "op", "", 0.0, 10.0),
             Span(1, "a", "", 1.0, 4.0, parent=0, thread=1),
             Span(2, "b", "", 3.0, 6.0, parent=0, thread=2),   # overlaps a
             Span(3, "a.child", "", 2.0, 3.0, parent=1, thread=1),
             Span(4, "b.child", "", 3.5, 4.5, parent=2, thread=2),
             Span(5, "b.child", "", 4.0, 5.0, parent=2, thread=2)]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 1.5, 3: 1.0, 4: 1.0, 5: 1.0}


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_wraps_attributes_records_parents_and_restores():
    class Owner:
        def leaf(self, x):
            return [x, x]

    module = type(sys)("fake_module")
    module.outer = lambda x: module.inner(x) + Owner().leaf(x)
    module.inner = lambda x: [x]
    original_inner = module.inner
    tracer = Tracer(clock=_Clock())
    tracer.install([(module, "outer", "layer.outer", None),
                    (module, "inner", "layer.inner", lambda args, out: {"items": len(out)}),
                    (Owner, "leaf", "layer.leaf", None)])
    with tracer.root("op"):
        assert module.outer(7) == [7, 7, 7]
    tracer.uninstall()
    assert module.inner is original_inner

    by_name = {s.name: s for s in tracer.spans}
    assert by_name["op"].parent is None
    assert by_name["layer.outer"].parent == by_name["op"].id
    assert by_name["layer.inner"].parent == by_name["layer.outer"].id
    assert by_name["layer.leaf"].parent == by_name["layer.outer"].id
    assert by_name["layer.inner"].counts == {"items": 1}
    assert by_name["layer.inner"].site == "fake_module.inner"
    own = self_times(tracer.spans)
    # clock ticks: op 1..8, outer 2..7, inner 3..4, leaf 5..6
    assert [own[by_name[n].id] for n in ("op", "layer.outer", "layer.inner", "layer.leaf")] \
        == [2.0, 3.0, 1.0, 1.0]


def test_window_latency_pairs_prepare_and_evaluate_per_thread():
    spans = [Span(0, "p", workloads.WINDOW_START, 0.0, 1.0, thread=1),
             Span(1, "p", workloads.WINDOW_START, 0.5, 2.0, thread=2),
             Span(2, "e", workloads.WINDOW_END, 1.0, 1.5, thread=1),
             Span(3, "e", workloads.WINDOW_END, 2.0, 4.0, thread=2),
             Span(4, "e", workloads.WINDOW_END, 5.0, 6.0, thread=1)]  # no open window
    assert sorted(workloads.window_latencies(spans)) == [1.5, 3.5]


# ---------------------------------------------------------------------------
# metric names and output lines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "tensor_core.backward_s", "cli.window_p50_ms",
                                  "a-b.c_9", "9lives"])
def test_metric_name_pattern_accepts(name):
    assert run.NAME.fullmatch(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space", "a/b", "x" * 65, "é"])
def test_metric_name_pattern_rejects(name):
    assert not run.NAME.fullmatch(name)
    with pytest.raises(ValueError):
        run.metric_lines({name: {"value": 1.0, "unit": "s"}})


def test_one_metric_per_line_with_its_unit():
    metrics = {"setup_s": {"value": 0.1 + 0.2, "unit": "s"},
               "flows_per_s": {"value": 246.0, "unit": "flows/s"}}
    lines = run.metric_lines(metrics)
    assert len(lines) == len(metrics)
    for line, (name, entry) in zip(lines, metrics.items()):
        tag, got_name, value, unit = line.split(" ")
        assert (tag, got_name, unit) == ("metric", name, entry["unit"])
        assert float(value) == entry["value"]  # printed with all its digits


def test_reported_metrics_match_the_benchmark_spec():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    produced = workloads.layer_metrics([Span(0, "op", "", 0.0, 1.0)], [1.0], [1.0])
    assert set(produced) == set(per_layer)
    assert {name: run.layer_unit(name) for name in produced} == per_layer
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

EXPECTED = {"flow-000001": {"label": 0, "window": 0}, "flow-000002": {"label": 1, "window": 1}}


def _records():
    return [{"flow_id": "flow-000001", "window": 0, "pred": 0, "probs": [0.25, 0.75]},
            {"flow_id": "flow-000002", "window": 1, "pred": 1, "probs": [0.5, 0.5]}]


def test_detection_check_accepts_good_output():
    workloads.check_detections(_records(), EXPECTED)


@pytest.mark.parametrize("break_it, message", [
    (lambda r: r.append(dict(r[0])), "more than one"),
    (lambda r: r.pop(), "missing"),
    (lambda r: r.append({"window": 2, "skipped": True, "flows": 1}), "skipped"),
    (lambda r: r[0].update(probs=[0.25, 0.75 + 1e-8]), "sum to"),
    (lambda r: r[1].update(window=0), "window 0"),
])
def test_detection_check_rejects(break_it, message):
    records = _records()
    break_it(records)
    with pytest.raises(workloads.CheckFailed, match=message):
        workloads.check_detections(records, EXPECTED)
