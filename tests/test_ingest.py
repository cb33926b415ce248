"""Parser, view arrays, synthetic generator, and JSONL format tests."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowid.errors import ConfigError, FlowFormatError, PcapFormatError
from flowid.extractors import build_view_batch, path_adjacency
from flowid.ingest import (
    FiveTuple,
    FlowRecord,
    PacketView,
    default_spec,
    flow_from_json,
    flow_to_json,
    generate_synthetic_flows,
    parse_capture,
    split_flows,
    SyntheticClassSpec,
)
from flowid.ingest.synth import _least_flow_bytes
from pcap_util import build_pcap, ethernet_frame


def parse_bytes(tmp_path, raw, n=40, m=16, idle_timeout=64.0):
    path = tmp_path / "capture.pcap"
    path.write_bytes(raw)
    return parse_capture(path, n=n, m=m, idle_timeout=idle_timeout)


# ---------------------------------------------------------------------------
# parse_capture
# ---------------------------------------------------------------------------

def test_three_tcp_packets_one_bidirectional_flow(tmp_path):
    raw = build_pcap([
        (1.0, "10.0.0.1", 1234, "10.0.0.2", 80, "tcp", b"GET"),
        (1.1, "10.0.0.2", 80, "10.0.0.1", 1234, "tcp", b"OK"),
        (1.2, "10.0.0.1", 1234, "10.0.0.2", 80, "tcp", b""),
    ])
    result = parse_bytes(tmp_path, raw)
    assert len(result.flows) == 1
    flow = result.flows[0]
    assert len(flow.packets) == 3
    assert [p.direction for p in flow.packets] == [-1, 1, -1]
    assert flow.key.src_addr == "10.0.0.1"  # initiator is the first packet's source


def test_empty_pcap(tmp_path):
    result = parse_bytes(tmp_path, build_pcap([]))
    assert result.flows == []


def test_two_interleaved_udp_keys(tmp_path):
    raw = build_pcap([
        (1.0, "10.0.0.1", 5000, "10.0.0.9", 53, "udp", b"a"),
        (1.1, "10.0.0.2", 5001, "10.0.0.9", 53, "udp", b"b"),
        (1.2, "10.0.0.9", 53, "10.0.0.1", 5000, "udp", b"c"),
        (1.3, "10.0.0.9", 53, "10.0.0.2", 5001, "udp", b"d"),
    ])
    result = parse_bytes(tmp_path, raw)
    assert len(result.flows) == 2
    first, second = result.flows
    assert first.key.src_addr == "10.0.0.1" and len(first.packets) == 2
    assert second.key.src_addr == "10.0.0.2" and len(second.packets) == 2
    assert [p.payload_prefix for p in first.packets] == [b"a", b"c"]
    assert [p.payload_prefix for p in second.packets] == [b"b", b"d"]


def test_bidirectional_keying_swap_property(tmp_path):
    # Swapping every packet's src/dst flips the recorded initiator, so the flow
    # partition is identical, each key has its two ends swapped, and each
    # packet keeps its sign relative to its own flow's initiator.
    packets = [
        (1.0, "10.0.0.1", 1234, "10.0.0.2", 80, "tcp", b"x"),
        (1.2, "10.0.0.2", 80, "10.0.0.1", 1234, "tcp", b"y"),
        (1.4, "10.0.0.3", 999, "10.0.0.2", 80, "udp", b"z"),
        (1.5, "10.0.0.1", 1234, "10.0.0.2", 80, "tcp", b""),
    ]
    swapped = [(ts, dst, dport, src, sport, proto, pl)
               for ts, src, sport, dst, dport, proto, pl in packets]
    res_a = parse_bytes(tmp_path, build_pcap(packets))
    res_b = parse_bytes(tmp_path, build_pcap(swapped))
    assert len(res_a.flows) == len(res_b.flows)
    for fa, fb in zip(res_a.flows, res_b.flows):
        assert fb.key == FiveTuple(fa.key.dst_addr, fa.key.src_addr, fa.key.dst_port,
                                   fa.key.src_port, fa.key.protocol)
        assert fb.key != fa.key  # FiveTuples compare field by field
        assert fb.key.src_addr == fa.key.dst_addr
        assert [p.direction for p in fa.packets] == [p.direction for p in fb.packets]
        assert [p.length for p in fa.packets] == [p.length for p in fb.packets]


def test_idle_timeout_starts_new_flow(tmp_path):
    raw = build_pcap([
        (1.0, "10.0.0.1", 1234, "10.0.0.2", 80, "tcp", b"a"),
        (2.0, "10.0.0.2", 80, "10.0.0.1", 1234, "tcp", b"b"),
        (100.0, "10.0.0.2", 80, "10.0.0.1", 1234, "tcp", b"c"),
    ])
    result = parse_bytes(tmp_path, raw, idle_timeout=10.0)
    assert len(result.flows) == 2
    # the second record's initiator is the source of the packet that reopened it
    assert result.flows[1].key.src_addr == "10.0.0.2"
    assert result.flows[1].packets[0].direction == -1
    # a packet past the cap n still refreshes the idle timer
    capped = parse_bytes(tmp_path, build_pcap([
        (t, "10.0.0.1", 1234, "10.0.0.2", 80, "tcp", b"d") for t in (0.0, 1.0, 2.0, 11.5)
    ]), n=2, idle_timeout=10.0)
    assert len(capped.flows) == 1 and len(capped.flows[0].packets) == 2


def test_packet_cap_and_payload_cap(tmp_path):
    raw = build_pcap([
        (1.0 + 0.01 * i, "10.0.0.1", 1234, "10.0.0.2", 80, "tcp", bytes(range(32)))
        for i in range(6)
    ])
    result = parse_bytes(tmp_path, raw, n=4, m=5)
    flow = result.flows[0]
    assert len(flow.packets) == 4
    assert all(p.payload_prefix == bytes(range(5)) for p in flow.packets)
    assert result.packets_kept == 4  # the packets the flows hold


def test_non_ip_frames_skipped(tmp_path):
    raw = build_pcap([(1.0, "10.0.0.1", 1, "10.0.0.2", 2, "tcp", b"ok")])
    # append a record whose ethertype is ARP
    import struct
    frame = b"\x02" * 12 + struct.pack("!H", 0x0806) + b"\x00" * 28
    raw += struct.pack("<IIII", 2, 0, len(frame), len(frame)) + frame
    result = parse_bytes(tmp_path, raw)
    assert len(result.flows) == 1
    assert result.skipped_frames == 1


def _edited(frame: bytes, offset: int, value: bytes) -> bytes:
    return frame[:offset] + value + frame[offset + len(value):]


_TCP = ethernet_frame("10.0.0.3", 7, "10.0.0.4", 8, "tcp", b"pp")
_UDP = ethernet_frame("10.0.0.3", 7, "10.0.0.4", 8, "udp", b"pp")

# each frame is out of scope for exactly one reason; the IPv4 header starts at
# byte 14 and the transport header at byte 34
OUT_OF_SCOPE_FRAMES = {
    "under_34_bytes": _TCP[:33],
    "ip_version_6": _edited(_TCP, 14, b"\x65"),
    "ihl_below_20_bytes": _edited(_TCP, 14, b"\x44"),
    "shorter_than_ihl": _edited(_TCP, 14, b"\x4f"),  # 60-byte header, 56-byte frame
    "non_first_fragment": _edited(_TCP, 20, b"\x00\x01"),
    "tcp_under_20_bytes": _TCP[:34 + 19],
    "tcp_data_offset_below_5": _edited(_TCP, 34 + 12, b"\x40"),
    "udp_under_8_bytes": _UDP[:34 + 7],
    "icmp": _edited(_TCP, 23, b"\x01"),
}


@pytest.mark.parametrize("frame", list(OUT_OF_SCOPE_FRAMES.values()),
                         ids=list(OUT_OF_SCOPE_FRAMES))
def test_out_of_scope_frame_skipped(tmp_path, frame):
    valid = (1.0, "10.0.0.1", 1, "10.0.0.2", 2, "tcp", b"ok")
    alone = parse_bytes(tmp_path, build_pcap([valid])).flows
    result = parse_bytes(tmp_path, build_pcap([valid, (1.5, frame)]))
    assert result.skipped_frames == 1
    assert [flow_to_json(f) for f in result.flows] == [flow_to_json(f) for f in alone]


def test_first_fragment_kept(tmp_path):
    more_fragments = _edited(_TCP, 20, b"\x20\x00")  # MF set, offset 0
    result = parse_bytes(tmp_path, build_pcap([
        (1.0, "10.0.0.1", 1, "10.0.0.2", 2, "tcp", b"ok"), (1.5, more_fragments)]))
    assert result.skipped_frames == 0 and len(result.flows) == 2
    assert result.flows[1].key == FiveTuple("10.0.0.3", "10.0.0.4", 7, 8, "tcp")
    assert result.flows[1].packets[0].payload_prefix == b"pp"


def _reference_flows(packets, n, m, idle_timeout):
    """What parse_capture must return for build_pcap(packets), worked out on
    the packet tuples: (flows as (key fields, packets), skipped frames)."""
    flows, open_flows, skipped = [], {}, 0
    for ts, *fields in packets:
        if len(fields) == 1:  # a frame given whole is out of scope here
            skipped += 1
            continue
        src, sport, dst, dport, proto, payload = fields
        ends = sorted([(src, sport), (dst, dport)])
        state = open_flows.get((*ends, proto))
        if state is None or ts - state["last"] > idle_timeout:
            state = {"key": (src, dst, sport, dport, proto), "initiator": (src, sport),
                     "packets": []}
            flows.append(state)
            open_flows[(*ends, proto)] = state
        state["last"] = ts
        if len(state["packets"]) < n:
            direction = -1 if (src, sport) == state["initiator"] else 1
            header = 14 + 20 + (20 if proto == "tcp" else 8)
            state["packets"].append((ts, direction, header + len(payload), payload[:m]))
    return [(f["key"], f["packets"]) for f in flows], skipped


# two pairs of ends that share one end, and differ from each other in one port
END_PAIRS = [(("10.0.0.1", 80), ("10.0.0.2", 1234)), (("10.0.0.1", 80), ("10.0.0.2", 80))]
ORACLE_TIMEOUT = 2.0  # whole-second gaps of 0 to 3 s fall below, at and above it


@given(st.lists(st.tuples(
           st.integers(0, 3),
           st.one_of(st.tuples(st.sampled_from(END_PAIRS), st.booleans(),
                               st.sampled_from(["tcp", "udp"]), st.binary(max_size=6)),
                     st.sampled_from(list(OUT_OF_SCOPE_FRAMES.values())))),
           max_size=24),
       st.integers(1, 4), st.integers(1, 4), st.booleans())
@settings(max_examples=150, deadline=None)
def test_parse_capture_matches_the_reference(tmp_path_factory, events, n, m, magic_le):
    packets, ts = [], 0
    for gap, event in events:
        ts += gap
        if isinstance(event, bytes):
            packets.append((float(ts), event))
        else:
            ends, reply, proto, payload = event
            (src, sport), (dst, dport) = ends[::-1] if reply else ends
            packets.append((float(ts), src, sport, dst, dport, proto, payload))
    result = parse_bytes(tmp_path_factory.mktemp("oracle"), build_pcap(packets, magic_le),
                         n=n, m=m, idle_timeout=ORACLE_TIMEOUT)
    flows, skipped = _reference_flows(packets, n, m, ORACLE_TIMEOUT)
    got = [((f.key.src_addr, f.key.dst_addr, f.key.src_port, f.key.dst_port, f.key.protocol),
            [(p.timestamp, p.direction, p.length, p.payload_prefix) for p in f.packets])
           for f in result.flows]
    assert got == flows
    assert [f.id for f in result.flows] == [f"flow-{i:06d}" for i in range(1, len(flows) + 1)]
    assert (result.skipped_frames, result.truncated_records) == (skipped, 0)
    assert result.packets_kept == sum(len(p) for _, p in flows)


def test_truncated_record_counted(tmp_path):
    raw = build_pcap([(1.0, "10.0.0.1", 1, "10.0.0.2", 2, "tcp", b"ok")])
    raw += b"\x01\x02\x03"  # dangling partial record header
    result = parse_bytes(tmp_path, raw)
    assert len(result.flows) == 1
    assert result.truncated_records == 1


def test_bad_magic_reports_offset(tmp_path):
    with pytest.raises(PcapFormatError) as err:
        parse_bytes(tmp_path, b"\x00" * 24)
    assert err.value.offset == 0


def test_big_endian_magic_supported(tmp_path):
    raw = build_pcap([(1.0, "10.0.0.1", 5, "10.0.0.2", 6, "udp", b"hi")], magic_le=False)
    result = parse_bytes(tmp_path, raw)
    assert len(result.flows) == 1
    assert result.flows[0].packets[0].payload_prefix == b"hi"


def test_wrong_linktype_rejected(tmp_path):
    with pytest.raises(PcapFormatError):
        parse_bytes(tmp_path, build_pcap([], linktype=101))


def test_bad_limits_rejected(tmp_path):
    path = tmp_path / "x.pcap"
    path.write_bytes(build_pcap([]))
    with pytest.raises(ConfigError):
        parse_capture(path, n=0, m=1)


# ---------------------------------------------------------------------------
# views
# ---------------------------------------------------------------------------

def make_flow(dirs_lengths, payloads=None):
    packets = []
    for i, (d, ln) in enumerate(dirs_lengths):
        payload = payloads[i] if payloads else b""
        packets.append(PacketView(float(i), d, ln, payload))
    key = FiveTuple("10.0.0.1", "10.0.0.2", 1, 2, "tcp")
    return FlowRecord("f", key, packets)


def views(flow, n, m=1):
    return build_view_batch([flow], n, m)


def hand_path_adjacency(count):
    """D^-1/2 (A+I) D^-1/2 of the path 0-1-...-(count-1), written out."""
    a = np.eye(count)
    for i in range(count - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    d = 1.0 / np.sqrt(a.sum(axis=1))
    return d[:, None] * a * d[None, :]


def test_length_sequence_hand_example():
    flow = make_flow([(-1, 60), (1, 1500), (-1, 40)])
    np.testing.assert_array_equal(views(flow, 5).lengths, [[-60, 1500, -40, 0, 0]])


def test_length_sequence_single_packet_padded():
    flow = make_flow([(1, 64)])
    np.testing.assert_array_equal(views(flow, 2).lengths, [[64, 0]])


def test_length_sequence_truncates_to_n():
    flow = make_flow([(-1, 10), (1, 20), (-1, 30)])
    np.testing.assert_array_equal(views(flow, 2).lengths, [[-10, 20]])


def test_payload_matrix_hex_to_decimal():
    flow = make_flow([(-1, 60)], payloads=[b"\x41\x42"])
    np.testing.assert_array_equal(views(flow, 1, 4).payloads, [[[65, 66, 0, 0]]])


def test_payload_matrix_empty_payload_row():
    flow = make_flow([(-1, 60)], payloads=[b""])
    np.testing.assert_array_equal(views(flow, 1, 4).payloads, [[[0, 0, 0, 0]]])


def test_payload_matrix_pads_missing_packets():
    flow = make_flow([(-1, 60)], payloads=[b"\xff"])
    np.testing.assert_array_equal(views(flow, 3, 2).payloads, [[[255, 0], [0, 0], [0, 0]]])


def test_tig_layers_and_edges():
    # direction runs [0, 1], [2], [3]: the graph is still the path 0-1-2-3
    batch = views(make_flow([(-1, 10), (-1, 20), (1, 30), (-1, 40)]), 10)
    np.testing.assert_array_equal(batch.counts, [4])
    np.testing.assert_array_equal(batch.directions[0, :5], [-1, -1, 1, -1, 0])
    expected = np.zeros((4, 4))
    for i, j in [(0, 1), (1, 2), (2, 3)]:
        expected[i, j] = expected[j, i] = 1.0
    np.testing.assert_array_equal(path_adjacency(batch.counts)[0] > 0, expected + np.eye(4) > 0)
    np.testing.assert_array_equal(path_adjacency(batch.counts)[0], hand_path_adjacency(4))


def test_tig_single_packet():
    batch = views(make_flow([(1, 100)]), 5)
    np.testing.assert_array_equal(batch.counts, [1])
    np.testing.assert_array_equal(path_adjacency(batch.counts), [[[1.0]]])


def test_tig_features_hand_case():
    batch = views(make_flow([(-1, 60), (1, 1500)]), 4)
    np.testing.assert_array_equal(batch.lengths, [[-60, 1500, 0, 0]])
    np.testing.assert_array_equal(batch.directions, [[-1, 1, 0, 0]])
    a = path_adjacency(batch.counts)[0]  # one edge: every entry is 1/sqrt(2)^2
    np.testing.assert_allclose(a, np.full((2, 2), 0.5), rtol=1e-15)


def test_view_batch_rejects_empty_input():
    for flows, n, m in [([], 4, 2), ([make_flow([])], 4, 2),
                        ([make_flow([(1, 60)])], 0, 2), ([make_flow([(1, 60)])], 4, 0)]:
        with pytest.raises(ConfigError):
            build_view_batch(flows, n, m)


@given(st.lists(st.lists(st.tuples(st.sampled_from([-1, 1]), st.integers(0, 1500),
                                   st.binary(max_size=10)),
                         min_size=1, max_size=30), min_size=1, max_size=4),
       st.integers(1, 12), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_view_shapes_and_path_adjacency(packet_lists, n, m):
    flows = [make_flow([(d, ln) for d, ln, _ in pkts], payloads=[p for _, _, p in pkts])
             for pkts in packet_lists]
    batch = build_view_batch(flows, n, m)
    assert batch.lengths.shape == batch.directions.shape == (len(flows), n)
    assert batch.payloads.shape == (len(flows), n, m)
    counts = [min(len(pkts), n) for pkts in packet_lists]
    np.testing.assert_array_equal(batch.counts, counts)
    a = path_adjacency(batch.counts)
    assert a.shape == (len(flows), max(counts), max(counts))
    for i, (pkts, c) in enumerate(zip(packet_lists, counts)):
        np.testing.assert_array_equal(batch.lengths[i, :c], [d * ln for d, ln, _ in pkts[:c]])
        np.testing.assert_array_equal(batch.directions[i, :c], [d for d, _, _ in pkts[:c]])
        for j, (_, _, payload) in enumerate(pkts[:c]):
            row = list(payload[:m]) + [0] * (m - len(payload[:m]))
            np.testing.assert_array_equal(batch.payloads[i, j], row)
        assert not batch.lengths[i, c:].any() and not batch.directions[i, c:].any()
        assert not batch.payloads[i, c:].any()
        np.testing.assert_array_equal(a[i, :c, :c], hand_path_adjacency(c))
        assert not a[i, c:].any() and not a[i, :, c:].any()


# ---------------------------------------------------------------------------
# synthetic flows
# ---------------------------------------------------------------------------

def test_synthetic_determinism():
    spec = default_spec(2, 10)
    a = generate_synthetic_flows(spec, seed=7)
    b = generate_synthetic_flows(spec, seed=7)
    assert [flow_to_json(f) for f in a] == [flow_to_json(f) for f in b]
    assert len(a) == 20
    assert {f.label for f in a} == {0, 1}


def test_synthetic_fixed_length_all_negative():
    spec = [
        SyntheticClassSpec(count=5, packets=(3, 6), length=(100, 100),
                           payload_len=(0, 0), direction_pattern=(-1,)),
        SyntheticClassSpec(count=5),
    ]
    flows = generate_synthetic_flows(spec, seed=3)
    assert set(build_view_batch(flows[:5], 8, 1).lengths.ravel().tolist()) <= {-100, 0}


@pytest.mark.parametrize("classes", [2, 3])
def test_synthetic_memory_bound_within_twice_what_flows_hold(classes):
    spec = default_spec(classes, 500)
    tracemalloc.start()
    try:
        flows = generate_synthetic_flows(spec, seed=5)
        with_flows = tracemalloc.get_traced_memory()[0]
        del flows
        held = with_flows - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    bound = sum(s.count * _least_flow_bytes(s) for s in spec)
    assert bound <= held <= 2 * bound


def test_synthetic_requires_two_classes():
    with pytest.raises(ConfigError):
        generate_synthetic_flows([SyntheticClassSpec(count=3)], seed=1)


def test_split_is_deterministic_and_stratified():
    flows = generate_synthetic_flows(default_spec(2, 50), seed=5)
    t1, v1, s1 = split_flows(flows, (0.6, 0.2, 0.2), seed=9)
    t2, v2, s2 = split_flows(flows, (0.6, 0.2, 0.2), seed=9)
    assert [f.id for f in t1] == [f.id for f in t2]
    assert len(t1) == 60 and len(v1) == 20 and len(s1) == 20
    for part in (t1, v1, s1):
        labels = [f.label for f in part]
        assert labels.count(0) == labels.count(1)
    assert [f.id for f in v1] == [f.id for f in v2]
    assert [f.id for f in s1] == [f.id for f in s2]


# ---------------------------------------------------------------------------
# JSONL round trip
# ---------------------------------------------------------------------------

def test_jsonl_round_trip_identity():
    flows = generate_synthetic_flows(default_spec(2, 5), seed=11)
    for flow in flows:
        line = flow_to_json(flow)
        again = flow_from_json(line)
        assert flow_to_json(again) == line
        assert again.key == flow.key
        assert again.label == flow.label
        assert [(p.timestamp, p.direction, p.length, p.payload_prefix)
                for p in again.packets] == \
               [(p.timestamp, p.direction, p.length, p.payload_prefix)
                for p in flow.packets]


def test_jsonl_field_order_and_hex():
    flow = FlowRecord(
        "f1", FiveTuple("1.2.3.4", "5.6.7.8", 10, 20, "udp"),
        [PacketView(1.5, -1, 60, b"\xab\xcd")], label=None,
    )
    line = flow_to_json(flow)
    assert line == ('{"id":"f1","five_tuple":{"src":"1.2.3.4","sport":10,'
                    '"dst":"5.6.7.8","dport":20,"proto":"udp"},"label":null,'
                    '"packets":[{"ts":1.5,"dir":-1,"len":60,"payload_hex":"abcd"}]}')


@pytest.mark.parametrize("packets, message", [
    ([], "no packets"),
    ([{"ts": 1.0, "dir": 0, "len": 60, "payload_hex": ""}], "dir"),
    ([{"ts": 1.0, "dir": -1, "len": 60, "payload_hex": ""},
      {"ts": 1.5, "dir": 2, "len": 60, "payload_hex": ""}], "dir"),
    ([{"ts": 1.0, "dir": True, "len": 60, "payload_hex": ""}], "dir"),
    ([{"ts": 1.0, "dir": 1.0, "len": 60, "payload_hex": ""}], "dir"),
    ([{"ts": float("nan"), "dir": 1, "len": 60, "payload_hex": ""}], "ts"),
    ([{"ts": float("inf"), "dir": 1, "len": 60, "payload_hex": ""}], "ts"),
    ([{"ts": "1.0", "dir": 1, "len": 60, "payload_hex": ""}], "ts"),
    ([{"ts": 1.0, "dir": 1, "len": -5, "payload_hex": ""}], "len"),
    ([{"ts": 1.0, "dir": 1, "len": 1.9, "payload_hex": ""}], "len"),
    ([{"ts": 1.0, "dir": 1, "len": 60, "payload_hex": 7}], "malformed"),
    ([{"ts": 1.0, "dir": 1, "len": 2 ** 32, "payload_hex": ""}], "len"),
    ([{"ts": 1.0, "dir": 1, "len": 10 ** 30, "payload_hex": ""}], "len"),
])
def test_jsonl_rejects_empty_flow_and_bad_direction(packets, message):
    line = json.dumps({"id": "f1", "five_tuple": {"src": "1.2.3.4", "sport": 10,
                                                  "dst": "5.6.7.8", "dport": 20,
                                                  "proto": "udp"},
                       "label": None, "packets": packets})
    with pytest.raises(FlowFormatError, match=message):
        flow_from_json(line)


@pytest.mark.parametrize("field, value", [
    ("label", -1), ("label", True), ("label", 1.7), ("label", "1"),
    ("id", 7), ("src", None), ("dst", 5), ("sport", "10"), ("dport", 20.0),
    ("sport", False), ("label", 2 ** 63), ("label", 10 ** 30),
])
def test_jsonl_rejects_wrongly_typed_record_fields(field, value):
    rec = {"id": "f1", "five_tuple": {"src": "1.2.3.4", "sport": 10, "dst": "5.6.7.8",
                                      "dport": 20, "proto": "udp"},
           "label": 1, "packets": [{"ts": 1, "dir": 1, "len": 0, "payload_hex": ""}]}
    flow = flow_from_json(json.dumps(rec))  # the unmodified record is valid
    assert (flow.label, flow.packets[0].timestamp) == (1, 1.0)
    (rec["five_tuple"] if field in rec["five_tuple"] else rec)[field] = value
    with pytest.raises(FlowFormatError, match=f"^{field} must be"):
        flow_from_json(json.dumps(rec))


def test_jsonl_largest_length_and_label_accepted():
    rec = {"id": "f1", "five_tuple": {"src": "1.2.3.4", "sport": 10, "dst": "5.6.7.8",
                                      "dport": 20, "proto": "udp"},
           "label": 2 ** 63 - 1, "packets": [{"ts": 1, "dir": 1, "len": 2 ** 32 - 1,
                                               "payload_hex": ""}]}
    flow = flow_from_json(json.dumps(rec))
    assert (flow.label, flow.packets[0].length) == (2 ** 63 - 1, 2 ** 32 - 1)


# any JSON value: JSON's scalars, nested in arrays and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=16)
VALID_RECORD = {"id": "f1", "five_tuple": {"src": "1.2.3.4", "sport": 10, "dst": "5.6.7.8",
                                           "dport": 20, "proto": "udp"},
                "label": 1, "packets": [{"ts": 1, "dir": 1, "len": 0, "payload_hex": "0a"}]}
# the places in a valid record where a fuzzed value goes; () is the whole record
RECORD_PATHS = ([(), ("packets", 0)] + [(key,) for key in VALID_RECORD]
                + [("five_tuple", key) for key in VALID_RECORD["five_tuple"]]
                + [("packets", 0, key) for key in VALID_RECORD["packets"][0]])


def _record_with(path, value):
    if not path:
        return value
    record = json.loads(json.dumps(VALID_RECORD))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return record


def _nested(opener, depth):
    if opener == "[":
        return "[" * depth + "]" * depth
    return '{"a":' * depth + "0" + "}" * depth


@given(st.one_of(st.builds(_record_with, st.sampled_from(RECORD_PATHS), JSON_VALUES)
                 .map(json.dumps),
                 st.builds(_nested, st.sampled_from("[{"), st.integers(1, 200_000)),
                 st.text(max_size=40)))
@settings(max_examples=200, deadline=None)
def test_flow_from_json_gives_a_record_or_a_format_error(line):
    try:
        flow = flow_from_json(line)
    except FlowFormatError:
        return
    assert isinstance(flow, FlowRecord)


def test_parsed_pcap_round_trips_through_jsonl(tmp_path):
    raw = build_pcap([
        (1.0, "10.0.0.1", 1234, "10.0.0.2", 80, "tcp", b"\x01\x02\x03"),
        (1.25, "10.0.0.2", 80, "10.0.0.1", 1234, "tcp", b"\xff" * 20),
    ])
    result = parse_bytes(tmp_path, raw, m=16)
    for flow in result.flows:
        line = flow_to_json(flow)
        assert flow_to_json(flow_from_json(line)) == line
        for p in flow_from_json(line).packets:
            assert len(p.payload_prefix.hex()) <= 32  # <= 2m characters
