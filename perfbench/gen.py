"""Seeded benchmark inputs: labeled synthetic flows, JSONL files and a classic pcap.

Flows come from the program's synthetic presets; everything else here (frame
layout, window placement, the pcap writer and its round-trip check) is the
benchmark's own, so a change to the program's parser cannot change what the
benchmark feeds it.
"""

from __future__ import annotations

import struct

from flowid.ingest import FlowRecord, PacketView, generate_synthetic_flows, split_flows, \
    three_class_spec, two_class_spec
from flowid.rng import Rng

PCAP_N = 40  # packet cap the parser applies (reference n)
PCAP_M = 16  # payload-byte cap the parser applies (reference m)
_ETH = b"\x02" * 6 + b"\x04" * 6 + struct.pack("!H", 0x0800)
_HEADER_BYTES = {"tcp": 14 + 20 + 20, "udp": 14 + 20 + 8}


class RoundTripError(RuntimeError):
    """The parser did not return the flows the pcap writer encoded."""


def train_ref_splits(seed: int):
    """500 flows of the 2-class preset, split 60/20/20 by label."""
    flows = generate_synthetic_flows(two_class_spec(250), seed=Rng(seed).child("train_ref"))
    return split_flows(flows, (0.6, 0.2, 0.2), seed=Rng(seed).child("split"))


def checkpoint_splits(seed: int, per_class: int):
    """Small 3-class training set for the checkpoint detect_windows loads.
    Drawn from its own substream, so it never repeats the scored flows."""
    flows = generate_synthetic_flows(three_class_spec(per_class), seed=Rng(seed).child("ckpt"))
    train, val, _ = split_flows(flows, (0.6, 0.2, 0.2), seed=Rng(seed).child("ckpt-split"))
    return train, val


def detect_flows(seed: int, per_class: int, windows: int, width: float) -> list[FlowRecord]:
    """3-class flows whose first packets are spread evenly over `windows`
    tumbling windows of `width` seconds, each flow well inside its window."""
    flows = generate_synthetic_flows(three_class_spec(per_class), seed=Rng(seed).child("detect"))
    rng = Rng(seed).child("placement")
    order = rng.permutation(len(flows))
    offsets = rng.uniform(0.05 * width, 0.9 * width, len(flows))
    placed = []
    for slot, idx in enumerate(order):
        flow = flows[idx]
        shift = (slot % windows) * width + offsets[slot] - flow.first_timestamp()
        packets = [PacketView(round(p.timestamp + shift, 6), p.direction, p.length,
                              p.payload_prefix) for p in flow.packets]
        placed.append(FlowRecord(flow.id, flow.key, packets, flow.label))
    return _fit_lengths(placed)


def _fit_lengths(flows: list[FlowRecord]) -> list[FlowRecord]:
    """Raise each packet length to at least its headers plus payload, so that
    every frame can be written at exactly its stated length."""
    for flow in flows:
        floor = _HEADER_BYTES[flow.key.protocol]
        for pkt in flow.packets:
            pkt.length = max(pkt.length, floor + len(pkt.payload_prefix))
    return flows


def _frame(src: str, sport: int, dst: str, dport: int, proto: str, payload: bytes,
           length: int) -> bytes:
    if proto == "tcp":
        transport = struct.pack("!HHIIBBHHH", sport, dport, 1, 0, 5 << 4, 0x18,
                                65535, 0, 0) + payload
        proto_num = 6
    else:
        transport = struct.pack("!HHHH", sport, dport, 8 + len(payload), 0) + payload
        proto_num = 17
    ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, 20 + len(transport), 0, 0, 64, proto_num, 0,
                     bytes(int(p) for p in src.split(".")),
                     bytes(int(p) for p in dst.split(".")))
    frame = _ETH + ip + transport
    if len(frame) > length:
        raise ValueError(f"packet length {length} below its {len(frame)} header+payload bytes")
    return frame + b"\x00" * (length - len(frame))  # Ethernet trailer padding


def write_pcap(flows: list[FlowRecord], path) -> list[FlowRecord]:
    """Write every packet, in timestamp order, as one Ethernet/IPv4 frame padded
    to the packet's length. Returns the flows in order of first appearance,
    which is the order the parser numbers them in."""
    events = sorted((p.timestamp, f, i) for f, flow in enumerate(flows)
                    for i, p in enumerate(flow.packets))
    seen: dict[int, None] = {}
    chunks = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 262144, 1)]
    for ts, f, i in events:
        flow, pkt = flows[f], flows[f].packets[i]
        seen.setdefault(f)
        key = flow.key
        if pkt.direction == -1:  # sent by the flow's initiator
            ends = (key.src_addr, key.src_port, key.dst_addr, key.dst_port)
        else:
            ends = (key.dst_addr, key.dst_port, key.src_addr, key.src_port)
        frame = _frame(*ends, key.protocol, pkt.payload_prefix, pkt.length)
        usec_total = int(round(ts * 1e6))
        chunks.append(struct.pack("<IIII", usec_total // 1_000_000, usec_total % 1_000_000,
                                  len(frame), len(frame)))
        chunks.append(frame)
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))
    return [flows[f] for f in seen]


def _signature(flow: FlowRecord, n: int, m: int):
    key = flow.key
    return ((key.src_addr, key.src_port, key.dst_addr, key.dst_port, key.protocol),
            [p.direction * p.length for p in flow.packets[:n]],
            [p.payload_prefix[:m] for p in flow.packets[:n]])


def check_round_trip(written: list[FlowRecord], parsed: list[FlowRecord],
                     n: int = PCAP_N, m: int = PCAP_M) -> None:
    """Raise RoundTripError unless the parser returned, flow for flow, the same
    5-tuples, signed length sequences and payload prefixes that were written."""
    if len(parsed) != len(written):
        raise RoundTripError(f"wrote {len(written)} flows, parser returned {len(parsed)}")
    for i, (want, got) in enumerate(zip(written, parsed)):
        if _signature(want, n, m) != _signature(got, n, m):
            raise RoundTripError(f"flow {i} ({want.id} -> {got.id}) differs after the pcap "
                                 f"round trip")

