"""Flow records and their canonical JSONL serialization.

One JSONL line per flow:
  {"id":str,"five_tuple":{"src":str,"sport":int,"dst":str,"dport":int,
   "proto":"tcp"|"udp"},"label":int|null,
   "packets":[{"ts":float,"dir":-1|1,"len":int,"payload_hex":str}]}
Field order is fixed and payload_hex is lowercase, so serialization is
byte-stable and load(dump(flow)) is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..errors import FlowFormatError

PROTOCOLS = ("tcp", "udp")


@dataclass(frozen=True, eq=False)
class FiveTuple:
    """Bidirectional flow key; src is the initiator (first packet's source)."""

    src_addr: str
    dst_addr: str
    src_port: int
    dst_port: int
    protocol: str  # "tcp" | "udp"

    def canonical(self) -> tuple:
        a = (self.src_addr, self.src_port)
        b = (self.dst_addr, self.dst_port)
        lo, hi = (a, b) if a <= b else (b, a)
        return (lo, hi, self.protocol)

    def reversed(self) -> "FiveTuple":
        return FiveTuple(self.dst_addr, self.src_addr, self.dst_port, self.src_port,
                         self.protocol)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiveTuple) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())


@dataclass
class PacketView:
    """One packet as the pipeline sees it.

    direction is -1 for client->server (the flow initiator sent it), +1 otherwise;
    payload_prefix holds at most the first m transport-payload bytes.
    """

    timestamp: float
    direction: int
    length: int
    payload_prefix: bytes = b""


@dataclass
class FlowRecord:
    id: str
    key: FiveTuple
    packets: list[PacketView] = field(default_factory=list)
    label: Optional[int] = None

    def first_timestamp(self) -> float:
        return self.packets[0].timestamp


def flow_to_json(flow: FlowRecord) -> str:
    obj = {
        "id": flow.id,
        "five_tuple": {
            "src": flow.key.src_addr,
            "sport": flow.key.src_port,
            "dst": flow.key.dst_addr,
            "dport": flow.key.dst_port,
            "proto": flow.key.protocol,
        },
        "label": flow.label,
        "packets": [
            {"ts": p.timestamp, "dir": p.direction, "len": p.length,
             "payload_hex": p.payload_prefix.hex()}
            for p in flow.packets
        ],
    }
    return json.dumps(obj, separators=(",", ":"))


def flow_from_json(line: str) -> FlowRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FlowFormatError(f"invalid JSON: {exc}") from exc
    try:
        ft = obj["five_tuple"]
        proto = ft["proto"]
        if proto not in PROTOCOLS:
            raise FlowFormatError(f"unknown protocol {proto!r}")
        key = FiveTuple(ft["src"], ft["dst"], int(ft["sport"]), int(ft["dport"]), proto)
        packets = [
            PacketView(float(p["ts"]), int(p["dir"]), int(p["len"]),
                       bytes.fromhex(p["payload_hex"]))
            for p in obj["packets"]
        ]
        if not packets:
            raise FlowFormatError("flow has no packets")
        if any(p.direction not in (-1, 1) for p in packets):
            raise FlowFormatError("packet dir must be -1 or 1")
        label = obj["label"]
        return FlowRecord(obj["id"], key, packets, None if label is None else int(label))
    except (KeyError, TypeError, ValueError) as exc:
        raise FlowFormatError(f"malformed flow record: {exc}") from exc


def write_flows_jsonl(flows: Iterable[FlowRecord], path) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for flow in flows:
            fh.write(flow_to_json(flow))
            fh.write("\n")
            count += 1
    return count


def read_flows_jsonl(path) -> list[FlowRecord]:
    flows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                flows.append(flow_from_json(line))
            except FlowFormatError as exc:
                raise FlowFormatError(f"{path}:{lineno}: {exc}") from exc
    return flows
