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
import math
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


def _is_int(value) -> bool:
    return type(value) is int  # JSON true/false load as bools: not ints here


# field -> (test, what the test demands); JSON may give any type anywhere
_FIELD_TYPES = {
    "id": (lambda v: type(v) is str, "a string"),
    "src": (lambda v: type(v) is str, "a string"),
    "dst": (lambda v: type(v) is str, "a string"),
    "sport": (_is_int, "an int"),
    "dport": (_is_int, "an int"),
    "label": (lambda v: v is None or _is_int(v) and 0 <= v < 2**63,
              "null or an int >= 0 and < 2**63"),  # stored as int64
    "ts": (lambda v: type(v) in (int, float) and math.isfinite(v), "a finite number"),
    "dir": (lambda v: _is_int(v) and v in (-1, 1), "-1 or 1"),
    "len": (lambda v: _is_int(v) and 0 <= v < 2**32, "an int >= 0 and < 2**32"),  # 32-bit in pcap
}


def _field(obj: dict, key: str):
    value = obj[key]
    test, demand = _FIELD_TYPES[key]
    if not test(value):
        raise FlowFormatError(f"{key} must be {demand}, got {value!r}")
    return value


def flow_from_json(line: str) -> FlowRecord:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also too deep, or too long an integer
        raise FlowFormatError(f"invalid JSON: {exc}") from exc
    try:
        ft = obj["five_tuple"]
        proto = ft["proto"]
        if proto not in PROTOCOLS:
            raise FlowFormatError(f"unknown protocol {proto!r}")
        key = FiveTuple(_field(ft, "src"), _field(ft, "dst"), _field(ft, "sport"),
                        _field(ft, "dport"), proto)
        packets = [
            PacketView(float(_field(p, "ts")), _field(p, "dir"), _field(p, "len"),
                       bytes.fromhex(p["payload_hex"]))
            for p in obj["packets"]
        ]
        if not packets:
            raise FlowFormatError("flow has no packets")
        return FlowRecord(_field(obj, "id"), key, packets, _field(obj, "label"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
