"""Classic-pcap parsing into bidirectional flows.

Scope: classic pcap (magic 0xa1b2c3d4 / 0xd4c3b2a1, either byte order),
Ethernet link layer, IPv4, TCP/UDP. Everything else is counted and skipped.
Flows are keyed by the bidirectional 5-tuple; a silence longer than
idle_timeout between consecutive packets of a key starts a new flow. Each
flow keeps its first n packets and the first m transport-payload bytes per
packet. Packet "length" is the on-wire frame length, or the captured length
when the record was snapped short.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..errors import ConfigError, PcapFormatError
from .records import FiveTuple, FlowRecord, PacketView

_MAGIC_LE = b"\xd4\xc3\xb2\xa1"
_MAGIC_BE = b"\xa1\xb2\xc3\xd4"
_ETHERTYPE_IPV4 = 0x0800
_LINKTYPE_ETHERNET = 1


@dataclass
class ParseResult:
    flows: list[FlowRecord] = field(default_factory=list)
    packets_kept: int = 0
    skipped_frames: int = 0       # non-IPv4 / non-TCP-UDP / fragments / undersized
    truncated_records: int = 0    # pcap records cut short

    def counters(self) -> dict[str, int]:
        return {
            "flows": len(self.flows),
            "packets": self.packets_kept,
            "skipped_frames": self.skipped_frames,
            "truncated_records": self.truncated_records,
        }


@dataclass
class _Decoded:
    src: str
    dst: str
    sport: int
    dport: int
    proto: str
    payload: bytes


def _decode_frame(data: bytes) -> _Decoded | None:
    """Ethernet -> IPv4 -> TCP/UDP; None when the frame is out of scope."""
    if len(data) < 34:  # eth(14) + minimal ipv4(20)
        return None
    if struct.unpack_from("!H", data, 12)[0] != _ETHERTYPE_IPV4:
        return None
    ip_off = 14
    vihl = data[ip_off]
    if vihl >> 4 != 4:
        return None
    ihl = (vihl & 0x0F) * 4
    if ihl < 20 or len(data) < ip_off + ihl:
        return None
    total_len = struct.unpack_from("!H", data, ip_off + 2)[0]
    frag = struct.unpack_from("!H", data, ip_off + 6)[0]
    if frag & 0x1FFF:  # non-first fragment: no transport header to read
        return None
    proto_num = data[ip_off + 9]
    src = ".".join(str(b) for b in data[ip_off + 12 : ip_off + 16])
    dst = ".".join(str(b) for b in data[ip_off + 16 : ip_off + 20])
    ip_end = min(len(data), ip_off + max(total_len, ihl))
    tr_off = ip_off + ihl
    if proto_num == 6:
        if len(data) < tr_off + 20:
            return None
        sport, dport = struct.unpack_from("!HH", data, tr_off)
        hdr = ((data[tr_off + 12] >> 4) & 0x0F) * 4
        if hdr < 20:
            return None
        payload = data[min(tr_off + hdr, ip_end) : ip_end]
        return _Decoded(src, dst, sport, dport, "tcp", payload)
    if proto_num == 17:
        if len(data) < tr_off + 8:
            return None
        sport, dport = struct.unpack_from("!HH", data, tr_off)
        payload = data[min(tr_off + 8, ip_end) : ip_end]
        return _Decoded(src, dst, sport, dport, "udp", payload)
    return None


class _OpenFlow:
    __slots__ = ("record", "last_ts", "seen")

    def __init__(self, record: FlowRecord, ts: float):
        self.record = record
        self.last_ts = ts
        self.seen = 0


def parse_capture(path, n: int, m: int, idle_timeout: float = 64.0) -> ParseResult:
    """Parse a classic pcap file into bidirectional FlowRecords."""
    if n < 1 or m < 1:
        raise ConfigError(f"packet cap n and byte cap m must be >= 1, got n={n}, m={m}")
    if not idle_timeout > 0:  # NaN fails; inf means flows never split on idle
        raise ConfigError(f"idle_timeout must be positive, got {idle_timeout}")
    result = ParseResult()
    open_flows: dict[tuple, _OpenFlow] = {}
    # record by record: a capture-sized buffer made the heap grow by its size
    # whenever a fragmented heap had no hole that large
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 24:
            raise PcapFormatError("file shorter than the 24-byte pcap global header", 0)
        magic = header[:4]
        if magic == _MAGIC_LE:
            end = "<"
        elif magic == _MAGIC_BE:
            end = ">"
        else:
            raise PcapFormatError(f"unknown pcap magic {magic.hex()}", 0)
        linktype = struct.unpack_from(end + "I", header, 20)[0]
        if linktype != _LINKTYPE_ETHERNET:
            raise PcapFormatError(f"unsupported link type {linktype} (need Ethernet)", 20)

        rec_hdr = struct.Struct(end + "IIII")
        while record_header := fh.read(16):
            if len(record_header) < 16:
                result.truncated_records += 1
                break
            ts_sec, ts_usec, incl_len, orig_len = rec_hdr.unpack(record_header)
            frame = fh.read(incl_len)
            if len(frame) < incl_len:
                result.truncated_records += 1
                break
            decoded = _decode_frame(frame)
            if decoded is None:
                result.skipped_frames += 1
                continue
            ts = ts_sec + ts_usec * 1e-6
            wire_len = incl_len if 0 < incl_len < orig_len else orig_len

            key = FiveTuple(decoded.src, decoded.dst, decoded.sport, decoded.dport,
                            decoded.proto)
            ckey = key.canonical()
            state = open_flows.get(ckey)
            if state is not None and ts - state.last_ts > idle_timeout:
                state = None  # idle gap: the old record stays finished in result.flows
            if state is None:
                record = FlowRecord(id=f"flow-{len(result.flows) + 1:06d}", key=key)
                result.flows.append(record)
                state = _OpenFlow(record, ts)
                open_flows[ckey] = state
            direction = -1 if (decoded.src, decoded.sport) == (
                state.record.key.src_addr, state.record.key.src_port) else 1
            state.last_ts = ts
            state.seen += 1
            if state.seen <= n:
                state.record.packets.append(
                    PacketView(ts, direction, int(wire_len), decoded.payload[:m])
                )
            result.packets_kept += 1

    return result
