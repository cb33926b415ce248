"""Classic-pcap parsing into bidirectional flows.

Scope: classic pcap (magic 0xa1b2c3d4 / 0xd4c3b2a1, either byte order),
Ethernet link layer, IPv4, TCP/UDP. Everything else is counted and skipped.
Flows are keyed on both ends' address and port bytes, in sorted order, plus the
protocol, and each flow gets one FiveTuple. A silence longer than idle_timeout
between a key's packets starts a new flow. Each flow keeps its first n packets
and the first m transport-payload bytes of each. Packet "length" is the on-wire
frame length, or the captured length when the record was snapped short.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass, field

from ..errors import ConfigError, FormatError
from .records import FiveTuple, FlowRecord, PacketView

_MAGIC_LE = b"\xd4\xc3\xb2\xa1"
_MAGIC_BE = b"\xa1\xb2\xc3\xd4"
_ETHERTYPE_IPV4 = 0x0800
_LINKTYPE_ETHERNET = 1


@dataclass
class ParseResult:
    flows: list[FlowRecord] = field(default_factory=list)
    skipped_frames: int = 0       # non-IPv4 / non-TCP-UDP / fragments / undersized
    truncated_records: int = 0    # pcap records cut short

    @property
    def packets_kept(self) -> int:
        return sum(len(f.packets) for f in self.flows)

    def counters(self) -> dict[str, int]:
        return {
            "flows": len(self.flows),
            "packets": self.packets_kept,
            "skipped_frames": self.skipped_frames,
            "truncated_records": self.truncated_records,
        }


def _decode_frame(data: bytes) -> tuple[bytes, bytes, str, bytes] | None:
    """Ethernet -> IPv4 -> TCP/UDP, as (source end, destination end, protocol,
    transport payload), an end being its 4 address and 2 port bytes; None when
    the frame is out of scope."""
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
    ip_end = min(len(data), ip_off + max(total_len, ihl))
    tr_off = ip_off + ihl
    if proto_num == 6:
        if len(data) < tr_off + 20:
            return None
        hdr = ((data[tr_off + 12] >> 4) & 0x0F) * 4
        if hdr < 20:
            return None
        proto, payload_off = "tcp", tr_off + hdr
    elif proto_num == 17:
        if len(data) < tr_off + 8:
            return None
        proto, payload_off = "udp", tr_off + 8
    else:
        return None
    return (data[ip_off + 12 : ip_off + 16] + data[tr_off : tr_off + 2],
            data[ip_off + 16 : ip_off + 20] + data[tr_off + 2 : tr_off + 4],
            proto, data[min(payload_off, ip_end) : ip_end])


def parse_capture(path, n: int, m: int, idle_timeout: float = 64.0) -> ParseResult:
    """Parse a classic pcap file into bidirectional FlowRecords."""
    if n < 1 or m < 1:
        raise ConfigError(f"packet cap n and byte cap m must be >= 1, got n={n}, m={m}")
    if not idle_timeout > 0:  # NaN fails; inf means flows never split on idle
        raise ConfigError(f"idle_timeout must be positive, got {idle_timeout}")
    result = ParseResult()
    open_flows: dict[tuple, list] = {}  # (sorted ends, proto) -> [record, last_ts, initiator end]
    # record by record: a capture-sized buffer made the heap grow by its size
    # whenever a fragmented heap had no hole that large
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 24:
            raise FormatError("file shorter than the 24-byte pcap global header (byte offset 0)")
        magic = header[:4]
        if magic == _MAGIC_LE:
            end = "<"
        elif magic == _MAGIC_BE:
            end = ">"
        else:
            raise FormatError(f"unknown pcap magic {magic.hex()} (byte offset 0)")
        linktype = struct.unpack_from(end + "I", header, 20)[0]
        if linktype != _LINKTYPE_ETHERNET:
            raise FormatError(f"unsupported link type {linktype} (need Ethernet) (byte offset 20)")

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
            src, dst, proto, payload = decoded
            ts = ts_sec + ts_usec * 1e-6
            wire_len = incl_len if 0 < incl_len < orig_len else orig_len

            flow_key = (src, dst, proto) if src <= dst else (dst, src, proto)
            state = open_flows.get(flow_key)
            if state is None or ts - state[1] > idle_timeout:
                # an idle gap leaves the old record finished in result.flows
                src_addr, sport, dst_addr, dport = struct.unpack("!4sH4sH", src + dst)
                key = FiveTuple(socket.inet_ntoa(src_addr), socket.inet_ntoa(dst_addr),
                                sport, dport, proto)
                state = [FlowRecord(id=f"flow-{len(result.flows) + 1:06d}", key=key), ts, src]
                result.flows.append(state[0])
                open_flows[flow_key] = state
            record = state[0]
            state[1] = ts
            if len(record.packets) < n:
                direction = -1 if src == state[2] else 1
                record.packets.append(PacketView(ts, direction, wire_len, payload[:m]))

    return result
