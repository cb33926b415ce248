"""Build classic pcap bytes in-memory for parser and CLI fixtures."""

import struct


def ipv4(addr: str) -> bytes:
    return bytes(int(p) for p in addr.split("."))


def ethernet_frame(src: str, sport: int, dst: str, dport: int, proto: str,
                   payload: bytes) -> bytes:
    eth = b"\x02" * 6 + b"\x04" * 6 + struct.pack("!H", 0x0800)
    if proto == "tcp":
        transport = struct.pack("!HHIIBBHHH", sport, dport, 1, 0, 5 << 4, 0x18,
                                65535, 0, 0) + payload
        proto_num = 6
    elif proto == "udp":
        transport = struct.pack("!HHHH", sport, dport, 8 + len(payload), 0) + payload
        proto_num = 17
    else:
        raise ValueError(proto)
    total_len = 20 + len(transport)
    ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, total_len, 0, 0, 64, proto_num, 0,
                     ipv4(src), ipv4(dst))
    return eth + ip + transport


def build_pcap(packets, magic_le: bool = True, linktype: int = 1) -> bytes:
    """packets: iterable of (ts, src, sport, dst, dport, proto, payload), or of
    (ts, frame) for a frame given whole."""
    end = "<" if magic_le else ">"
    out = struct.pack(end + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 262144, linktype)
    for ts, *fields in packets:
        frame = fields[0] if len(fields) == 1 else ethernet_frame(*fields)
        sec = int(ts)
        usec = int(round((ts - sec) * 1e6))
        out += struct.pack(end + "IIII", sec, usec, len(frame), len(frame)) + frame
    return out
