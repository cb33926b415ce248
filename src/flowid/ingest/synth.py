"""Labeled synthetic flow generation for desk-scale runs and tests."""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..errors import ConfigError, check_memory
from ..rng import Rng
from .records import FiveTuple, FlowRecord, PacketView

_START_SPAN = 600.0  # seconds over which flows' first packets are drawn


@dataclass
class SyntheticClassSpec:
    """One traffic class: packet count / length / payload-byte distributions
    (uniform integer ranges, inclusive) and a cyclic direction pattern."""

    count: int
    packets: tuple[int, int] = (4, 12)
    length: tuple[int, int] = (60, 1500)
    payload_byte: tuple[int, int] = (0, 255)
    payload_len: tuple[int, int] = (0, 16)
    direction_pattern: tuple[int, ...] = (-1, 1)
    protocol: str = "tcp"


def generate_synthetic_flows(classes: list[SyntheticClassSpec],
                             seed: int | Rng) -> list[FlowRecord]:
    """Deterministic labeled flows; class c gets label c. Flows beyond physical
    memory, each counted at its class's least, are a MemoryError before any draw."""
    if len(classes) < 2:
        raise ConfigError(f"need at least 2 classes, got {len(classes)}")
    for c, spec in enumerate(classes):
        if spec.count < 1:
            raise ConfigError(f"class {c}: count must be >= 1, got {spec.count}")
        if not spec.direction_pattern or any(d not in (-1, 1) for d in spec.direction_pattern):
            raise ConfigError(f"class {c}: direction pattern must be drawn from -1/+1")
    check_memory(sum(s.count * _least_flow_bytes(s) for s in classes),
                 f"{sum(s.count for s in classes)} synthetic flows")
    root = seed if isinstance(seed, Rng) else Rng(seed)

    flows: list[FlowRecord] = []
    for label, spec in enumerate(classes):
        for i in range(spec.count):
            rng = root.child("synth", label, i)
            n_pkts = int(rng.integers(*spec.packets))
            start = float(rng.uniform(0.0, _START_SPAN))
            key = FiveTuple(
                src_addr=f"10.{label}.{(i // 250) % 250}.{i % 250 + 1}",
                dst_addr=f"10.200.0.{label + 1}",
                src_port=int(1024 + (i % 60000)),
                dst_port=443,
                protocol=spec.protocol,
            )
            packets = []
            ts = start
            for p in range(n_pkts):
                direction = spec.direction_pattern[p % len(spec.direction_pattern)]
                length = int(rng.integers(*spec.length))
                plen = int(rng.integers(*spec.payload_len))
                payload = bytes(rng.integers(*spec.payload_byte, plen).astype("uint8")) \
                    if plen else b""
                packets.append(PacketView(ts, direction, length, payload))
                ts += float(rng.uniform(0.001, 0.2))
            flows.append(FlowRecord(f"syn-{label}-{i:05d}", key, packets, label))
    return flows


def _least_flow_bytes(spec: SyntheticClassSpec) -> int:
    """What a flow of `spec` holds at its fewest packets and shortest payloads,
    by sys.getsizeof: record, five-tuple, strings, packet list, and per packet
    a PacketView with its timestamp and payload."""
    packet = PacketView(0.5, 1, 0, bytes(spec.payload_len[0]))
    flow = FlowRecord("syn-0-00000", FiveTuple("10.0.0.1", "10.200.0.1", 1024, 443,
                                               spec.protocol), [packet] * spec.packets[0])
    held = (flow, flow.id, flow.key, flow.key.src_addr, flow.key.dst_addr, flow.packets)
    return sum(map(sys.getsizeof, held)) + spec.packets[0] * sum(
        map(sys.getsizeof, (packet, packet.timestamp, packet.payload_prefix)))


def two_class_spec(per_class: int) -> list[SyntheticClassSpec]:
    """Two well-separated classes (lengths, payload bytes, and shape all differ)."""
    return [
        SyntheticClassSpec(count=per_class, packets=(6, 14), length=(60, 180),
                           payload_byte=(10, 70), payload_len=(4, 12),
                           direction_pattern=(-1, 1)),
        SyntheticClassSpec(count=per_class, packets=(8, 18), length=(900, 1500),
                           payload_byte=(170, 250), payload_len=(8, 16),
                           direction_pattern=(-1, -1, 1)),
    ]


def three_class_spec(per_class: int) -> list[SyntheticClassSpec]:
    """Three classes with moderate separation (used by ablation-style runs)."""
    return [
        SyntheticClassSpec(count=per_class, packets=(5, 12), length=(60, 220),
                           payload_byte=(10, 90), payload_len=(2, 10),
                           direction_pattern=(-1, 1)),
        SyntheticClassSpec(count=per_class, packets=(6, 14), length=(250, 700),
                           payload_byte=(80, 170), payload_len=(4, 12),
                           direction_pattern=(-1, -1, 1)),
        SyntheticClassSpec(count=per_class, packets=(7, 16), length=(800, 1500),
                           payload_byte=(160, 250), payload_len=(6, 16),
                           direction_pattern=(-1, 1, 1, -1)),
    ]


def default_spec(n_classes: int, per_class: int) -> list[SyntheticClassSpec]:
    if n_classes == 2:
        return two_class_spec(per_class)
    if n_classes == 3:
        return three_class_spec(per_class)
    raise ConfigError(f"no built-in preset for {n_classes} classes (2 or 3 supported)")


def split_flows(flows: list[FlowRecord], fractions: tuple[float, float, float],
                seed: int | Rng) -> tuple[list[FlowRecord], list[FlowRecord], list[FlowRecord]]:
    """Deterministic stratified train/val/test split by label."""
    # written so that NaN fails: every comparison with NaN is false
    if not (all(f > 0 for f in fractions) and abs(sum(fractions) - 1.0) <= 1e-9):
        raise ConfigError(f"split fractions must be positive and sum to 1, got {fractions}")
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    by_label: dict[int | None, list[FlowRecord]] = {}
    for flow in flows:
        by_label.setdefault(flow.label, []).append(flow)
    train: list[FlowRecord] = []
    val: list[FlowRecord] = []
    test: list[FlowRecord] = []
    for label in sorted(by_label, key=lambda x: (x is None, x)):
        group = by_label[label]
        perm = rng.child("split", -1 if label is None else label).permutation(len(group))
        n_train = int(round(fractions[0] * len(group)))
        n_val = int(round(fractions[1] * len(group)))
        for rank, idx in enumerate(perm):
            if rank < n_train:
                train.append(group[idx])
            elif rank < n_train + n_val:
                val.append(group[idx])
            else:
                test.append(group[idx])
    return train, val, test
