"""Capture parsing, flow records, and synthetic data.

`flowid.extractors.build_view_batch` turns flow records into the three view
arrays; the interaction view is the path over each flow's packets, with node
features (signed length / 1500, direction)."""

from .pcap import ParseResult, parse_capture
from .records import (
    FiveTuple,
    FlowRecord,
    PacketView,
    flow_from_json,
    flow_to_json,
    read_flows_jsonl,
    write_flows_jsonl,
)
from .synth import (
    SyntheticClassSpec,
    default_spec,
    generate_synthetic_flows,
    split_flows,
    three_class_spec,
    two_class_spec,
)
