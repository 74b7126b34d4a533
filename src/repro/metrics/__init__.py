"""Latency/nack measurement and the work-unit CPU model."""

from .cpu import CostModel, CpuAccountant
from .recorder import (
    LatencyRecorder,
    NackRecorder,
    Sample,
    Series,
    median,
    percentile,
)

__all__ = [
    "CostModel",
    "CpuAccountant",
    "LatencyRecorder",
    "NackRecorder",
    "Sample",
    "Series",
    "median",
    "percentile",
]

