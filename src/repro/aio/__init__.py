"""Asyncio runtime: the same broker engine over real-time transports."""

from .chaos import ChaosAction, ChaosReport, chaos, chaos_schedule, run_chaos
from .runtime import AioBroker, AioPublisher, AioSystem
from .transport import LocalTransport, TcpTransport, Transport
from .wire import (
    FrameDecoder,
    FrameError,
    OversizedFrame,
    SerializeCache,
    decode_batch_body,
    decode_wire_message,
    encode_batch_frame,
    encode_wire_message,
)

__all__ = [
    "AioBroker",
    "AioPublisher",
    "AioSystem",
    "ChaosAction",
    "ChaosReport",
    "FrameDecoder",
    "FrameError",
    "LocalTransport",
    "OversizedFrame",
    "SerializeCache",
    "TcpTransport",
    "Transport",
    "chaos",
    "chaos_schedule",
    "decode_batch_body",
    "decode_wire_message",
    "encode_batch_frame",
    "encode_wire_message",
    "run_chaos",
]
