"""Asyncio runtime: the same broker engine over real-time transports."""

from .chaos import chaos, run_chaos
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
    "FrameDecoder",
    "FrameError",
    "LocalTransport",
    "OversizedFrame",
    "SerializeCache",
    "TcpTransport",
    "Transport",
    "chaos",
    "decode_batch_body",
    "decode_wire_message",
    "encode_batch_frame",
    "encode_wire_message",
    "run_chaos",
]
