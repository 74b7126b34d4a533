"""The knowledge/curiosity model and endpoint protocol logic."""

from .config import INFINITY, PAPER_FAULT_PARAMS, LivenessParams
from .edges import FilterEdge, MergeView, MATCH_ALL
from .intervals import IntervalMap
from .lattice import C, K, KnowledgeConflictError, k_lub
from .messages import (
    AckExpectedMessage,
    AckMessage,
    DataTick,
    KnowledgeMessage,
    NackMessage,
    decode_message,
    encode_message,
)
from .pubend import Pubend
from .rto import RtoEstimator
from .streams import CuriosityStream, KnowledgeStream, Stream
from .subend import Delivery, SubendManager, SubendServices, Subscription
from .ticks import TICKS_PER_SECOND, Tick, TickRange, merge_ranges, subtract_ranges
