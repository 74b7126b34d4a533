"""Deterministic discrete-event simulation substrate."""

from .network import Node, SimLink, SimNetwork
from .process import SimProcess
from .scheduler import Scheduler, TimerHandle

