"""Physical brokers: GD protocol engine, soft state, cells, link bundles."""

from .engine import BrokerServices, GDBrokerEngine, stable_hash
from .host import BrokerHost, PubendHosting, SubscriberHooks
from .simbroker import SimBroker
from .state import (
    BrokerTopologyInfo,
    Envelope,
    IStream,
    LinkStatusMessage,
    OStream,
    PubendRoute,
)
