"""Deprecated: the fault verbs are System's; benchmark v2 (ROADMAP item 1(e)) deletes this."""


class FaultInjector:
    def __init__(self, system):
        self.system = system

    def at(self, when, action):
        self.system.scheduler.call_at(when, action)

    def fail_link(self, a, b):
        self.system.fail_link(a, b)

    def recover_link(self, a, b):
        self.system.recover_link(a, b)
