"""Sports scoreboard: message interdependency and total order.

The paper's second motivation (section 1): "the messages may be used by
the subscribing application to accumulate a view (e.g., a snapshot of a
sporting event), where missing or reordered messages could cause an
incorrect state to be displayed."

Two score feeds (one pubend per stadium) publish incremental events
("team A scores 2").  Display clients subscribe in *total order* over
both feeds, so every display folds the same deterministic event sequence
— even displays connected to different brokers, even across a lossy
network and a link failure.  At the end, all scoreboard views are
identical and match the ground truth.

Run:  python examples/sports_scoreboard.py
"""

from typing import Dict

from repro import LivenessParams
from repro.check import FaultSpec
from repro.check.runner import schedule_steps
from repro.topology import balanced_pubend_names, figure3_topology


class Scoreboard:
    """A view accumulated from incremental score events."""

    def __init__(self) -> None:
        self.scores: Dict[str, int] = {}
        self.events = 0

    def apply(self, event) -> None:
        team = event["team"]
        self.scores[team] = self.scores.get(team, 0) + event["points"]
        self.events += 1

    def snapshot(self) -> str:
        return ", ".join(f"{t}={p}" for t, p in sorted(self.scores.items()))


def main() -> None:
    feeds = balanced_pubend_names(2)  # two stadiums
    system = figure3_topology(n_pubends=2, pubend_names=feeds).build(
        seed=99, params=LivenessParams(gct=0.15, nrt_min=0.4)
    )
    # A lossy wide-area network…
    for link in system.network._links.values():
        link.drop_probability = 0.03
    # …and a failing link mid-game.
    fault = FaultSpec("stall_link_fail", ("b1", "s1"), at=4.0, duration=5.0, stall=1.5)
    schedule_steps(system.scheduler, system, fault.steps())

    # Displays at three different SHBs, all in TOTAL order over both feeds.
    displays = {
        "arena_jumbotron": system.subscribe(
            "arena_jumbotron", "s1", tuple(feeds), total_order=True
        ),
        "sports_bar": system.subscribe(
            "sports_bar", "s3", tuple(feeds), total_order=True
        ),
        "mobile_app": system.subscribe(
            "mobile_app", "s5", tuple(feeds), total_order=True
        ),
    }

    teams = [("Lions", "Bears"), ("Hawks", "Wolves")]
    publishers = []
    for k, feed in enumerate(feeds):
        home, away = teams[k]
        publishers.append(
            system.publisher(
                feed,
                rate=20.0,
                make_attributes=lambda i, home=home, away=away: {
                    "team": home if (i * 2654435761) % 3 else away,
                    "points": 1 + (i * 40503) % 3,
                },
            )
        )
    for publisher in publishers:
        publisher.start(at=0.2)
    system.run_until(15.0)
    for publisher in publishers:
        publisher.stop()
    system.run_until(35.0)

    # Fold each display's delivered sequence into a scoreboard view.
    boards = {}
    for name, client in displays.items():
        board = Scoreboard()
        for __, ___, event, ____ in client.received:
            board.apply(event)
        boards[name] = board

    # Ground truth: fold all published events in tick order.
    truth = Scoreboard()
    ground = sorted(
        (tick, event)
        for publisher in publishers
        for (__, tick, event) in publisher.published
    )
    for __, event in ground:
        truth.apply(event)

    print(f"ground truth after {truth.events} events: {truth.snapshot()}")
    for name, board in boards.items():
        match = "OK" if board.snapshot() == truth.snapshot() else "MISMATCH"
        print(f"  {name:>16}: {board.snapshot()}  [{match}, {board.events} events]")
        assert board.snapshot() == truth.snapshot()
        assert board.events == truth.events

    # Total order: all displays saw the exact same sequence.
    sequences = [
        [(p, t) for (p, t, __, ___) in client.received]
        for client in displays.values()
    ]
    assert sequences[0] == sequences[1] == sequences[2]
    print("\nall displays applied the identical event sequence (total order)")
    dropped = sum(l.stats.dropped_random + l.stats.dropped_stalled + l.stats.dropped_down
                  for l in system.network._links.values())
    print(f"({dropped} messages were lost on the wire and recovered by the protocol)")


if __name__ == "__main__":
    main()
