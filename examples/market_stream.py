#!/usr/bin/env python
"""Continuous best-deal monitoring over live exchange streams.

The stock screener (examples/stock_screener.py) answers one-shot
queries; real trading desks watch a *stream*.  Here each exchange
center feeds its trades into a sliding window — "the last W deals per
venue" — and the standing probabilistic skyline of current best deals
updates continuously through the §5.4 incremental machinery.  The
console narrates every change the market causes, and the final tally
shows the property that makes the design viable: the overwhelming
majority of ticks never touch the wide-area network.

Every tick closes one epoch of the continuous-query engine, so the
standing answer is exact after each arrival.

Run:  python examples/market_stream.py
"""

import random

from repro import UncertainTuple
from repro.core.dominance import Preference
from repro.stream import (
    ContinuousCoordinator,
    CountWindow,
    DeltaKind,
    StandingQuery,
    StreamSite,
)

VENUES = 4
WINDOW = 200        # deals kept per venue
TICKS = 1_200
THRESHOLD = 0.35


def tick_generator(seed):
    """An endless interleaved trade feed: (venue, deal)."""
    rng = random.Random(seed)
    price_level = [19.0 + v * 0.05 for v in range(VENUES)]  # venue spreads
    key = 0
    while True:
        venue = rng.randrange(VENUES)
        price_level[venue] *= 1.0 + rng.gauss(0.0, 0.002)
        price = round(price_level[venue] * (1.0 + rng.gauss(0, 0.004)), 2)
        volume = float(rng.choice([1, 2, 5, 10, 25, 60, 150]) * 100)
        confidence = round(min(1.0, max(0.05, rng.betavariate(6, 2))), 3)
        yield venue, UncertainTuple(key, (price, volume), confidence)
        key += 1


def main() -> None:
    preference = Preference.of("min,max")  # cheap and big
    hub = ContinuousCoordinator(
        [StreamSite(v, CountWindow(WINDOW)) for v in range(VENUES)]
    )
    query_id = hub.register(
        StandingQuery(threshold=THRESHOLD, preference=preference)
    )
    feed = tick_generator(seed=404)

    print(f"{VENUES} venues, window {WINDOW} deals/venue, q = {THRESHOLD}")
    print("streaming", TICKS, "ticks...\n")

    changes = 0
    quiet = 0
    for i in range(TICKS):
        venue, deal = next(feed)
        before = hub.stats.tuples_transmitted
        hub.ingest(venue, deal)
        deltas = hub.close_epoch()
        shipped = hub.stats.tuples_transmitted - before
        quiet += shipped == 0
        added = [d.key for d in deltas if d.kind is DeltaKind.ENTER]
        removed = [d.key for d in deltas if d.kind is DeltaKind.EXIT]
        if not (added or removed):
            continue
        if changes < 12:
            price, volume = deal.values
            note = []
            if added:
                note.append(f"+{len(added)}")
            if removed:
                note.append(f"-{len(removed)}")
            print(
                f"tick {i:>5}: venue {venue} ${price:<6.2f} x {int(volume):>6,} "
                f"-> skyline {' '.join(note)} "
                f"(now {len(hub.result(query_id))}, {shipped} tuples)"
            )
        changes += 1

    print(f"\nafter {TICKS} ticks:")
    print(f"  answer changes        : {changes}")
    print(f"  zero-traffic ticks    : {quiet} ({100 * quiet / TICKS:.0f}%)")
    print(f"  maintenance bandwidth : {hub.stats.tuples_transmitted} tuples total")
    print("\ncurrent best deals:")
    for member in list(hub.result(query_id))[:6]:
        price, volume = member.tuple.values
        print(
            f"  ${price:>6.2f} x {int(volume):>6,}   "
            f"P_g-sky={member.probability:.3f}"
        )


if __name__ == "__main__":
    main()
