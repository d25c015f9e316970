"""Job lists: a fixed finite input space per workload, drawn by seed.

A workload is a list of kinds; each kind has a pool of candidate jobs
and a quota.  `draw` takes `quota` jobs from every pool without
replacement, in seeded order, and spreads each kind evenly over the pass,
so the same seed always gives the same jobs in the same order.  Kinds
whose jobs cost very different amounts use quota == len(pool), which
keeps the work of a pass the same across seeds.  The even spread keeps
how much of each kind has run by any point of the pass, and so which
shared memos are already warm, the same for every seed: the seed orders
the jobs within a kind, not the kinds against each other.
"""

import random


class Job:
    """One user-level query: `run()` returns a comparable summary and
    `check(summary)` returns None or a message saying what is wrong.
    Outputs of later passes must equal the first pass's, unless `varies`
    is set; then every pass's output is checked on its own."""

    __slots__ = ("jid", "kind", "label", "run", "check", "varies")

    def __init__(self, kind, label, run, check, varies=False):
        self.jid = -1
        self.kind, self.label, self.run, self.check = kind, label, run, check
        self.varies = varies


class Kind:
    def __init__(self, name, quota, pool):
        self.name, self.quota, self.pool = name, quota, pool
        if not 0 < quota <= len(pool):
            raise ValueError(f"kind {name}: quota {quota} of {len(pool)}")


def draw(kinds, seed, smoke=False):
    """The seeded job list.  Smoke mode takes the first (cheapest) job of
    every kind so that each layer is still reached."""
    rng = random.Random(seed)
    slots = []
    for k, kind in enumerate(kinds):
        picked = kind.pool[:1] if smoke else rng.sample(kind.pool, kind.quota)
        slots += [((i + 0.5) / len(picked), k, job)
                  for i, job in enumerate(picked)]
    slots.sort(key=lambda slot: slot[:2])
    jobs = [job for _, _, job in slots]
    for jid, job in enumerate(jobs):
        job.jid = jid
    return jobs


def expect_equal(got, want, what):
    if got != want:
        return f"{what}: got {got!r}, want {want!r}"
    return None


def first_error(*messages):
    for msg in messages:
        if msg:
            return msg
    return None
