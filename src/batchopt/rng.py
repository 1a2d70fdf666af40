"""Counter-based random streams for reproducible simulation.

Every draw is a pure function of (seed, stream label, key), so adding or
removing consumers of one stream never shifts the draws of another.  Under
one seed, arrival times and every duration and branching draw are the same
whatever the policy set, because they are keyed by case/activity/visit,
not by global consumption order.  So simulations of one model under one
seed and case count can share them.  Every simulation draws through an
`engine.SamplePath`, the engine's one draw path: it holds the run's
arrival events and what each keyed draw decided, stored under its
(case, node, visit) key, and replays them to every later simulation
given the same path; a lone simulation runs on a fresh path of its own.
A search run builds one and simulates every candidate under one seed
derived from the optimizer seed (`optimize.CandidateEvaluator`), so its
candidates are compared under common random numbers;
`metrics.CycleTimes` builds one and replays it to every policy set it
prices: in `batchopt evaluate`, the initial set and every front
solution.

A draw's digest is a keyed blake2b of one message: ``repr(part) + "\x1f"``
for each key part, joined and UTF-8 encoded.  blake2b is a streaming
hash, so a hot loop keeps one `hasher` per seed and draws with
`keyed_unit`, which copies it and feeds the message in one update: the
same digest as `unit`, without re-keying per draw.  `visit_unit` formats
the message of the engine's per-visit draws from parts encoded once, so
the message format lives in this module only.  A hasher lives as long as
the sample path or stream that owns it; nothing is cached per module.
"""

from __future__ import annotations

import math
from hashlib import blake2b

_U64 = 2**64


def hasher(seed: int):
    """The keyed blake2b every draw under `seed` starts from."""
    return blake2b(digest_size=8, key=(seed % _U64).to_bytes(8, "little"))


def message(*key) -> bytes:
    """The bytes hashed for a draw keyed by `key`."""
    return "".join(repr(part) + "\x1f" for part in key).encode()


def keyed_unit(seed_hasher, msg: bytes) -> float:
    """`unit(seed, *key)` given `hasher(seed)` and `message(*key)`."""
    h = seed_hasher.copy()
    h.update(msg)
    return int.from_bytes(h.digest(), "little") / _U64


def visit_unit(seed_hasher, label: bytes, case_id: int, node: bytes, visit: int,
               part: bytes = b"") -> float:
    """`unit(seed, label, case_id, node, visit[, part])` given `hasher(seed)`
    and the label, node and optional last part as `message` encodes them:
    the draw of a case's visit to a node.  `%d` spells an int as `repr` does."""
    return keyed_unit(seed_hasher, b"%s%d\x1f%s%d\x1f%s" % (label, case_id, node, visit, part))


def _mix(seed: int, key: tuple) -> int:
    h = hasher(seed)
    h.update(message(*key))
    return int.from_bytes(h.digest(), "little")


def unit(seed: int, *key) -> float:
    """Uniform draw in [0, 1) fully determined by (seed, *key)."""
    return _mix(seed, key) / _U64


def derive_seed(seed: int, *key) -> int:
    """A child seed for an independent named stream."""
    return _mix(seed, key)


class Stream:
    """Sequential uniform stream with an internal counter.

    Used where draws are consumed in a naturally deterministic order
    (e.g. generating the arrival sequence).  Keyed draws via `unit` are
    preferred wherever consumption order depends on the policy.
    """

    def __init__(self, seed: int, label: str):
        self._hasher = hasher(derive_seed(seed, "stream", label))
        self._counter = 0

    def next_unit(self) -> float:
        u = keyed_unit(self._hasher, b"%d\x1f" % self._counter)  # message(counter)
        self._counter += 1
        return u


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero toward +inf."""
    return math.floor(x + 0.5)


def exponential(u: float, mean: float) -> float:
    return -mean * math.log1p(-u) if mean > 0 else 0.0


def uniform(u: float, low: float, high: float) -> float:
    return low + u * (high - low)


def normal_truncated(u: float, mean: float, stddev: float) -> float:
    """Normal(mean, stddev) conditioned on being >= 0 (exact truncation)."""
    if stddev <= 0:
        return max(0.0, mean)
    from statistics import NormalDist  # imported on the first normal draw: start-up skips it

    dist = NormalDist(mean, stddev)
    lo = dist.cdf(0.0)
    # map u into the surviving tail; clamp away from the inv_cdf poles
    p = min(max(lo + u * (1.0 - lo), 1e-15), 1.0 - 1e-15)
    return max(0.0, dist.inv_cdf(p))
