"""Event-driven simulation of a finite cluster, on a uniformized clock.

Each server owns a slot as wide as its type's top service rate top[k], so
the clock ticks at the constant rate lam*N + sum_k n_k*top[k] for n_k servers
of type k. A tick draws a mark x uniformly over that total: below lam*N it is
an arrival; otherwise x lands in one server's slot, and the server completes
a job if x's offset in the slot is below its rate at its current length, and
the tick is a null event if not. This samples the same Markov chain as an
exponential race over the current rates (uniformization with thinning:
Jensen 1953; Lewis & Shedler 1979). Arrivals have slots too: one as wide as
lam*N*control for those the policy routes, then N equal ones, one per
server, for those routed at random (every arrival under random), so the
mark is also the control coin. Per-server FIFO arrival stamps provide exact
sojourn times.

No tick's time or mark depends on the state, so numpy draws them a block of
2^13 ticks at a time and maps each mark to (j, o): its slot, j = -N-1 for a
routed arrival, server - N for a random one and the server itself for a
service slot, and its offset in slot units, below 1. A routed arrival's
offset is a fresh uniform given the tick: it picks the pool member, or the
tie among JSQ(d)'s shortest candidates. The event loop walks the block's
(t, j, o) in segments split at the sample times, and keeps only the
thinning test, the pick and the bookkeeping. Policies that pick from a set
keep it as a swap-remove pool, for O(1) uniform picks: jsq one pool per
length across types, jiq the idle servers and jbt the servers below their
type's threshold, each falling back on a pool of every server. random and
jsqd read only the queue lengths. Sample rows count each type's lengths.

Randomness comes from one numpy PCG64 generator per run. Each tick block
draws 2^13 exponentials (the gaps, times 1/rate, summed on from the last
block) and then 2^13 uniforms (the marks). JSQ(d) reads its candidates from
the generator jumped (phi-1)*2^128 draws ahead, as integers drawn 2^13 at a
time when the last block is used up: d distinct servers per routed arrival,
redrawing a repeat, so how many it reads depends on the draws alone. Every
policy at one seed thus sees the same tick times, arrivals and marks. The
block size and this order fix the realization, so identical seeds give
bit-identical results. Replications derive child seeds by spawning the root
seed sequence and may run in processes (capped by LBMF_THREADS). A run
refuses a policy that ``model.policy_violations`` refuses, a type that does
not serve (``model.serving_violations``), whose slot would have no width,
and a horizon or sample interval that ``model.run_violations`` refuses; the
rest of the spec is not checked, so a run may start above capacity.

The constant clock costs null ticks: 5-19% of all ticks on the two
benchmark clusters, and over half at light load (homogeneous lam = 0.3,
heterogeneous lam = 0.5), but a null tick costs one loop step and one
comparison. There the six policies take 0.7-0.85 times as long as an
exponential race over the current rates did (jsq, jiq, jbt about as long).

Each completion appends its record (arrival, departure, server type, length
seen) to four plain lists. Every sample time, and the end of the run, moves
them into typed arrays of 8 bytes a field, which the result wraps without a
copy. So a run holds its finished jobs as Python objects for one sample
interval at most. The counters are derived once the loop ends: completions
are the stored records, arrivals are losses plus completions plus the jobs
still queued, and null events are the ticks before the horizon less both.
"""

from __future__ import annotations

import os
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from time import perf_counter

import numpy as np

from .model import (ClusterSpec, Policy, Trajectory, ValidationError,
                    policy_violations, run_violations, serving_violations)

_BLOCK = 1 << 13  # ticks per block, and JSQ(d) candidates per block
_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest float below 1: int(o * c) < c


@dataclass
class SimResult:
    """Trajectory, per-job sojourn records and counters from one run."""

    trajectory: Trajectory
    arrival_time: np.ndarray
    departure_time: np.ndarray
    server_type: np.ndarray
    length_seen: np.ndarray
    arrivals: int
    losses: int
    completions: int
    in_flight: int
    n: int
    horizon: float
    sample_interval: float
    null_events: int  # clock ticks that fired nothing: a slot above its server's rate
    wall_time: float  # seconds spent in run

    @property
    def admitted(self) -> int:
        return self.arrivals - self.losses


def place_servers(spec: ClusterSpec, n: int):
    """Largest-remainder allocation of n servers to types, at least 1 each."""
    if n < spec.k:
        raise ValueError(f"need at least one server per type: n={n} < {spec.k}")
    exact = [t.gamma * n for t in spec.types]
    counts = [int(x) for x in exact]
    order = sorted(range(spec.k), key=lambda k: exact[k] - counts[k], reverse=True)
    for k in order[: n - sum(counts)]:
        counts[k] += 1
    while min(counts) == 0:
        counts[counts.index(0)] += 1
        counts[counts.index(max(counts))] -= 1
    return counts


def _sample(traj, rows, qlen, first, stores, pending):
    """Set the sample ``rows`` (an index or a slice) of each type's
    trajectory to the counts of its servers' queue lengths, and move each
    pending list's records onto the end of its typed store."""
    lengths = np.array(qlen)
    for k, part in enumerate(traj):
        part[rows] = np.bincount(lengths[first[k]:first[k + 1]], minlength=part.shape[1])
    for store, records in zip(stores, pending):
        store.extend(records)
        records.clear()


def run(spec: ClusterSpec, policy: Policy, n: int, horizon: float,
        seed=None, sample_interval: float = 1.0) -> SimResult:
    """Simulate ``n`` servers from empty up to ``horizon``."""
    wall0 = perf_counter()
    ValidationError.check(policy_violations(spec, policy) + serving_violations(spec)
                          + run_violations(horizon=horizon, sample_interval=sample_interval))
    rng = np.random.default_rng(seed)

    types = range(spec.k)
    buf = list(spec.buffers)
    counts = place_servers(spec, n)
    first = list(accumulate(counts, initial=0))  # type k: servers first[k] to first[k + 1] - 1
    stype = [k for k, c in enumerate(counts) for _ in range(c)]
    sbuf = [buf[k] for k in stype]
    top = [max(t.curve.rates) for t in spec.types]
    # per server: its type's rates in slot units, one list shared per type
    rel = [[r / top[k] for r in spec.types[k].curve.rates] for k in types]
    srel = [rel[k] for k in stype]
    qlen = [0] * n
    fifo = [deque() for _ in range(n)]

    kind, d = policy.kind, policy.d
    if kind == "jsqd" and d >= n:
        kind = "jsq"
    control = 0.0 if kind == "random" else policy.control
    jsqd = kind == "jsqd"
    # the mark line in regions of equal slots, as (slot width, slots, index
    # of the first): one slot for the arrivals the policy routes, n for those
    # routed at random (to server j + n), then each type's servers
    lam_total = spec.lam * n
    width, slots, base = (np.array(col) for col in zip(
        (lam_total * control, 1, -n - 1), (lam_total * (1.0 - control) / n, n, -n),
        *((top[k], counts[k], first[k]) for k in types)))
    edges = np.concatenate(([0.0], np.cumsum(width * slots)))
    rate, start, inner = edges[-1], edges[:-1], edges[1:-1]
    # a region without width is never picked, since start[g] <= x < start[g + 1]
    inv = np.divide(1.0, width, out=np.zeros_like(width), where=width > 0.0)
    last = slots - 1.0
    if jsqd:
        # candidates from a second stream: the generator, jumped far ahead
        aux = np.random.Generator(rng.bit_generator.jumped())
        cand = chain.from_iterable(map(memoryview, map(
            aux.integers, repeat(0), repeat(n), repeat(_BLOCK)))).__next__

    # key[k][i]: the pool of a type-k server at length i, -1 for none
    key = None
    if kind == "jsq":
        key = [list(range(b + 1)) for b in buf]
        pools = [list(range(n))] + [[] for _ in range(max(buf))]
    elif kind in ("jiq", "jbt"):
        # pool 0: the idle servers, or those below their type's threshold;
        # pool 1: every server, picked from while pool 0 is empty
        below = [1 if kind == "jiq" else t.mpl for t in spec.types]
        key = [[0] * m + [-1] * (b + 1 - m) for b, m in zip(buf, below)]
        pools = [list(range(n)), list(range(n))]
    skey = [key[k] for k in stype] if key else None
    pos = list(range(n))
    low = 0  # no pool below it holds a server

    # list.append costs about a quarter of array.append, so the event loop
    # appends to lists and each sample time moves their records into stores
    arr_t, dep_t, dep_k, dep_seen = pending = ([], [], [], [])
    stores = (array("d"), array("d"), array("q"), array("q"))
    losses = ticks = 0

    n_samples = int(horizon / sample_interval + 1e-9) + 1
    times = np.arange(n_samples) * sample_interval
    traj = [np.empty((n_samples, buf[k] + 1)) for k in types]
    m, t_last = 0, 0.0  # the next sample row, the last tick drawn
    while True:
        tick_t = np.cumsum(rng.standard_exponential(_BLOCK) / rate)
        tick_t += t_last
        t_last = tick_t[-1]
        x = rng.random(_BLOCK) * rate
        g = inner.searchsorted(x, "right")
        u = (x - start[g]) * inv[g]
        r = np.minimum(np.floor(u), last[g])
        tick_j = base[g] + r.astype(np.int64)
        tick_o = np.minimum(u - r, _BELOW_ONE)
        del x, g, u, r  # the loop holds three block arrays, not seven
        end = int(tick_t.searchsorted(horizon))
        cuts = tick_t.searchsorted(times[m:times.searchsorted(t_last, "right")])
        a = 0
        # memoryviews make one Python number per tick as it is read
        mt, mj, mo = memoryview(tick_t), memoryview(tick_j), memoryview(tick_o)
        for b in cuts[cuts < end].tolist() + [end]:
            for t, j, o in zip(mt[a:b], mj[a:b], mo[a:b]):
                if j >= 0:
                    # server j's slot: a completion if o is below its rate
                    i = qlen[j]
                    if o >= srel[j][i]:
                        continue
                    t0, seen = fifo[j].popleft()
                    arr_t.append(t0)
                    dep_t.append(t)
                    dep_k.append(stype[j])
                    dep_seen.append(seen)
                    i_new = i - 1
                else:
                    if j >= -n:
                        j += n
                    elif jsqd:
                        # d distinct uniform servers; o breaks ties on the shortest
                        c = cand()
                        picked, ties, best, got = [c], [c], qlen[c], 1
                        while got < d:
                            c = cand()
                            if c not in picked:
                                picked.append(c)
                                got += 1
                                q = qlen[c]
                                if q < best:
                                    best, ties = q, [c]
                                elif q == best:
                                    ties.append(c)
                        j = ties[int(o * len(ties))]
                    else:
                        # uniform over the lowest pool that holds a server
                        while not pools[low]:
                            low += 1
                        pl = pools[low]
                        j = pl[int(o * len(pl))]
                    i = qlen[j]
                    if i >= sbuf[j]:
                        losses += 1
                        continue
                    fifo[j].append((t, i))
                    i_new = i + 1
                qlen[j] = i_new
                if skey is not None:
                    key = skey[j]
                    src = key[i]
                    dst = key[i_new]
                    if src != dst:
                        # swap-remove server j from pool src, append it to pool dst
                        if src >= 0:
                            pl = pools[src]
                            p = pos[j]
                            moved = pl[-1]
                            pl[p] = moved
                            pos[moved] = p
                            pl.pop()
                        if dst >= 0:
                            pl = pools[dst]
                            pos[j] = len(pl)
                            pl.append(j)
                            if dst < low:
                                low = dst
            if b < end:
                _sample(traj, m, qlen, first, stores, pending)
                m += 1
            a = b
        ticks += end
        if end < _BLOCK:
            break
    # the rows left, up to 1e-9 intervals past the horizon, hold its state
    _sample(traj, slice(m, None), qlen, first, stores, pending)

    arr_s, dep_s, k_s, seen_s = stores
    in_flight = sum(qlen)
    arrivals = losses + len(arr_s) + in_flight
    return SimResult(
        trajectory=Trajectory(times=times, parts=tuple(a / n for a in traj)),
        arrival_time=np.frombuffer(arr_s),
        departure_time=np.frombuffer(dep_s),
        server_type=np.frombuffer(k_s, dtype=np.int64),
        length_seen=np.frombuffer(seen_s, dtype=np.int64),
        arrivals=arrivals,
        losses=losses,
        completions=len(arr_s),
        in_flight=in_flight,
        n=n,
        horizon=horizon,
        sample_interval=sample_interval,
        null_events=ticks - arrivals - len(arr_s),
        wall_time=perf_counter() - wall0,
    )


def replication_seeds(seed, r: int):
    return np.random.SeedSequence(seed).spawn(r)


def _replicate_one(args):
    spec, policy, n, horizon, sample_interval, child = args
    return run(spec, policy, n, horizon, seed=child, sample_interval=sample_interval)


def replicate(spec: ClusterSpec, policy: Policy, n: int, horizon: float,
              seed, r: int, sample_interval: float = 1.0, workers=None):
    """``r`` independent runs with spawned child seeds, in index order.

    ``workers`` defaults to the LBMF_THREADS environment variable; anything
    above 1 runs replications in separate processes.
    """
    if r < 1:
        raise ValueError("replication count must be >= 1")
    children = replication_seeds(seed, r)
    jobs = [(spec, policy, n, horizon, sample_interval, child) for child in children]
    if workers is None:
        workers = int(os.environ.get("LBMF_THREADS", "1"))
    if workers > 1 and r > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, r)) as pool:
            return list(pool.map(_replicate_one, jobs))
    return [_replicate_one(job) for job in jobs]
