"""Event-driven simulation of a finite cluster, on a uniformized clock.

Each server owns a slot as wide as its type's top service rate top[k], so
the clock ticks at the constant rate lam*N + sum_k n_k*top[k] for n_k servers
of type k. A tick draws x uniformly over that total: below lam*N it is an
arrival; otherwise x lands in one server's slot, and the server completes a
job if x's offset in the slot is below its rate at its current length, and
the tick is a null event if not. The slots lie in server order, type 0's
servers first. This samples the same Markov chain as an
exponential race over the current rates (uniformization with thinning:
Jensen 1953; Lewis & Shedler 1979), and a completion needs no bookkeeping
but the server's queue length. Per-server FIFO arrival stamps provide exact
sojourn times.

Policies that pick from a set keep it as a swap-remove pool, for O(1)
uniform picks: jsq one pool per length across types, jiq the idle servers,
jbt the servers below their type's threshold. random and jsqd read only the
queue lengths. Sample rows count each type's queue lengths.

Randomness comes from one numpy PCG64 generator per run, read as two
streams, exponentials and uniforms. Each stream is drawn in blocks of 2^14,
and a block is drawn only when the stream's previous block is used up, so
the first exponential block comes before the first uniform block. Every
tick takes one exponential (the time to it) and one uniform (arrival, or
the slot and the offset in it). A completion or null event takes no more.
An arrival then takes the control coin when control < 1, then one uniform
for the member of its pool (jsq; jiq and jbt while their pool is not
empty), or the servers (one, or d distinct ones for JSQ(d)) and the
tie-break among equally short candidates. This order and the block size fix
the realization, so identical seeds give bit-identical results.
Replications derive child seeds by spawning the root seed sequence and may
run in processes (capped by LBMF_THREADS). A run refuses a policy that
``model.policy_violations`` refuses and a type that does not serve
(``model.serving_violations``), whose slot would have no width; the rest of
the spec is not checked, so a run may start above capacity.

The constant clock costs null ticks: 5-19% of all ticks on the two
benchmark clusters, and more the lighter the load. At light load they cost
more than the bookkeeping they save: on the homogeneous cluster at lam = 0.3
(two thirds of the ticks null) a run takes about 1.5 times as long as an
exponential race over the current rates, and the break-even lies between
loads of about 0.3 and 0.5.

Each completion appends its record (arrival, departure, server type, length
seen) to four plain lists. Every sample tick, and the tick past the horizon
that ends the run, moves them into typed arrays of 8 bytes a field, which
the result wraps without a copy. So a run holds its finished jobs as Python
objects for one sample interval at most. The counters are derived once the
loop ends: completions are the stored records, and arrivals are losses plus
completions plus the jobs still queued.
"""

from __future__ import annotations

import os
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from math import inf
from time import perf_counter

import numpy as np

from .model import (ClusterSpec, Policy, Trajectory, ValidationError,
                    policy_violations, serving_violations)

_BLOCK = 1 << 14  # draws per numpy call


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


def _flush(stores, pending):
    """Move each pending list's records onto the end of its typed store."""
    for store, records in zip(stores, pending):
        store.extend(records)
        records.clear()


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


def run(spec: ClusterSpec, policy: Policy, n: int, horizon: float,
        seed=None, sample_interval: float = 1.0) -> SimResult:
    """Simulate ``n`` servers from empty up to ``horizon``."""
    wall0 = perf_counter()
    ValidationError.check(policy_violations(spec, policy) + serving_violations(spec))
    rng = np.random.default_rng(seed)
    # floats from blocks each drawn on first use; a memoryview makes one float
    # per draw as it is read, so no block is held as a list of Python floats
    exp, uni = (chain.from_iterable(map(memoryview, map(method, repeat(_BLOCK)))).__next__
                for method in (rng.standard_exponential, rng.random))

    types = range(spec.k)
    buf = list(spec.buffers)
    counts = place_servers(spec, n)
    first = list(accumulate(counts, initial=0))  # type k: servers first[k] to first[k+1] - 1
    stype = [k for k, c in enumerate(counts) for _ in range(c)]
    top = [max(t.curve.rates) for t in spec.types]
    # per type: its slots' total width (the last one unbounded, for float
    # edges), 1 / slot width, first server, count and rates in slot units
    slots = [(counts[k] * top[k] if k < spec.k - 1 else inf, 1.0 / top[k], first[k],
              counts[k], [r / top[k] for r in spec.types[k].curve.rates]) for k in types]
    lam_total = spec.lam * n
    rate = lam_total + sum(c * w for c, w in zip(counts, top))
    scale = 1.0 / rate if rate > 0.0 else inf
    qlen = [0] * n
    fifo = [deque() for _ in range(n)]

    kind, d, control = policy.kind, policy.d, policy.control
    if kind == "jsqd" and d >= n:
        kind = "jsq"
    # key[k][i]: the pool of a type-k server at length i, -1 for none
    if kind == "jsq":
        key = [list(range(b + 1)) for b in buf]
    elif kind in ("jiq", "jbt"):
        # one pool: the idle servers, or those below their type's threshold
        below = [1 if kind == "jiq" else t.mpl for t in spec.types]
        key = [[0] * m + [-1] * (b + 1 - m) for b, m in zip(buf, below)]
        kind = "pool"
    else:
        key = None
    pools = [list(range(n))] + [[] for _ in range(max(buf))]
    pos = list(range(n))
    low = 0  # no pool below it holds a server (jsq)

    # list.append costs about a quarter of array.append, so the event loop
    # appends to lists and the sample ticks move their records into stores
    arr_t, dep_t, dep_k, dep_seen = pending = ([], [], [], [])
    stores = (array("d"), array("d"), array("q"), array("q"))
    losses = null_events = 0

    n_samples = int(horizon / sample_interval + 1e-9) + 1
    traj = [np.empty((n_samples, buf[k] + 1)) for k in types]
    sample_idx = 0
    next_due = 0.0  # time of the next sample

    t = 0.0
    while True:
        t_next = t + exp() * scale
        if t_next + 1e-12 >= next_due:
            # the last tick samples every row left: n_samples allows the
            # last sample to fall up to 1e-9 intervals past the horizon
            upto = t_next if t_next < horizon else inf
            while sample_idx < n_samples and sample_idx * sample_interval <= upto + 1e-12:
                lengths = np.array(qlen)
                for k in types:
                    traj[k][sample_idx] = np.bincount(lengths[first[k]:first[k + 1]],
                                                      minlength=buf[k] + 1)
                sample_idx += 1
            next_due = min(sample_idx * sample_interval, horizon)
            _flush(stores, pending)
            if t_next >= horizon:
                break
        t = t_next
        x = uni() * rate
        if x < lam_total:
            pick = kind
            if control < 1.0 and uni() >= control:
                pick = "random"
            if pick == "jsq" or pick == "pool" and pools[0]:
                # uniform over the shortest queues, or over jiq's or jbt's pool
                while not pools[low]:
                    low += 1
                pl = pools[low]
                c = len(pl)
                r = int(uni() * c)
                j = pl[r if r < c else -1]
            elif pick == "jsqd":
                # d distinct uniform servers; ties on the shortest break uniformly
                c = int(uni() * n)
                if c >= n:
                    c = n - 1
                picked = [c]
                ties = [c]
                best = qlen[c]
                got = 1
                while got < d:
                    c = int(uni() * n)
                    if c >= n:
                        c = n - 1
                    if c not in picked:
                        picked.append(c)
                        got += 1
                        q = qlen[c]
                        if q < best:
                            best = q
                            ties = [c]
                        elif q == best:
                            ties.append(c)
                nt = len(ties)
                if nt == 1:
                    j = ties[0]
                else:
                    r = int(uni() * nt)
                    j = ties[r if r < nt else -1]
            else:
                j = int(uni() * n)
                if j >= n:
                    j = n - 1
            k = stype[j]
            i = qlen[j]
            if i >= buf[k]:
                losses += 1
                continue
            i_new = i + 1
            fifo[j].append((t, i))
        else:
            x -= lam_total
            for width, inv, j0, c, rel in slots:
                if x < width:
                    break
                x -= width
            u = x * inv
            r = int(u)
            if r >= c:
                r = c - 1
            j = j0 + r
            i = qlen[j]
            # u - r is exact, so an idle server (rate 0) never completes
            if u - r >= rel[i]:
                null_events += 1
                continue
            i_new = i - 1
            k = stype[j]
            t0, seen = fifo[j].popleft()
            arr_t.append(t0)
            dep_t.append(t)
            dep_k.append(k)
            dep_seen.append(seen)
        qlen[j] = i_new
        if key is not None:
            a = key[k][i]
            b = key[k][i_new]
            if a != b:
                # swap-remove server j from pool a, append it to pool b
                if a >= 0:
                    pl = pools[a]
                    p = pos[j]
                    last = pl[-1]
                    pl[p] = last
                    pos[last] = p
                    pl.pop()
                if b >= 0:
                    pl = pools[b]
                    pos[j] = len(pl)
                    pl.append(j)
                    if b < low:
                        low = b

    times = np.arange(n_samples) * sample_interval
    parts = tuple(a / n for a in traj)
    arr_s, dep_s, k_s, seen_s = stores
    in_flight = sum(qlen)
    return SimResult(
        trajectory=Trajectory(times=times, parts=parts),
        arrival_time=np.frombuffer(arr_s),
        departure_time=np.frombuffer(dep_s),
        server_type=np.frombuffer(k_s, dtype=np.int64),
        length_seen=np.frombuffer(seen_s, dtype=np.int64),
        arrivals=losses + len(arr_s) + in_flight,
        losses=losses,
        completions=len(arr_s),
        in_flight=in_flight,
        n=n,
        horizon=horizon,
        sample_interval=sample_interval,
        null_events=null_events,
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
