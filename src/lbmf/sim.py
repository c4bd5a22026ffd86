"""Event-driven simulation of a finite cluster.

One exponential race drives everything: the next event fires at the total
rate (arrival rate plus the summed service rates of all queues), then is
attributed to an arrival or to a service completion of one (type, length)
bucket. Servers of equal type and length are exchangeable for the dynamics,
so the state is one member list per bucket, for O(1) uniform picks; a
bucket's count is the length of its list, and no other count is kept but
the total per length. Per-server FIFO arrival stamps provide exact sojourn
times.

Randomness comes from one numpy PCG64 generator per run, read as two
streams, exponentials and uniforms. Each stream is drawn in blocks of 2^14,
and a block is drawn only when the stream's previous block is used up, so
the first exponential block comes before the first uniform block. Every
event takes one exponential (the time to it) and one uniform (arrival, or
which bucket completes). Then come the uniforms of the pick. For an
arrival these are the control coin when control < 1, then the servers
(d distinct ones for JSQ(d)), then the tie-break among equally short
candidates. A completion takes one uniform for the member of its bucket.
This order and the block size fix the realization, so identical seeds give
bit-identical results. Replications derive child seeds by spawning the root
seed sequence and may run in processes (capped by LBMF_THREADS). A run
refuses a policy that ``model.policy_violations`` refuses; the spec is
not checked, so a run may start above capacity.

Each completion appends its record (arrival, departure, server type, length
seen) to four plain lists. Every sample tick, and the event past the
horizon that ends the run, moves them into typed arrays of 8 bytes a field,
which the result wraps without a copy. So a run holds its finished jobs as
Python objects for one sample interval at most: a homogeneous run with
N = 1000 to horizon 60 (about 71k completions) peaks at 4.0 MiB under
tracemalloc for 2.2 MiB of records. The counters are derived once the loop
ends: completions are the stored records, and arrivals are losses plus
completions plus the jobs still queued.
"""

from __future__ import annotations

import os
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from math import inf
from time import perf_counter

import numpy as np

from .model import (ClusterSpec, Policy, Trajectory, ValidationError,
                    policy_violations)

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
    null_events: int  # completions the rate scan could not place (float edge)
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
    ValidationError.check(policy_violations(spec, policy))
    rng = np.random.default_rng(seed)
    # floats from blocks each drawn on first use; a memoryview makes one float
    # per draw as it is read, so no block is held as a list of Python floats
    exp, uni = (chain.from_iterable(map(memoryview, map(method, repeat(_BLOCK)))).__next__
                for method in (rng.standard_exponential, rng.random))

    types = range(spec.k)
    mu = [list(t.curve.rates) for t in spec.types]
    buf = list(spec.buffers)
    mpl = [t.mpl for t in spec.types]
    counts = place_servers(spec, n)
    # the change in a type's service rate from length i to i + 1, and to i - 1
    up = [[b - a for a, b in zip(m, m[1:])] for m in mu]
    down = [[0.0] + [a - b for a, b in zip(m, m[1:])] for m in mu]

    stype = []
    for k, c in enumerate(counts):
        stype.extend([k] * c)
    qlen = [0] * n
    bucket = [[[] for _ in range(buf[k] + 1)] for k in types]
    pos = [0] * n
    for j in range(n):
        b = bucket[stype[j]][0]
        pos[j] = len(b)
        b.append(j)
    # the same member lists, in scan order: every type's at each length, the
    # serving ones with their rates, and those below the jbt thresholds
    level = [[bucket[k][i] for k in types if i <= buf[k]] for i in range(max(buf) + 1)]
    serving = [(mu[k][i], bucket[k][i]) for k in types for i in range(1, buf[k] + 1)]
    level_tot = [0] * len(level)
    level_tot[0] = n
    fifo = [deque() for _ in range(n)]

    lam_total = spec.lam * n
    kind, d, control = policy.kind, policy.d, policy.control
    if kind == "jsqd" and d >= n:
        kind = "jsq"
    is_jbt = kind == "jbt"
    rate_sum = 0.0  # total service rate; refreshed at sample times
    min_occ = 0
    avail = n  # servers strictly below their type threshold (jbt)
    if is_jbt:
        below = [b for k in types for b in bucket[k][:mpl[k]]]
        avail = sum(map(len, below))

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
        rate = lam_total + rate_sum
        t_next = t + exp() / rate if rate > 0.0 else horizon
        if t_next + 1e-12 >= next_due:
            # the last event samples every row left: n_samples allows the
            # last tick to fall up to 1e-9 intervals past the horizon
            upto = t_next if t_next < horizon else inf
            while sample_idx < n_samples and sample_idx * sample_interval <= upto + 1e-12:
                for k in types:
                    traj[k][sample_idx] = [len(b) for b in bucket[k]]
                sample_idx += 1
                rate_sum = sum(len(b) * m for m, b in serving)
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
            if pick == "jsq" or pick == "jiq" and level_tot[0]:
                # uniform over the shortest queues, all types
                total = level_tot[min_occ]
                r = int(uni() * total)
                if r >= total:
                    r = total - 1
                for b in level[min_occ]:
                    c = len(b)
                    if r < c:
                        break
                    r -= c
                j = b[r]
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
            elif pick == "jbt" and avail:
                # uniform over the servers below their type threshold
                r = int(uni() * avail)
                if r >= avail:
                    r = avail - 1
                for b in below:
                    c = len(b)
                    if r < c:
                        break
                    r -= c
                j = b[r]
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
        else:
            x -= lam_total
            for m, b in serving:
                c = len(b)
                if c:
                    w = c * m
                    if x < w:
                        break
                    x -= w
            else:
                null_events += 1  # float edge at the top of the rate scan
                continue
            r = int(uni() * c)
            j = b[r if r < c else c - 1]
            k = stype[j]
            i = qlen[j]
            i_new = i - 1
        # move server j of type k from length i to i_new
        row = bucket[k]
        b = row[i]
        p = pos[j]
        last = b[-1]
        b[p] = last
        pos[last] = p
        b.pop()
        b = row[i_new]
        pos[j] = len(b)
        b.append(j)
        level_tot[i] -= 1
        level_tot[i_new] += 1
        qlen[j] = i_new
        if i_new > i:
            rate_sum += up[k][i]
            fifo[j].append((t, i))
            if is_jbt and i_new == mpl[k]:
                avail -= 1
            if i == min_occ and level_tot[i] == 0:
                while level_tot[min_occ] == 0:
                    min_occ += 1
        else:
            rate_sum += down[k][i]
            t0, seen = fifo[j].popleft()
            arr_t.append(t0)
            dep_t.append(t)
            dep_k.append(k)
            dep_seen.append(seen)
            if is_jbt and i == mpl[k]:
                avail += 1
            if i_new < min_occ:
                min_occ = i_new

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
