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
mark is also the control coin. Each server serves its jobs in arrival
order (FIFO), so a job's sojourn time is exact: its departure tick less its
arrival tick.

No tick's time or mark depends on the state, so numpy draws them a block of
2^13 ticks at a time and maps each mark to (j, o): its slot, j = -N-1 for a
routed arrival, server - N for a random one and the server itself for a
service slot, and its offset in slot units, below 1. A routed arrival's
offset is a fresh uniform given the tick: it picks the pool member. JSQ(d)
does not read it: its d distinct candidates come in uniformly random order,
so the first shortest one is uniform over the tied ones, as the power-of-d
model asks. The event loop walks the block's (j, o) in segments split at
the sample times, and keeps only the thinning test, the pick and the queue
lengths. Policies that pick from a set keep it as a swap-remove pool, for
O(1) uniform picks: jsq one pool per length across types, jiq the idle
servers and jbt the servers below their type's threshold, each falling back
on a pool of every server. random and jsqd read only the queue lengths.
Sample rows count each type's lengths, at about 39 us a sample at N = 1000
(Python 3.11, one core of a 2-core Xeon VM). Sample times only cut the
segments and draw nothing, so the records and counters are the same at
every sample interval: the ``table`` and ``dist`` commands, which read
nothing else, sample only at 0 and the horizon.

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
comparison. At homogeneous lam = 0.3 the six policies' runs take
0.55-0.9 times as long as an exponential race over the current rates did
(N = 1000, horizon 60, best of 15 runs each; jsq the closest).

The loop keeps an event log of plain lists, indexed by the tick's place in
its block: a routed arrival appends its server, every arrival the length it
saw and a completion its tick index; the loop counts the losses (arrivals
that saw a full buffer) itself. At the end of a block ``_match`` turns the
log into records (arrival, departure, server type, length seen) in numpy,
pairing each completion with the oldest job waiting at its server; the
jobs still waiting carry over. The records are kept as one array per field
and block and joined once at the end, so Python objects hold one block's
log at most and the peak memory stays near the records' own size. Arrivals
and completions are counted from each block's log, and null events are the
ticks before the horizon less arrivals and completions.

A run with ``window=(lo, hi)`` records only the jobs that arrived at
lo <= t <= hi, as the ``table`` and ``dist`` commands ask for their steady
window (warm-up deletion: Welch 1983), by one rule: every admitted arrival
waits, each completion takes the oldest job waiting at its server, and a
job taken is recorded if it arrived at lo <= t <= hi. Blocks that end
before lo are not matched; the first one after starts from a placeholder
at t = -inf for each job queued then. Under FIFO no job after hi changes a
window job's pairing, so matching stops at the first block past hi with no
window job waiting. The records are the full run's in the window, in the
same order, the counters the full run's, and ``window_arrivals`` and
``window_losses`` count the window's arrivals and losses. On the
homogeneous cluster at N = 1000 and horizon 100, with the ``table`` window
[50, 75], a run matches 13.5 of its 34 blocks and takes 0.85 times as long
as one that records every job (Python 3.11, one core of a 2-core Xeon VM).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, repeat
from time import perf_counter

import numpy as np

from .model import (ClusterSpec, ConfigError, Policy, Trajectory, ValidationError,
                    policy_violations, run_violations, serving_violations, size_violations)

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
    window_arrivals: int  # arrivals at lo <= t <= hi; every arrival without a window
    window_losses: int  # how many of them were lost
    completions: int
    in_flight: int
    n: int
    horizon: float
    sample_interval: float
    window: tuple | None  # (lo, hi): records only for jobs arriving in it; None: every job
    null_events: int  # clock ticks that fired nothing: a slot above its server's rate
    wall_time: float  # seconds spent in run

    @property
    def admitted(self) -> int:
        return self.arrivals - self.losses


def place_servers(spec: ClusterSpec, n: int):
    """Largest-remainder allocation of n servers to types, at least 1 each."""
    ValidationError.check(size_violations(spec, n=n))
    exact = [t.gamma * n for t in spec.types]
    counts = [int(x) for x in exact]
    order = sorted(range(spec.k), key=lambda k: exact[k] - counts[k], reverse=True)
    for k in order[: n - sum(counts)]:
        counts[k] += 1
    while min(counts) == 0:
        counts[counts.index(0)] += 1
        counts[counts.index(max(counts))] -= 1
    return counts


def _sample(traj, rows, qlen, first):
    """Set the sample ``rows`` (an index or a slice) of each type's
    trajectory to the counts of its servers' queue lengths."""
    lengths = np.fromiter(qlen, np.intp, len(qlen))
    for k, part in enumerate(traj):
        part[rows] = np.bincount(lengths[first[k]:first[k + 1]], minlength=part.shape[1])


def _match(tick_t, tick_j, n, log, wait, stores, stype, sbuf, lo, hi):
    """Turn one block's event log into the records of the jobs that arrived
    in [lo, hi], FIFO per server.

    ``tick_t`` and ``tick_j`` end at the block's last tick before the
    horizon. ``log`` holds, in tick order, the routed arrivals' servers,
    every arrival's length seen and the completions' tick indices; an
    arrival that saw its server's buffer ``sbuf`` full was lost. ``wait``
    holds the jobs waiting from earlier blocks as (arrival time, server,
    length seen), in arrival order. The admitted arrivals join them, each
    completion takes the oldest job waiting at its server, and the jobs
    taken that arrived in [lo, hi] are appended to the first four ``stores``
    in completion order; the fifth gets whether each arrival in [lo, hi] was
    admitted. Returns the jobs still waiting.
    """
    picks, seen, done = log
    arr = np.flatnonzero(tick_j < 0)
    srv = tick_j[arr] + n
    srv[srv < 0] = np.fromiter(picks, np.int64, len(picks))  # routed: slot -n - 1
    saw = np.fromiter(seen, np.int64, len(seen))
    arr_t = tick_t[arr]
    admit = saw < sbuf[srv]
    keep = np.flatnonzero(admit)
    w_t, w_s, w_q = wait
    job_t = np.concatenate((w_t, arr_t[keep]))
    job_s = np.concatenate((w_s, srv[keep].astype(w_s.dtype)))
    job_q = np.concatenate((w_q, saw[keep]))
    dep = np.fromiter(done, np.intp, len(done))
    dep_s = tick_j[dep].astype(w_s.dtype)
    # stable sorts group jobs and completions by server, in time order (8-
    # and 16-bit keys sort by radix), and the r-th completion at a server
    # takes the r-th job there: a server's jobs start sum(jobs - completions
    # at lower servers) places further along the sorted jobs than its
    # completions do along the sorted completions
    by_s = np.argsort(job_s, kind="stable")
    dep_by_s = np.argsort(dep_s, kind="stable")
    surplus = np.bincount(job_s, minlength=n) - np.bincount(dep_s, minlength=n)
    shift = np.cumsum(surplus) - surplus
    at = np.empty_like(dep)  # each completion's job's place in by_s
    at[dep_by_s] = np.arange(len(dep)) + shift[dep_s[dep_by_s]]
    take = by_s[at]
    left = np.ones(len(job_t), dtype=bool)
    left[take] = False
    left = np.flatnonzero(left)
    got = job_t[take]
    rec = np.flatnonzero((got >= lo) & (got <= hi))
    got, take, dep = got[rec], take[rec], dep[rec]
    for store, col in zip(stores, (got, tick_t[dep], stype[tick_j[dep]], job_q[take],
                                   admit[(arr_t >= lo) & (arr_t <= hi)])):
        store.append(col)
    return job_t[left], job_s[left], job_q[left]


def run(spec: ClusterSpec, policy: Policy, n: int, horizon: float,
        seed=None, sample_interval: float = 1.0, window=None) -> SimResult:
    """Simulate ``n`` servers from empty up to ``horizon``.

    ``window=(lo, hi)`` keeps the records of the jobs that arrived at times
    lo <= t <= hi only, and counts the arrivals at those times; None keeps
    every job's.
    """
    wall0 = perf_counter()
    lo, hi = (-np.inf, np.inf) if window is None else window
    ValidationError.check(
        policy_violations(spec, policy) + serving_violations(spec)
        + run_violations(horizon=horizon, sample_interval=sample_interval)
        + ([] if lo <= hi else [f"window must run from lo to hi >= lo, got {window!r}"]))
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

    # the event log, as lists: routed arrivals' servers, every arrival's
    # length seen and the completions' tick indices; a block's log is
    # matched into one array per record field, and one of the window
    # arrivals' admissions, if it can hold a window job
    picks, seen, done = log = ([], [], [])
    stores = tuple([np.empty(0, dtype=dt)] for dt in (float, float, np.int64, np.int64, bool))
    stype_np, sbuf_np = np.array(stype, dtype=np.int64), np.array(sbuf)
    wait = None  # the jobs waiting, from the first block matched on
    arrivals = losses = completions = ticks = 0

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
        if wait is None and lo <= t_last:
            # matching starts with the block that reaches lo, and the jobs
            # queued then arrived before lo: placeholders, in no record, that
            # the first completions at their servers take
            queued = sum(qlen)
            servers = np.arange(n, dtype=np.min_scalar_type(n - 1))
            wait = (np.full(queued, -np.inf), np.repeat(servers, qlen),
                    np.zeros(queued, dtype=np.int64))
        cuts = tick_t.searchsorted(times[m:times.searchsorted(t_last, "right")])
        a = 0
        # memoryviews make one Python number per tick as it is read; t is
        # the tick's index in its block
        mj, mo = memoryview(tick_j), memoryview(tick_o)
        for b in cuts[cuts < end].tolist() + [end]:
            for t, j, o in zip(range(a, b), mj[a:b], mo[a:b]):
                if j >= 0:
                    # server j's slot: a completion if o is below its rate
                    i = qlen[j]
                    if o >= srel[j][i]:
                        continue
                    done.append(t)
                    i_new = i - 1
                else:
                    if j >= -n:
                        j += n
                    else:
                        if jsqd:
                            # d distinct uniform servers, which come in
                            # uniform order: the first shortest one is
                            # uniform over the tied ones
                            j = cand()
                            picked, best, got = [j], qlen[j], 1
                            while got < d:
                                c = cand()
                                if c not in picked:
                                    picked.append(c)
                                    got += 1
                                    if qlen[c] < best:
                                        j, best = c, qlen[c]
                        else:
                            # uniform over the lowest pool that holds a server
                            while not pools[low]:
                                low += 1
                            pl = pools[low]
                            j = pl[int(o * len(pl))]
                        picks.append(j)
                    i = qlen[j]
                    seen.append(i)
                    if i >= sbuf[j]:
                        losses += 1  # its server's buffer is full
                        continue
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
                _sample(traj, m, qlen, first)
                m += 1
            a = b
        # match until a block starts past hi with no window job waiting
        if wait is not None and (tick_t[0] <= hi or ((wait[0] >= lo) & (wait[0] <= hi)).any()):
            wait = _match(tick_t[:end], tick_j[:end], n, log, wait, stores,
                          stype_np, sbuf_np, lo, hi)
        arrivals += len(seen)
        completions += len(done)
        ticks += end
        for entries in log:
            entries.clear()
        if end < _BLOCK:
            break
    # the rows left, up to 1e-9 intervals past the horizon, hold its state
    _sample(traj, slice(m, None), qlen, first)

    # join one field at a time, freeing its blocks, so the peak holds the
    # records once and one field twice
    records = []
    for store in stores:
        records.append(np.concatenate(store))
        store.clear()
    arr_s, dep_s, k_s, seen_s, admitted = records
    in_flight = sum(qlen)
    return SimResult(
        trajectory=Trajectory(times=times, parts=tuple(a / n for a in traj)),
        arrival_time=arr_s,
        departure_time=dep_s,
        server_type=k_s,
        length_seen=seen_s,
        arrivals=arrivals,
        losses=losses,
        window_arrivals=len(admitted),
        window_losses=len(admitted) - int(np.count_nonzero(admitted)),
        completions=completions,
        in_flight=in_flight,
        n=n,
        horizon=horizon,
        sample_interval=sample_interval,
        window=window,
        null_events=ticks - arrivals - completions,
        wall_time=perf_counter() - wall0,
    )


def workers() -> int:
    """The LBMF_THREADS environment variable, 1 if unset; one that is not an
    integer is a ``ConfigError``."""
    value = os.environ.get("LBMF_THREADS", "1")
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"LBMF_THREADS takes an integer, got {value!r}") from None


def replicate(spec: ClusterSpec, policy: Policy, n: int, horizon: float,
              seed, r: int, sample_interval: float = 1.0, window=None):
    """``r`` independent runs with spawned child seeds, in index order, each
    keeping the records of the jobs that arrived in ``window`` (every job's
    if None), as ``run`` does.

    ``workers()`` above 1 runs them in that many separate processes at most;
    the records do not depend on how many.
    """
    if r < 1:
        raise ValueError("replication count must be >= 1")
    one = partial(run, spec, policy, n, horizon, sample_interval=sample_interval,
                  window=window)
    seeds = np.random.SeedSequence(seed).spawn(r)
    cap = workers()
    if cap > 1 and r > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(cap, r)) as pool:
            return list(pool.map(one, seeds))
    return list(map(one, seeds))
