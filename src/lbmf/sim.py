"""Event-driven simulation of a finite cluster.

One exponential race drives everything: the next event fires at the total
rate (arrival rate plus the summed service rates of all queues), then is
attributed to an arrival or to a service completion of one (type, length)
bucket. Servers of equal type and length are exchangeable for the dynamics,
so the state is kept as counts per bucket plus member lists for O(1)
uniform picks; per-server FIFO arrival stamps provide exact sojourn times.

Randomness comes from one numpy PCG64 generator per run, consumed in
blocks; identical seeds give bit-identical results. Replications derive
child seeds by spawning the root seed sequence and may run in processes
(capped by LBMF_THREADS).
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import ClusterSpec, Policy, Trajectory

_BLOCK = 1 << 14


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

    @property
    def admitted(self) -> int:
        return self.arrivals - self.losses


class _Blocks:
    """Block-buffered draws from one generator (exponentials and uniforms)."""

    def __init__(self, rng):
        self.rng = rng
        self._exp = rng.standard_exponential(_BLOCK)
        self._uni = rng.random(_BLOCK)
        self._ei = 0
        self._ui = 0

    def exp(self):
        i = self._ei
        if i == _BLOCK:
            self._exp = self.rng.standard_exponential(_BLOCK)
            i = 0
        self._ei = i + 1
        return self._exp[i]

    def uni(self):
        i = self._ui
        if i == _BLOCK:
            self._uni = self.rng.random(_BLOCK)
            i = 0
        self._ui = i + 1
        return self._uni[i]


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
    rng = np.random.default_rng(seed)
    blocks = _Blocks(rng)
    uni = blocks.uni
    exp = blocks.exp

    kk = spec.k
    mu = [list(t.curve.rates) for t in spec.types]
    buf = [t.buffer for t in spec.types]
    mpl = [t.mpl for t in spec.types]
    counts = place_servers(spec, n)

    stype = []
    for k, c in enumerate(counts):
        stype.extend([k] * c)
    qlen = [0] * n
    bucket = [[[] for _ in range(buf[k] + 1)] for k in range(kk)]
    pos = [0] * n
    for j in range(n):
        b = bucket[stype[j]][0]
        pos[j] = len(b)
        b.append(j)
    cnt = [[0] * (buf[k] + 1) for k in range(kk)]
    for k in range(kk):
        cnt[k][0] = counts[k]
    max_b = max(buf)
    level_tot = [0] * (max_b + 1)
    level_tot[0] = n
    fifo = [deque() for _ in range(n)]

    lam_total = spec.lam * n
    jsqd_all = policy.kind == "jsqd" and policy.d >= n
    rate_sum = 0.0  # total service rate; refreshed at sample times
    min_occ = 0
    avail = n  # servers strictly below their type threshold (jbt)
    if policy.kind == "jbt":
        avail = sum(counts[k] for k in range(kk) if mpl[k] >= 1)

    arr_t, dep_t, dep_k, dep_seen = [], [], [], []
    arrivals = losses = completions = 0

    n_samples = int(horizon / sample_interval + 1e-9) + 1
    traj = [np.empty((n_samples, buf[k] + 1)) for k in range(kk)]
    sample_idx = 0

    def record_samples(upto):
        nonlocal sample_idx, rate_sum
        while sample_idx < n_samples and sample_idx * sample_interval <= upto + 1e-12:
            for k in range(kk):
                traj[k][sample_idx] = cnt[k]
            sample_idx += 1
            rate_sum = sum(
                cnt[k][i] * mu[k][i] for k in range(kk) for i in range(1, buf[k] + 1)
            )

    def move(j, k, i, i_new):
        # swap-pop from bucket (k, i), append to (k, i_new)
        b = bucket[k][i]
        p = pos[j]
        last = b[-1]
        b[p] = last
        pos[last] = p
        b.pop()
        b2 = bucket[k][i_new]
        pos[j] = len(b2)
        b2.append(j)
        cnt[k][i] -= 1
        cnt[k][i_new] += 1
        level_tot[i] -= 1
        level_tot[i_new] += 1
        qlen[j] = i_new

    def pick_uniform_all():
        j = int(uni() * n)
        return j if j < n else n - 1

    def pick_in_level(i, total):
        r = int(uni() * total)
        if r >= total:
            r = total - 1
        for k in range(kk):
            if i <= buf[k]:
                c = cnt[k][i]
                if r < c:
                    return bucket[k][i][r]
                r -= c
        raise AssertionError("level pick out of range")

    def pick_jbt():
        r = int(uni() * avail)
        if r >= avail:
            r = avail - 1
        for k in range(kk):
            for i in range(mpl[k]):
                c = cnt[k][i]
                if r < c:
                    return bucket[k][i][r]
                r -= c
        raise AssertionError("availability pick out of range")

    def pick_member(k, i):
        c = cnt[k][i]
        r = int(uni() * c)
        if r >= c:
            r = c - 1
        return bucket[k][i][r]

    kind = policy.kind
    d = policy.d
    control = policy.control

    def pick_target():
        k_eff = kind
        if control < 1.0 and uni() >= control:
            k_eff = "random"
        if k_eff == "random":
            return pick_uniform_all()
        if k_eff == "jiq":
            idle = level_tot[0]
            return pick_in_level(0, idle) if idle else pick_uniform_all()
        if k_eff == "jsq" or (k_eff == "jsqd" and jsqd_all):
            return pick_in_level(min_occ, level_tot[min_occ])
        if k_eff == "jsqd":
            picked = []
            while len(picked) < d:
                c = pick_uniform_all()
                if c not in picked:
                    picked.append(c)
            best = min(qlen[c] for c in picked)
            ties = [c for c in picked if qlen[c] == best]
            if len(ties) == 1:
                return ties[0]
            r = int(uni() * len(ties))
            return ties[r if r < len(ties) else -1]
        if k_eff == "jbt":
            return pick_jbt() if avail else pick_uniform_all()
        raise ValueError(f"unknown policy kind {k_eff!r}")

    t = 0.0
    while True:
        rate = lam_total + rate_sum
        if rate <= 0.0:
            break
        t_next = t + exp() / rate
        record_samples(min(t_next, horizon))
        if t_next >= horizon:
            t = horizon
            break
        t = t_next
        x = uni() * rate
        if x < lam_total:
            arrivals += 1
            j = pick_target()
            k = stype[j]
            i = qlen[j]
            if i >= buf[k]:
                losses += 1
                continue
            move(j, k, i, i + 1)
            rate_sum += mu[k][i + 1] - mu[k][i]
            fifo[j].append((t, i))
            if kind == "jbt" and i + 1 == mpl[k]:
                avail -= 1
            if i == min_occ and level_tot[i] == 0:
                while level_tot[min_occ] == 0:
                    min_occ += 1
        else:
            x -= lam_total
            picked = None
            for k in range(kk):
                row = cnt[k]
                mrow = mu[k]
                for i in range(1, buf[k] + 1):
                    c = row[i]
                    if c:
                        w = c * mrow[i]
                        if x < w:
                            picked = (k, i)
                            break
                        x -= w
                if picked:
                    break
            if picked is None:
                continue  # float edge at the top of the rate scan
            k, i = picked
            j = pick_member(k, i)
            move(j, k, i, i - 1)
            rate_sum += mu[k][i - 1] - mu[k][i]
            completions += 1
            t0, seen = fifo[j].popleft()
            arr_t.append(t0)
            dep_t.append(t)
            dep_k.append(k)
            dep_seen.append(seen)
            if kind == "jbt" and i == mpl[k]:
                avail += 1
            if i - 1 < min_occ:
                min_occ = i - 1
    record_samples(horizon)

    times = np.arange(n_samples) * sample_interval
    parts = tuple(a / n for a in traj)
    return SimResult(
        trajectory=Trajectory(times=times, parts=parts),
        arrival_time=np.array(arr_t),
        departure_time=np.array(dep_t),
        server_type=np.array(dep_k, dtype=np.int64),
        length_seen=np.array(dep_seen, dtype=np.int64),
        arrivals=arrivals,
        losses=losses,
        completions=completions,
        in_flight=sum(qlen),
        n=n,
        horizon=horizon,
        sample_interval=sample_interval,
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
