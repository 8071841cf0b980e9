"""Workload generators for the RGB benchmark.

Each generator turns a seed into an op schedule (the text format documented
in harness/schedule.hpp) plus the ground truth the final membership must
equal. Randomness comes from a SplitMix64 stream, so a seed gives the same
schedule on every Python version and host. All three workloads run on one
3-tier x ring-5 hierarchy: 125 APs, 155 NEs. `scale` shrinks a workload's
population and op count; only the seed self-test (run.py --selftest) uses it.
"""

import math

TIERS = 3
RING = 5
APS = RING ** TIERS
MASK = (1 << 64) - 1
GUARD_BEFORE_US = 1_500_000
GUARD_AFTER_US = 2_000_000


class Rng:
    """SplitMix64: small, fast and stable across platforms."""

    def __init__(self, seed):
        self.state = (seed * 0x9E3779B97F4A7C15 + 0x5EED) & MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next_u64() >> 11) / float(1 << 53)

    def below(self, n):
        return self.next_u64() % n

    def exp_us(self, rate_per_s):
        """Poisson inter-arrival gap in whole microseconds (at least 1)."""
        return max(1, int(-math.log(1.0 - self.uniform()) / rate_per_s * 1e6))


class Population:
    """Live members with O(1) random pick and removal."""

    def __init__(self):
        self.ap = {}
        self.order = []
        self.slot = {}

    def __len__(self):
        return len(self.order)

    def add(self, guid, ap):
        self.ap[guid] = ap
        self.slot[guid] = len(self.order)
        self.order.append(guid)

    def remove(self, guid):
        i = self.slot.pop(guid)
        last = self.order.pop()
        if last != guid:
            self.order[i] = last
            self.slot[last] = i
        del self.ap[guid]

    def pick(self, rng, usable, tries=64):
        for _ in range(tries):
            guid = self.order[rng.below(len(self.order))]
            if usable(self.ap[guid]):
                return guid
        return None


class Workload:
    def __init__(self, name, seed, groups, probe_us):
        self.name = name
        self.seed = seed
        self.groups = groups
        self.probe_us = probe_us
        self.warmup_us = 0
        self.preload_spacing_us = 100
        self.window_us = 0
        self.settle_us = 0
        self.query = None  # (think_us, timeout_us, bms_every)
        self.preload = []
        self.ops = []  # (t_us, kind, subject, ap or None)
        self.live = Population()

    def group_of(self, guid):
        # rgb::core::member_groups with one group per member.
        return 1 + guid % self.groups

    def member_ops(self):
        return sum(1 for op in self.ops if op[1] in "JLHF")

    def truth(self):
        """Final (group, guid, AP index) triples, sorted."""
        return sorted((self.group_of(g), g, ap) for g, ap in self.live.ap.items())

    def schedule_text(self):
        lines = [
            "rgbbench 1",
            f"workload {self.name}",
            f"seed {self.seed}",
            f"layout {TIERS} {RING}",
            f"groups {self.groups}",
            f"probe_us {self.probe_us}",
            f"warmup_us {self.warmup_us}",
            f"preload_spacing_us {self.preload_spacing_us}",
            f"window_us {self.window_us}",
            f"settle_us {self.settle_us}",
        ]
        if self.query:
            lines.append("query %d %d %d" % self.query)
        lines += [f"P {g} {ap}" for g, ap in self.preload]
        for t, kind, subject, ap in self.ops:
            lines.append(f"O {t} {kind} {subject}" + ("" if ap is None else f" {ap}"))
        lines.append("end")
        return "\n".join(lines) + "\n"

    def add_preload(self, rng, count):
        for guid in range(1, count + 1):
            ap = rng.below(APS)
            self.preload.append((guid, ap))
            self.live.add(guid, ap)
        return count + 1  # next fresh guid


def churn_ops(w, rng, rate, mix, next_guid, crashes=()):
    """Open-loop Poisson churn over [0, w.window_us): `mix` maps op kind to
    weight. `crashes` lists (crash_us, recover_us, ap): at the crash the AP
    goes down and the members still attached to it are stranded (failed)
    with it. Ops keep clear of a crashing AP from GUARD_BEFORE_US before the
    crash until GUARD_AFTER_US after its recovery, so no op races the crash
    or the recovered AP's return to its ring. A draw with no usable member
    is skipped; the stream stays a function of the seed."""
    kinds = sorted(mix)
    total = float(sum(mix.values()))
    faults = sorted([(c, "C", ap) for c, _, ap in crashes] +
                    [(r, "R", ap) for _, r, ap in crashes])

    def usable(t, ap):
        return not any(a == ap and c - GUARD_BEFORE_US <= t <= r + GUARD_AFTER_US
                       for c, r, a in crashes)

    t = rng.exp_us(rate)
    while t < w.window_us or faults:
        while faults and (faults[0][0] <= t or t >= w.window_us):
            at, kind, ap = faults.pop(0)
            w.ops.append((at, kind, ap, None))
            if kind == "C":
                for guid in sorted(g for g, a in w.live.ap.items() if a == ap):
                    w.ops.append((at, "S", guid, None))
                    w.live.remove(guid)
        if t >= w.window_us:
            break
        r, kind = rng.uniform() * total, kinds[-1]
        for k in kinds:
            r -= mix[k]
            if r < 0:
                kind = k
                break
        if kind == "J":
            ap = rng.below(APS)
            if usable(t, ap):
                w.ops.append((t, "J", next_guid, ap))
                w.live.add(next_guid, ap)
                next_guid += 1
        elif len(w.live) > 0:
            guid = w.live.pick(rng, lambda a: usable(t, a))
            if guid is not None and kind == "H":
                ap = rng.below(APS)
                if usable(t, ap) and ap != w.live.ap[guid]:
                    w.ops.append((t, "H", guid, ap))
                    w.live.remove(guid)
                    w.live.add(guid, ap)
            elif guid is not None:
                w.ops.append((t, kind, guid, None))
                w.live.remove(guid)
        t += rng.exp_us(rate)
    return next_guid


def join_surge(seed, scale=1.0):
    """Preloaded population, then a flash crowd of joins; probing off, G=1."""
    rng = Rng(seed)
    w = Workload("join_surge", seed, groups=1, probe_us=0)
    w.preload_spacing_us = 50
    next_guid = w.add_preload(rng, int(2000 * scale))
    joins, rate = int(8000 * scale), 4000.0
    t = 0
    for _ in range(joins):
        t += rng.exp_us(rate)
        ap = rng.below(APS)
        w.ops.append((t, "J", next_guid, ap))
        w.live.add(next_guid, ap)
        next_guid += 1
    w.window_us = t + 1
    return w


def many_groups(seed, scale=1.0):
    """Hundreds of small groups on one hierarchy, probing on, low-rate
    Poisson churn spread over the groups."""
    rng = Rng(seed)
    groups = max(2, int(200 * scale))
    w = Workload("many_groups", seed, groups=groups, probe_us=250_000)
    w.preload_spacing_us = 200
    w.warmup_us = 2_000_000
    next_guid = w.add_preload(rng, groups * 20)
    w.window_us = int(10_000_000 * scale)
    w.settle_us = 3_000_000
    churn_ops(w, rng, rate=200.0,
              mix={"J": 30, "L": 25, "H": 30, "F": 15}, next_guid=next_guid)
    return w


def churn_query(seed, scale=1.0):
    """G=1 under a handoff-heavy Poisson mix, a closed-loop query client
    mixing TMS and BMS plans, and one scheduled AP crash and recovery every
    few seconds."""
    rng = Rng(seed)
    w = Workload("churn_query", seed, groups=1, probe_us=250_000)
    w.warmup_us = 2_000_000
    next_guid = w.add_preload(rng, int(1500 * scale))
    w.window_us = int(20_000_000 * scale)
    w.settle_us = 5_000_000
    w.query = (10_000, 1_000_000, 4)

    # Crash plan: a non-leader AP (ring position > 0, so no query plan ever
    # targets it) goes down for 2 s every 5 s.
    crashes = []
    for c in range(1_000_000, w.window_us - 3_000_000, 5_000_000):
        ap = rng.below(APS)
        if ap % RING == 0:
            ap += 1 + rng.below(RING - 1)
        crashes.append((c, c + 2_000_000, ap))
    churn_ops(w, rng, rate=150.0,
              mix={"H": 55, "J": 17, "L": 15, "F": 13},
              next_guid=next_guid, crashes=crashes)
    return w


WORKLOADS = {
    "join_surge": join_surge,
    "many_groups": many_groups,
    "churn_query": churn_query,
}
