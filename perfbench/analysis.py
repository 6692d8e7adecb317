"""Reduce a bbb_perfbench result document to the benchmark's metrics.

Stdlib only. Everything here is pure arithmetic over the document the
C++ runner bbb_perfbench prints, so it is unit-tested directly
(test_perfbench.py):

  * quartiles / medians of per-call samples (the end-to-end metrics);
  * span self time: a span's duration minus the part of its interval its
    child spans cover (children may overlap: the union counts once);
  * the per-layer metrics derived from the traced run's spans.
"""

import statistics

# Every metric the benchmark reports, with its unit. BENCHMARK.json lists
# the same names and units (test_perfbench.py checks they agree).
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "rng.word_ns": "ns",
    "rng.uniform_below_ns": "ns",
    "bin_state.add_ns.compact": "ns",
    "bin_state.add_ns.wide": "ns",
    "bin_state.remove_ns.wide": "ns",
    "bin_state.construct_s": "s",
    "rule.place_one_ns.greedy2.compact": "ns",
    "rule.place_one_ns.adaptive.wide": "ns",
    "rule.probes_per_ball.adaptive": "count",
    "batch_kernel.place_batch_ns": "ns",
    "batch_kernel.fast_share": "ratio",
    "lookahead.discarded_words": "count",
    "sim.run_replicate_ns_per_ball": "ns",
    "sim.driver_ns_per_ball": "ns",
    "sim.compute_metrics_s": "s",
    "sim.replicate_s.p50": "s",
    "sim.replicate_s.max": "s",
    "par.efficiency": "ratio",
    "par.idle_s": "s",
    "dyn.workload_next_ns": "ns",
    "dyn.place_ns": "ns",
    "dyn.remove_ns": "ns",
    "dyn.engine_ns_per_event": "ns",
    "shard.ops_per_s.t1": "1/s",
    "shard.ops_per_s.t2": "1/s",
    "shard.ops_per_s.t4": "1/s",
    "shard.messages_per_ball": "count",
    "shard.cross_shard_share": "ratio",
    "shard.deferred_share": "ratio",
    "obs.overhead": "ratio",
    "layer.residual_share": "ratio",
}

ECHO_FIELDS = ("max_load", "gap", "psi", "psi_per_bin")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them.

    A single sample is its own quartiles; an empty list is an error.
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values):
    return quartiles(values)[1]


def union_length(intervals):
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def duration_ns(span):
    return span["end_ns"] - span["start_ns"]


def self_time_ns(span, children):
    """`span`'s duration minus the part of its interval `children` cover."""
    lo, hi = span["start_ns"], span["end_ns"]
    clipped = [(max(c["start_ns"], lo), min(c["end_ns"], hi)) for c in children]
    return duration_ns(span) - union_length(clipped)


class SpanIndex:
    """The spans of one traced run, by name and by parent."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.children = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def self_ns(self, span):
        return self_time_ns(span, self.children.get(span["id"], []))

    def ns_per_op(self, name):
        """Summed self time over summed work count of every `name` span."""
        spans = self.named(name)
        count = sum(s["count"] for s in spans)
        if not spans or count == 0:
            raise KeyError("no work recorded for span '%s'" % name)
        return sum(self.self_ns(s) for s in spans) / count

    def attr_sum(self, name, attr):
        return sum(s["attrs"].get(attr, 0.0) for s in self.named(name))

    def median_s(self, name):
        spans = self.named(name)
        if not spans:
            raise KeyError("no span '%s'" % name)
        return median([duration_ns(s) / 1e9 for s in spans])


def e2e_metrics(doc):
    """End-to-end metrics of an untraced run: {name: value} plus a report
    dict with quartiles and sample counts."""
    rates = [c["ops"] / c["wall_s"] for c in doc["calls"]]
    ops = quartiles(rates)
    setup = quartiles(doc["setup_s"])
    metrics = {
        "ops_per_s": ops[1],
        "setup_s": setup[1],
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    report = {
        "ops_per_s": (ops, len(rates)),
        "setup_s": (setup, len(doc["setup_s"])),
    }
    return metrics, report


def layer_metrics(doc):
    """Per-layer metrics of a traced run, and the layer chain the residual
    is taken over: a list of (layer, ns per op) that sums to the isolated
    single-thread replicate's ns per op."""
    idx = SpanIndex(doc["spans"])
    m = {}
    word = m["rng.word_ns"] = idx.ns_per_op("rng.word")
    ub = m["rng.uniform_below_ns"] = idx.ns_per_op("rng.uniform_below")
    add_c = m["bin_state.add_ns.compact"] = idx.ns_per_op("bin_state.add.compact")
    add_w = m["bin_state.add_ns.wide"] = idx.ns_per_op("bin_state.add.wide")
    m["bin_state.remove_ns.wide"] = idx.ns_per_op("bin_state.remove.wide")
    m["bin_state.construct_s"] = idx.median_s("bin_state.construct")

    p1_greedy = m["rule.place_one_ns.greedy2.compact"] = idx.ns_per_op(
        "rule.place_one.greedy2.compact")
    p1_adaptive = m["rule.place_one_ns.adaptive.wide"] = idx.ns_per_op(
        "rule.place_one.adaptive.wide")
    adaptive_balls = sum(s["count"] for s in idx.named("rule.place_one.adaptive.wide"))
    probes = m["rule.probes_per_ball.adaptive"] = (
        idx.attr_sum("rule.place_one.adaptive.wide", "probes") / adaptive_balls)

    batch = m["batch_kernel.place_batch_ns"] = idx.ns_per_op("batch_kernel.place_batch")
    fast = idx.attr_sum("batch_kernel.place_batch", "fast_balls")
    fallback = idx.attr_sum("batch_kernel.place_batch", "fallback_balls")
    m["batch_kernel.fast_share"] = fast / (fast + fallback) if fast + fallback else 0.0
    m["lookahead.discarded_words"] = doc["counters"]["lookahead_discarded_words"]

    (rep_span,) = idx.named("sim.run_replicate")
    replicate = m["sim.run_replicate_ns_per_ball"] = idx.ns_per_op("sim.run_replicate")
    bare_is_batch = rep_span["attrs"].get("bare_loop_is_batch", 1.0) == 1.0
    bare = batch if bare_is_batch else p1_adaptive
    driver = m["sim.driver_ns_per_ball"] = replicate - bare
    m["sim.compute_metrics_s"] = idx.median_s("sim.compute_metrics")

    rep_s = [duration_ns(s) / 1e9 for s in idx.named("workload.replicate")]
    m["sim.replicate_s.p50"] = median(rep_s)
    m["sim.replicate_s.max"] = max(rep_s)

    busy = capacity = 0.0
    fans = idx.named("par.parallel_map")
    for fan in fans:
        threads = fan["attrs"]["threads"]
        capacity += threads * duration_ns(fan)
        busy += sum(duration_ns(c) for c in idx.children.get(fan["id"], [])
                    if c["name"] == "workload.replicate")
    m["par.efficiency"] = busy / capacity
    m["par.idle_s"] = (capacity - busy) / len(fans) / 1e9

    nxt = m["dyn.workload_next_ns"] = idx.ns_per_op("dyn.workload_next")
    place = m["dyn.place_ns"] = idx.ns_per_op("dyn.place")
    remove = m["dyn.remove_ns"] = idx.ns_per_op("dyn.remove")
    (dyn_span,) = idx.named("dyn.run_dynamic_replicate")
    event = idx.ns_per_op("dyn.run_dynamic_replicate")
    arrivals = dyn_span["attrs"]["arrivals"] / dyn_span["count"]
    departures = dyn_span["attrs"]["departures"] / dyn_span["count"]
    engine = m["dyn.engine_ns_per_event"] = (
        event - nxt - arrivals * place - departures * remove)

    shard_runs = sorted(idx.named("shard.run"), key=lambda s: s["attrs"]["shards"])
    for s in shard_runs:
        m["shard.ops_per_s.t%d" % s["attrs"]["shards"]] = s["count"] / duration_ns(s) * 1e9
    widest = shard_runs[-1]["attrs"]
    m["shard.messages_per_ball"] = widest["messages"] / max(widest["balls"], 1.0)
    m["shard.cross_shard_share"] = widest["cross_shard_probes"] / max(widest["probes"], 1.0)
    m["shard.deferred_share"] = widest["deferred_balls"] / max(widest["balls"], 1.0)

    calls = idx.named("e2e.call")
    untraced = [c for c in calls if c["attrs"]["traced"] == 0.0]
    traced = [c for c in calls if c["attrs"]["traced"] == 1.0]
    rate = lambda spans: sum(s["count"] for s in spans) / sum(duration_ns(s) for s in spans)
    m["obs.overhead"] = rate(untraced) / rate(traced) - 1.0

    # The chain telescopes to the isolated replicate's ns per op; the
    # residual is what that single-thread cost leaves unexplained in the
    # end-to-end per-thread cost (fan-out, contention, imbalance).
    if doc["tier"] == "dyn":
        chain = [
            ("dyn workload next", nxt),
            ("dyn place (arrival share)", arrivals * place),
            ("dyn remove (departure share)", departures * remove),
            ("dyn engine residual", engine),
        ]
    elif bare_is_batch:
        chain = [
            ("rng raw word x2", 2 * word),
            ("Lemire map x2", 2 * (ub - word)),
            ("add_ball compact", add_c),
            ("place_one decision", p1_greedy - 2 * ub - add_c),
            ("place_batch vs place_one", batch - p1_greedy),
            ("sim driver", driver),
        ]
    else:
        chain = [
            ("rng raw word x probes", probes * word),
            ("Lemire map x probes", probes * (ub - word)),
            ("add_ball wide", add_w),
            ("place_one decision", p1_adaptive - probes * ub - add_w),
            ("sim driver", driver),
        ]
    threads = untraced[0]["attrs"]["threads"]
    e2e_ns_per_op = threads / rate(untraced)
    m["layer.residual_share"] = 1.0 - sum(ns for _, ns in chain) / e2e_ns_per_op
    return m, chain, e2e_ns_per_op


def check_pins(doc, pins, default_seed):
    """Compare the replicate-0 echo against the pins for this workload and
    size class. Returns (status, mismatches); status is 'match',
    'mismatch', or 'unpinned' (other seed, or no pin recorded)."""
    if doc["seed"] != default_seed:
        return "unpinned", []
    pinned = pins.get("smoke" if doc["smoke"] else "full", {}).get(doc["workload"])
    if pinned is None:
        return "unpinned", []
    bad = ["%s: got %r, pinned %r" % (k, doc["echo"][k], pinned[k])
           for k in ECHO_FIELDS if doc["echo"][k] != pinned[k]]
    return ("mismatch" if bad else "match"), bad
