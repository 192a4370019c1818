#!/usr/bin/env python3
"""Validate hardsim telemetry outputs (CI smoke check).

Checks, using nothing but the standard library:

  - a hard.stats.v1 document (--stats):    schema tag, hierarchical
    group shape, required machine groups, counter types
  - a hard.intervals.v1 series (--intervals): header line, declared
    probes present in every row, strictly increasing cycles
  - a Chrome/Perfetto trace_event file (--trace): traceEvents array,
    required per-event keys, category vocabulary, non-negative
    timestamps/durations
  - a hard.batch.v2 document (--batch [--expect-stats]
    [--expect-explain]): schema tag and, with --expect-stats, an
    embedded hard.stats.v1 block per run plus baseStats/hardStats on
    every measured overhead unit; with --expect-explain, a per-run
    divergence-attribution block plus a per-item aggregate
  - a hard.explain.v1 document (--explain [--expect-no-unknown]):
    schema tag, provenance-chain event vocabulary, divergence
    direction/category vocabulary, and category counts consistent
    with the divergence list
  - a trace-cache stats document (--cache-stats): hard.stats.v1 with
    a 'traceCache' group (no machine groups — fast mode never builds
    a machine), non-negative counters, hit/miss bookkeeping
  - a hard.campaign.v1 report (--campaign): schema tag, final state,
    every unit accounted for exactly once with a valid outcome (no
    unit lost, duplicated, or left pending), quarantine list
    consistent with per-unit outcomes, shard bookkeeping balanced
  - a traced perfbench/run.py output (--bench [--min-speedup X]): the
    run is correct, and sim.run_ns_per_op / trace.decode_ns_per_event
    (simulating an op vs replaying an event) meets the floor
  - a hard.profile.v1 wall-clock profile (--profile): schema tag
    (unknown versions rejected), non-negative totals, a well-formed
    phase tree, non-negative counters; also accepts a batch/fuzz
    document carrying an embedded 'profile' block
  - a hard.campaign.status.v1 live status file (--campaign-status):
    schema tag (unknown versions rejected), state vocabulary, unit
    tallies summing to the total, throughput/rates/shard bookkeeping,
    and — when present — the detection-report telemetry block
  - a hard.frontier.v1 overhead-vs-latency frontier (--frontier
    [--min-points N]): schema tag (unknown versions rejected), swept
    points sorted by strictly decreasing sampling rate, per-detector
    coverage/latency sanity, overhead-leg bookkeeping, and monotone
    non-increasing metadata bus traffic as the rate drops (the
    structural signal that sampling sheds overhead; overheadPct
    itself is timing-noisy at small scales and only sanity-checked)

Exits non-zero with a per-file report on the first structural problem.
"""

import argparse
import json
import sys

MACHINE_GROUPS = ("bus", "l2", "memsys", "system")
TRACE_PHASES = {"X", "i", "M"}
TRACE_CATEGORIES = {"mem", "coherence", "detector", "sync"}
PROV_KINDS = {"narrow", "exact-narrow", "report", "meta-loss",
              "refetch", "broadcast", "flash-reset"}
DIVERGENCE_CATEGORIES = ("bloom-aliasing", "counter-saturation",
                         "metadata-eviction", "barrier-reset",
                         "granularity", "rwlock-mode-blind", "unknown")
EXPLAIN_SUBJECTS = {"hard", "ideal-lockset"}


def fail(msg):
    raise SystemExit(f"check_telemetry: {msg}")


def check_stats_doc(doc, where):
    if doc.get("schema") != "hard.stats.v1":
        fail(f"{where}: schema is {doc.get('schema')!r}, "
             "expected 'hard.stats.v1'")
    groups = doc.get("groups")
    if not isinstance(groups, dict) or not groups:
        fail(f"{where}: missing or empty 'groups'")
    for name in MACHINE_GROUPS:
        if name not in groups:
            fail(f"{where}: machine group {name!r} missing "
                 f"(have {sorted(groups)})")
    for name, group in groups.items():
        if not isinstance(group, dict):
            fail(f"{where}: group {name!r} is not an object")
        for stat, value in group.get("counters", {}).items():
            if not isinstance(value, int) or value < 0:
                fail(f"{where}: counter {name}.{stat} is {value!r}")
        for stat, hist in group.get("histograms", {}).items():
            if sum(hist["buckets"]) != hist["count"]:
                fail(f"{where}: histogram {name}.{stat} bucket sum "
                     f"{sum(hist['buckets'])} != count {hist['count']}")


def check_stats(path):
    with open(path) as f:
        check_stats_doc(json.load(f), path)
    print(f"ok: {path} (hard.stats.v1)")


def check_intervals(path):
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    if len(lines) < 2:
        fail(f"{path}: expected a header and at least one row")
    header, rows = lines[0], lines[1:]
    if header.get("schema") != "hard.intervals.v1":
        fail(f"{path}: header schema is {header.get('schema')!r}")
    if not isinstance(header.get("interval"), int) or header["interval"] <= 0:
        fail(f"{path}: bad interval {header.get('interval')!r}")
    probes = [p["name"] for p in header.get("probes", [])]
    if not probes:
        fail(f"{path}: header declares no probes")
    prev = -1
    for i, row in enumerate(rows):
        cycle = row.get("cycle")
        if not isinstance(cycle, int) or cycle <= prev:
            fail(f"{path}: row {i}: cycle {cycle!r} not increasing "
                 f"(prev {prev})")
        prev = cycle
        for name in probes:
            if name not in row:
                fail(f"{path}: row {i}: probe {name!r} missing")
    print(f"ok: {path} (hard.intervals.v1, {len(rows)} rows)")


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: missing or empty 'traceEvents'")
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph not in TRACE_PHASES:
            fail(f"{path}: event {i}: unknown phase {ph!r}")
        for key in ("name", "pid", "tid"):
            if key not in e:
                fail(f"{path}: event {i}: missing {key!r}")
        if ph == "M":
            continue
        if e.get("cat") not in TRACE_CATEGORIES:
            fail(f"{path}: event {i}: unknown category {e.get('cat')!r}")
        if e.get("ts", -1) < 0:
            fail(f"{path}: event {i}: bad ts {e.get('ts')!r}")
        if ph == "X" and e.get("dur", -1) < 0:
            fail(f"{path}: event {i}: complete event without dur")
    print(f"ok: {path} (trace_event, {len(events)} events)")


def check_attribution(block, where):
    """Validate one {extra, missing, categories} attribution block."""
    for key in ("extra", "missing"):
        if not isinstance(block.get(key), int) or block[key] < 0:
            fail(f"{where}: bad attribution {key!r}: "
                 f"{block.get(key)!r}")
    cats = block.get("categories")
    if not isinstance(cats, dict):
        fail(f"{where}: attribution has no 'categories' object")
    for name, count in cats.items():
        if not isinstance(count, int) or count < 0:
            fail(f"{where}: category {name!r} count is {count!r}")
    total = block["extra"] + block["missing"]
    if sum(cats.values()) != total:
        fail(f"{where}: category counts sum to {sum(cats.values())}, "
             f"expected extra+missing = {total}")


def check_explain_doc(doc, where, expect_no_unknown):
    if doc.get("schema") != "hard.explain.v1":
        fail(f"{where}: schema is {doc.get('schema')!r}, "
             "expected 'hard.explain.v1'")
    if doc.get("subject") not in EXPLAIN_SUBJECTS:
        fail(f"{where}: unknown subject {doc.get('subject')!r}")
    cfg = doc.get("config")
    if not isinstance(cfg, dict) or "granularityBytes" not in cfg:
        fail(f"{where}: missing config.granularityBytes")
    if not isinstance(doc.get("events"), int) or doc["events"] < 0:
        fail(f"{where}: bad 'events' {doc.get('events')!r}")
    reports = doc.get("reports")
    if not isinstance(reports, list):
        fail(f"{where}: 'reports' is not an array")
    for i, rep in enumerate(reports):
        for key in ("addr", "site", "tid", "write", "at", "chain"):
            if key not in rep:
                fail(f"{where}: report {i}: missing {key!r}")
        for j, ev in enumerate(rep["chain"]):
            if ev.get("kind") not in PROV_KINDS:
                fail(f"{where}: report {i} chain {j}: unknown kind "
                     f"{ev.get('kind')!r}")
            if not isinstance(ev.get("at"), int) or ev["at"] < 0:
                fail(f"{where}: report {i} chain {j}: bad 'at'")
    div = doc.get("divergence")
    if not isinstance(div, dict):
        fail(f"{where}: missing 'divergence' block")
    check_attribution(div, f"{where}:divergence")
    cats = div["categories"]
    if sorted(cats) != sorted(DIVERGENCE_CATEGORIES):
        fail(f"{where}: category vocabulary {sorted(cats)} != "
             f"{sorted(DIVERGENCE_CATEGORIES)}")
    entries = div.get("divergences")
    if not isinstance(entries, list):
        fail(f"{where}: 'divergences' is not an array")
    if len(entries) != div["extra"] + div["missing"]:
        fail(f"{where}: {len(entries)} divergence entries but "
             f"extra+missing = {div['extra'] + div['missing']}")
    for i, d in enumerate(entries):
        if d.get("direction") not in ("extra", "missing"):
            fail(f"{where}: divergence {i}: bad direction "
                 f"{d.get('direction')!r}")
        if d.get("category") not in DIVERGENCE_CATEGORIES:
            fail(f"{where}: divergence {i}: unknown category "
                 f"{d.get('category')!r}")
        if not d.get("evidence"):
            fail(f"{where}: divergence {i}: empty evidence")
    if expect_no_unknown and cats.get("unknown", 0) != 0:
        fail(f"{where}: {cats['unknown']} divergence(s) attributed to "
             "'unknown' (expected a fully attributed run)")


def check_explain(path, expect_no_unknown):
    with open(path) as f:
        doc = json.load(f)
    check_explain_doc(doc, path, expect_no_unknown)
    div = doc["divergence"]
    print(f"ok: {path} (hard.explain.v1, {len(doc['reports'])} reports, "
          f"{div['extra']} extra / {div['missing']} missing attributed)")


CACHE_COUNTERS = ("hits", "misses", "stores", "evictedCorrupt",
                  "evictedStale", "evictedOrphan", "collisions")


def check_cache_stats(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "hard.stats.v1":
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             "expected 'hard.stats.v1'")
    group = doc.get("groups", {}).get("traceCache")
    if not isinstance(group, dict):
        fail(f"{path}: no 'traceCache' group "
             f"(have {sorted(doc.get('groups', {}))})")
    counters = group.get("counters", {})
    for name in CACHE_COUNTERS:
        value = counters.get(name)
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: traceCache.{name} is {value!r}")
    lookups = counters["hits"] + counters["misses"]
    rate = group.get("formulas", {}).get("hitRate")
    if lookups and not (isinstance(rate, (int, float))
                        and 0.0 <= rate <= 1.0):
        fail(f"{path}: hitRate {rate!r} not in [0, 1]")
    # Every eviction and collision is also counted as a miss —
    # except orphan sweeps, which reclaim temp files on open, before
    # any lookup happens.
    buckets = (counters["evictedCorrupt"] + counters["evictedStale"]
               + counters["collisions"])
    if buckets > counters["misses"]:
        fail(f"{path}: {buckets} evictions/collisions exceed "
             f"{counters['misses']} misses")
    print(f"ok: {path} (traceCache: {counters['hits']} hits, "
          f"{counters['misses']} misses, {counters['stores']} stores)")


CAMPAIGN_OUTCOMES = {"completed", "restored", "quarantined"}
CAMPAIGN_COUNTERS = ("shardsSpawned", "shardExitsOk", "shardCrashes",
                     "shardStalls", "retries", "restored",
                     "injectedCrashes")


def check_campaign(path):
    """Validate a final hard.campaign.v1 report: complete, every unit
    accounted for exactly once, quarantine list consistent, shard
    bookkeeping balanced."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "hard.campaign.v1":
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             "expected 'hard.campaign.v1'")
    if not doc.get("signature"):
        fail(f"{path}: missing or empty 'signature'")
    if doc.get("state") != "complete":
        fail(f"{path}: state is {doc.get('state')!r} — the campaign "
             "did not finish (interrupted supervisor?)")
    if not isinstance(doc.get("shards"), int) or doc["shards"] <= 0:
        fail(f"{path}: bad 'shards' {doc.get('shards')!r}")
    units = doc.get("units")
    if not isinstance(units, list) or not units:
        fail(f"{path}: missing or empty 'units'")
    if doc.get("unitsTotal") != len(units):
        fail(f"{path}: unitsTotal {doc.get('unitsTotal')!r} != "
             f"{len(units)} listed units")
    seen = set()
    quarantined_units = set()
    for i, u in enumerate(units):
        key = (u.get("item"), u.get("run"))
        if not isinstance(key[0], int) or not isinstance(key[1], int):
            fail(f"{path}: unit {i}: bad identity {key!r}")
        if key in seen:
            fail(f"{path}: unit {key} listed twice — a unit was "
                 "duplicated in the merge")
        seen.add(key)
        outcome = u.get("outcome")
        if outcome not in CAMPAIGN_OUTCOMES:
            fail(f"{path}: unit {key}: outcome {outcome!r} not in "
                 f"{sorted(CAMPAIGN_OUTCOMES)} — 'pending' in a final "
                 "report means the unit was lost")
        if outcome == "quarantined":
            quarantined_units.add(key)
            if not isinstance(u.get("attempts"), int) or u["attempts"] < 1:
                fail(f"{path}: quarantined unit {key}: bad attempts "
                     f"{u.get('attempts')!r}")
    listed = {(q.get("item"), q.get("run"))
              for q in doc.get("quarantined", [])}
    if listed != quarantined_units:
        fail(f"{path}: 'quarantined' list {sorted(listed)} != units "
             f"with quarantined outcome {sorted(quarantined_units)}")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail(f"{path}: missing 'counters'")
    for name in CAMPAIGN_COUNTERS:
        value = counters.get(name)
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counters.{name} is {value!r}")
    reaped = counters["shardExitsOk"] + counters["shardCrashes"]
    if reaped != counters["shardsSpawned"]:
        fail(f"{path}: {counters['shardsSpawned']} shards spawned but "
             f"{reaped} reaped")
    if counters["shardStalls"] > counters["shardCrashes"]:
        fail(f"{path}: {counters['shardStalls']} stalls exceed "
             f"{counters['shardCrashes']} crashes")
    print(f"ok: {path} (hard.campaign.v1, {len(units)} units, "
          f"{counters['shardsSpawned']} shards, "
          f"{counters['retries']} retries, "
          f"{len(quarantined_units)} quarantined)")


def check_bench(path, min_speedup):
    # The last line of a traced perfbench/run.py run. Fast mode's floor:
    # simulating an op must cost min_speedup times decoding an event.
    with open(path) as f:
        doc = json.loads(f.read().strip().splitlines()[-1])
    if not doc.get("correct"):
        fail(f"{path}: perfbench run is not correct")
    metrics = doc["metrics"]
    speedup = (metrics["sim.run_ns_per_op"]["value"]
               / metrics["trace.decode_ns_per_event"]["value"])
    if min_speedup is not None and speedup < min_speedup:
        fail(f"{path}: sim/decode {speedup:.1f}x below the "
             f"{min_speedup}x floor")
    print(f"ok: {path} (perfbench, sim/decode {speedup:.1f}x)")


def check_profile_doc(doc, where):
    """Validate a hard.profile.v1 wall-clock profile: schema tag,
    non-negative totals, a well-formed phase tree, and non-negative
    counters. Unknown schema versions are rejected outright — a
    reader that guesses at a future layout would misreport."""
    schema = doc.get("schema")
    if schema != "hard.profile.v1":
        fail(f"{where}: profile schema is {schema!r}, expected "
             "'hard.profile.v1' — unknown or future profile version; "
             "refusing to guess at its layout")
    for field in ("wallSeconds", "cpuSeconds"):
        val = doc.get(field)
        if not isinstance(val, (int, float)) or val < 0:
            fail(f"{where}: {field} is {val!r}")
    peak = doc.get("peakRssBytes")
    if not isinstance(peak, int) or peak < 0:
        fail(f"{where}: peakRssBytes is {peak!r}")

    phase_count = 0

    def walk(node, prefix):
        nonlocal phase_count
        if not isinstance(node, dict):
            fail(f"{where}: phase tree node {prefix!r} is not an object")
        for name, child in node.items():
            path = f"{prefix}.{name}" if prefix else name
            if not isinstance(child, dict):
                fail(f"{where}: phase {path!r} is not an object")
            timed = "calls" in child
            if not timed and "phases" not in child:
                fail(f"{where}: phase {path!r} carries neither timings "
                     "nor children")
            if timed:
                phase_count += 1
                calls = child.get("calls")
                if not isinstance(calls, int) or calls < 1:
                    fail(f"{where}: phase {path!r} calls is {calls!r}")
                for field in ("wallSeconds", "cpuSeconds"):
                    val = child.get(field)
                    if not isinstance(val, (int, float)) or val < 0:
                        fail(f"{where}: phase {path!r} {field} is "
                             f"{val!r}")
            if "phases" in child:
                walk(child["phases"], path)

    phases = doc.get("phases")
    if not isinstance(phases, dict):
        fail(f"{where}: missing 'phases' object")
    walk(phases, "")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail(f"{where}: missing 'counters' object")
    for name, value in counters.items():
        if not isinstance(value, int) or value < 0:
            fail(f"{where}: counter {name!r} is {value!r}")
    return phase_count, len(counters)


def check_profile(path):
    """Validate a wall-clock profile: either a standalone
    hard.profile.v1 file or the 'profile' block embedded in a
    hard.batch.v2 / hard.fuzz.v1 document."""
    with open(path) as f:
        doc = json.load(f)
    where = path
    if doc.get("schema") in ("hard.batch.v2", "hard.fuzz.v1"):
        if "profile" not in doc:
            fail(f"{path}: {doc['schema']} document has no embedded "
                 "'profile' block (was the sweep run with --profile?)")
        doc = doc["profile"]
        where = f"{path}:profile"
    phases, counters = check_profile_doc(doc, where)
    print(f"ok: {path} (hard.profile.v1, {phases} timed phases, "
          f"{counters} counters)")


CAMPAIGN_STATUS_STATES = {"running", "complete"}


def check_campaign_status(path):
    """Validate a hard.campaign.status.v1 live status document:
    schema tag, state vocabulary, unit tallies that sum to the total,
    sane throughput/rates, and per-shard bookkeeping. Unknown schema
    versions are rejected with a clear message."""
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if schema != "hard.campaign.status.v1":
        fail(f"{path}: status schema is {schema!r}, expected "
             "'hard.campaign.status.v1' — unknown or future status "
             "version; refusing to guess at its layout")
    if not doc.get("signature"):
        fail(f"{path}: missing or empty 'signature'")
    state = doc.get("state")
    if state not in CAMPAIGN_STATUS_STATES:
        fail(f"{path}: state {state!r} not in "
             f"{sorted(CAMPAIGN_STATUS_STATES)}")
    seq = doc.get("sequence")
    if not isinstance(seq, int) or seq < 1:
        fail(f"{path}: sequence is {seq!r} (must be >= 1)")
    elapsed = doc.get("elapsedSeconds")
    if not isinstance(elapsed, (int, float)) or elapsed < 0:
        fail(f"{path}: elapsedSeconds is {elapsed!r}")
    units = doc.get("units")
    if not isinstance(units, dict):
        fail(f"{path}: missing 'units' object")
    tallies = {}
    for field in ("total", "pending", "inFlight", "completed",
                  "restored", "quarantined"):
        val = units.get(field)
        if not isinstance(val, int) or val < 0:
            fail(f"{path}: units.{field} is {val!r}")
        tallies[field] = val
    summed = sum(v for k, v in tallies.items() if k != "total")
    if summed != tallies["total"]:
        fail(f"{path}: unit tallies sum to {summed}, "
             f"total says {tallies['total']} — a unit was lost or "
             "double-counted")
    if state == "complete" and (tallies["pending"] or
                                tallies["inFlight"]):
        fail(f"{path}: state 'complete' but {tallies['pending']} "
             f"pending / {tallies['inFlight']} in-flight units remain")
    tp = doc.get("throughput")
    if not isinstance(tp, dict):
        fail(f"{path}: missing 'throughput' object")
    for field in ("unitsDone", "unitsPerSec"):
        val = tp.get(field)
        if not isinstance(val, (int, float)) or val < 0:
            fail(f"{path}: throughput.{field} is {val!r}")
    if "etaSeconds" in tp:
        eta = tp["etaSeconds"]
        if not isinstance(eta, (int, float)) or eta < 0:
            fail(f"{path}: throughput.etaSeconds is {eta!r}")
    rates = doc.get("rates")
    if not isinstance(rates, dict):
        fail(f"{path}: missing 'rates' object")
    for field in ("retryRate", "quarantineRate"):
        val = rates.get(field)
        if not isinstance(val, (int, float)) or not 0 <= val:
            fail(f"{path}: rates.{field} is {val!r}")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail(f"{path}: missing 'counters'")
    for name in CAMPAIGN_COUNTERS:
        value = counters.get(name)
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counters.{name} is {value!r}")
    rep = doc.get("reports")
    if rep is not None:
        if not isinstance(rep, dict):
            fail(f"{path}: 'reports' is not an object")
        total = rep.get("total")
        if not isinstance(total, int) or total < 0:
            fail(f"{path}: reports.total is {total!r}")
        per_sec = rep.get("perSec")
        if not isinstance(per_sec, (int, float)) or per_sec < 0:
            fail(f"{path}: reports.perSec is {per_sec!r}")
        if "lastAgeSeconds" in rep:
            age = rep["lastAgeSeconds"]
            if not isinstance(age, (int, float)) or age < 0:
                fail(f"{path}: reports.lastAgeSeconds is {age!r}")
            if total == 0:
                fail(f"{path}: reports.lastAgeSeconds present but "
                     "reports.total is 0")
    shards = doc.get("shards")
    if not isinstance(shards, list):
        fail(f"{path}: missing 'shards' array")
    for i, sh in enumerate(shards):
        assigned = sh.get("assigned")
        done = sh.get("done")
        if not isinstance(assigned, int) or assigned < 0:
            fail(f"{path}: shard {i}: assigned is {assigned!r}")
        if not isinstance(done, int) or not 0 <= done <= assigned:
            fail(f"{path}: shard {i}: done {done!r} outside "
                 f"[0, {assigned}]")
        if not isinstance(sh.get("stalled"), bool):
            fail(f"{path}: shard {i}: stalled is "
                 f"{sh.get('stalled')!r}")
        if "reports" in sh:
            val = sh["reports"]
            if not isinstance(val, int) or val < 0:
                fail(f"{path}: shard {i}: reports is {val!r}")
    print(f"ok: {path} (hard.campaign.status.v1, {state}, seq {seq}, "
          f"{tallies['total']} units, {len(shards)} live shards)")


FRONTIER_SAMPLE_MODES = {"granule", "epoch"}


def check_frontier(path, min_points):
    """Validate a hard.frontier.v1 overhead-vs-latency frontier: the
    swept points must be sorted by strictly decreasing sampling rate,
    every point carries per-detector effectiveness/latency blocks and
    an overhead-leg block, and the metadata bus traffic of successful
    overhead legs is monotone non-increasing as the rate drops — the
    structural evidence that duty-cycling the detector sheds overhead.
    (overheadPct itself is timing-noisy at small scales: gating
    metadata charges perturbs interleavings. It is only
    sanity-checked.) Unknown schema versions are rejected."""
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if schema != "hard.frontier.v1":
        fail(f"{path}: frontier schema is {schema!r}, expected "
             "'hard.frontier.v1' — unknown or future frontier version; "
             "refusing to guess at its layout")
    if not doc.get("workload"):
        fail(f"{path}: missing or empty 'workload'")
    if not doc.get("execMode"):
        fail(f"{path}: missing or empty 'execMode'")
    if doc.get("sampleMode") not in FRONTIER_SAMPLE_MODES:
        fail(f"{path}: sampleMode {doc.get('sampleMode')!r} not in "
             f"{sorted(FRONTIER_SAMPLE_MODES)}")
    for field in ("sampleSeed", "samplePeriod", "granuleBytes",
                  "runs", "seed0"):
        val = doc.get(field)
        if not isinstance(val, int) or val < 0:
            fail(f"{path}: {field} is {val!r}")
    for field in ("samplePeriod", "granuleBytes", "runs"):
        if doc[field] == 0:
            fail(f"{path}: {field} must be positive")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        fail(f"{path}: missing or empty 'points'")
    if len(points) < min_points:
        fail(f"{path}: {len(points)} frontier point(s), expected at "
             f"least {min_points}")
    prev_rate = None
    prev_meta = None  # (rate, metaBytes) of the last ok overhead leg
    for i, pt in enumerate(points):
        rate = pt.get("rate")
        if not isinstance(rate, (int, float)) or not 0 < rate <= 1:
            fail(f"{path}: point {i}: rate {rate!r} outside (0, 1]")
        if prev_rate is not None and rate >= prev_rate:
            fail(f"{path}: point {i}: rate {rate} not strictly below "
                 f"the previous point's {prev_rate} — points must be "
                 "sorted by decreasing rate")
        prev_rate = rate
        detectors = pt.get("detectors")
        if not isinstance(detectors, dict) or not detectors:
            fail(f"{path}: point {i}: missing or empty 'detectors'")
        for name, d in detectors.items():
            where = f"{path}: point {i} detector {name!r}"
            for field in ("injected", "detected", "falseAlarms",
                          "dynamicReports"):
                val = d.get(field)
                if not isinstance(val, int) or val < 0:
                    fail(f"{where}: {field} is {val!r}")
            if d["detected"] > d["injected"]:
                fail(f"{where}: detected {d['detected']} exceeds "
                     f"injected {d['injected']}")
            cov = d.get("coverage")
            if not isinstance(cov, (int, float)) or not 0 <= cov <= 1:
                fail(f"{where}: coverage {cov!r} outside [0, 1]")
            lat = d.get("latency")
            if not isinstance(lat, dict):
                fail(f"{where}: missing 'latency' block")
            samples = lat.get("samples")
            if not isinstance(samples, int) or samples < 0:
                fail(f"{where}: latency.samples is {samples!r}")
            exposures = lat.get("exposures")
            if not isinstance(exposures, int) or exposures < 0:
                fail(f"{where}: latency.exposures is {exposures!r}")
            for field in ("meanCycles", "p50Cycles", "maxCycles"):
                val = lat.get(field)
                if not isinstance(val, (int, float)):
                    fail(f"{where}: latency.{field} is {val!r}")
                # -1 is the no-samples sentinel; with samples the
                # aggregates must be real non-negative latencies.
                if samples > 0 and val < 0:
                    fail(f"{where}: latency.{field} is {val!r} with "
                         f"{samples} sample(s)")
                if samples == 0 and val != -1:
                    fail(f"{where}: latency.{field} is {val!r} but "
                         "there are no samples (expected -1 sentinel)")
            if (samples > 0
                    and not lat["p50Cycles"] <= lat["maxCycles"]):
                fail(f"{where}: latency p50 {lat['p50Cycles']} exceeds "
                     f"max {lat['maxCycles']}")
        oh = pt.get("overhead")
        if oh is None:
            continue
        where = f"{path}: point {i} overhead"
        outcome = oh.get("outcome")
        if not isinstance(outcome, str) or not outcome:
            fail(f"{where}: bad outcome {outcome!r}")
        for field in ("metaBroadcasts", "metaBytes", "dataBytes",
                      "baseCycles", "hardCycles"):
            val = oh.get(field)
            if not isinstance(val, int) or val < 0:
                fail(f"{where}: {field} is {val!r}")
        for field in ("overheadPct", "busOccupancyPct",
                      "reportsPerMcycle"):
            val = oh.get(field)
            if not isinstance(val, (int, float)):
                fail(f"{where}: {field} is {val!r}")
        if not 0 <= oh["busOccupancyPct"] <= 100:
            fail(f"{where}: busOccupancyPct {oh['busOccupancyPct']} "
                 "outside [0, 100]")
        if oh["reportsPerMcycle"] < 0:
            fail(f"{where}: negative reportsPerMcycle "
                 f"{oh['reportsPerMcycle']}")
        if outcome != "ok":
            continue
        if oh["baseCycles"] == 0 or oh["hardCycles"] == 0:
            fail(f"{where}: outcome ok but zero cycle counts")
        if prev_meta is not None and oh["metaBytes"] > prev_meta[1]:
            fail(f"{path}: point {i}: metaBytes {oh['metaBytes']} at "
                 f"rate {rate} exceeds {prev_meta[1]} at the higher "
                 f"rate {prev_meta[0]} — sampling down must not "
                 "increase metadata bus traffic")
        prev_meta = (rate, oh["metaBytes"])
    print(f"ok: {path} (hard.frontier.v1, {doc['workload']}, "
          f"{len(points)} points, rates {points[0]['rate']}"
          f"..{points[-1]['rate']})")


def check_batch(path, expect_stats, expect_explain=False):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "hard.batch.v2":
        fail(f"{path}: schema is {doc.get('schema')!r}")
    if expect_stats:
        hs = doc.get("harnessStats", {})
        if hs.get("schema") != "hard.stats.v1":
            fail(f"{path}: harnessStats schema is {hs.get('schema')!r}")
        if "harness" not in hs.get("groups", {}):
            fail(f"{path}: harnessStats has no 'harness' group")
    runs = overheads = attributions = 0
    for item in doc.get("items", []):
        per_run = item.get("effectiveness", {}).get("perRun", [])
        for run in per_run:
            runs += 1
            if run.get("outcome", "ok") != "ok":
                continue
            if expect_stats:
                if "stats" not in run:
                    fail(f"{path}: {item['label']} run {run['index']}: "
                         "no embedded stats block")
                check_stats_doc(run["stats"],
                                f"{path}:{item['label']}:{run['index']}")
            if expect_explain:
                if "explain" not in run:
                    fail(f"{path}: {item['label']} run {run['index']}: "
                         "no explain attribution block")
                check_attribution(
                    run["explain"],
                    f"{path}:{item['label']}:{run['index']}:explain")
        if expect_explain and per_run:
            if "attribution" not in item:
                fail(f"{path}: {item['label']}: no per-item "
                     "'attribution' aggregate")
            agg = item["attribution"]
            check_attribution(agg, f"{path}:{item['label']}:attribution")
            if sorted(agg["categories"]) != sorted(DIVERGENCE_CATEGORIES):
                fail(f"{path}: {item['label']}: attribution category "
                     f"vocabulary {sorted(agg['categories'])} != "
                     f"{sorted(DIVERGENCE_CATEGORIES)}")
            attributions += 1
        oh = item.get("overhead")
        if oh is not None and oh.get("outcome") == "ok":
            overheads += 1
            if expect_stats:
                for key in ("baseStats", "hardStats"):
                    if key not in oh:
                        fail(f"{path}: {item['label']} overhead: "
                             f"no {key}")
                    check_stats_doc(oh[key],
                                    f"{path}:{item['label']}:{key}")
    if expect_explain and attributions == 0:
        fail(f"{path}: --expect-explain but no item carries "
             "effectiveness runs with attribution")
    print(f"ok: {path} (hard.batch.v2, {runs} runs, "
          f"{overheads} overhead units"
          f"{', stats embedded' if expect_stats else ''}"
          f"{', attribution embedded' if expect_explain else ''})")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--stats", action="append", default=[],
                    help="hard.stats.v1 JSON file")
    ap.add_argument("--intervals", action="append", default=[],
                    help="hard.intervals.v1 JSONL file")
    ap.add_argument("--trace", action="append", default=[],
                    help="trace_event JSON file")
    ap.add_argument("--batch", action="append", default=[],
                    help="hard.batch.v2 JSON file")
    ap.add_argument("--expect-stats", action="store_true",
                    help="require embedded stats blocks in --batch files")
    ap.add_argument("--expect-explain", action="store_true",
                    help="require per-run explain blocks and per-item "
                         "attribution aggregates in --batch files")
    ap.add_argument("--explain", action="append", default=[],
                    help="hard.explain.v1 JSON file")
    ap.add_argument("--expect-no-unknown", action="store_true",
                    help="fail if any --explain divergence is "
                         "attributed to 'unknown'")
    ap.add_argument("--cache-stats", action="append", default=[],
                    help="trace-cache hard.stats.v1 JSON file")
    ap.add_argument("--campaign", action="append", default=[],
                    help="hard.campaign.v1 report JSON file")
    ap.add_argument("--bench", action="append", default=[],
                    help="output of perfbench/run.py --trace 1")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="minimum sim/decode ratio --bench files "
                         "must show")
    ap.add_argument("--profile", action="append", default=[],
                    help="hard.profile.v1 JSON file, or a batch/fuzz "
                         "document with an embedded 'profile' block")
    ap.add_argument("--campaign-status", action="append", default=[],
                    help="hard.campaign.status.v1 live status JSON file")
    ap.add_argument("--frontier", action="append", default=[],
                    help="hard.frontier.v1 JSON file")
    ap.add_argument("--min-points", type=int, default=1,
                    help="minimum swept points --frontier files must "
                         "carry")
    args = ap.parse_args()
    if not (args.stats or args.intervals or args.trace or args.batch
            or args.explain or args.cache_stats or args.campaign
            or args.bench or args.profile or args.campaign_status
            or args.frontier):
        ap.error("nothing to check")
    for path in args.stats:
        check_stats(path)
    for path in args.intervals:
        check_intervals(path)
    for path in args.trace:
        check_trace(path)
    for path in args.batch:
        check_batch(path, args.expect_stats, args.expect_explain)
    for path in args.explain:
        check_explain(path, args.expect_no_unknown)
    for path in args.cache_stats:
        check_cache_stats(path)
    for path in args.campaign:
        check_campaign(path)
    for path in args.bench:
        check_bench(path, args.min_speedup)
    for path in args.profile:
        check_profile(path)
    for path in args.campaign_status:
        check_campaign_status(path)
    for path in args.frontier:
        check_frontier(path, args.min_points)


if __name__ == "__main__":
    sys.exit(main())
