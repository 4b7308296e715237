#!/usr/bin/env python3
"""Validate the committed BENCH_pipeline.json manifest.

A row earns its place in the manifest by being gated here or cited in
EXPERIMENTS.md; everything else a run of `tables` could measure belongs
to `benchmark/`, which measures the served path with exact samples.

Checks (all on the committed manifest — the CI tables run uses --quick,
which never overwrites the manifest, so this validates what a full
`cargo run --release -p sqo-bench --bin tables` wrote):

1. Every value is a positive finite number.
2. Every derived `speedup/<name>` entry has its `<name>` measurement
   row.
3. The E3 indexed-rewrite experiment is present, with all three rows:
   `e3/indexed_rewrite` (IC rewrite on the indexed engine),
   `e3/indexed_rewrite_baseline` (the original query, scan-only), and
   `e3/indexed_rewrite_seed` (the same rewrite on the scan-only engine).
4. `speedup/e3/indexed_rewrite` >= 10: the semantic rewrite must reach
   an indexed plan at least an order of magnitude faster than the
   original query's scan — the headline claim of the indexed engine.
5. The Step-3 search stays under twice the medians recorded when symbol
   names resolved without a lock, the duplicate index compared one flat
   token vector and provenance was shared instead of copied
   (EXPERIMENTS.md X11): `f2/step3_sqo_vs_applicable_ics/32` <= 0.41
   ms, `.../32_cold_context` (a context's first search, no warm
   structure memo) <= 1.02 ms, `.../12` <= 0.35 ms. Twice, because the
   shared box that records the rows has a fast and a slow state 1.7x
   apart. And the search stays flat in the number of applicable ICs:
   `.../64` <= 1.5 x `.../12` — per node, each further IC costs two
   summary reads and a shared gate, not a rendered comparison. It read
   1.0 to 1.27 over five recordings (2.25 before X7) and 1.40 to 1.48
   at X11 (1.48 recorded), where the per-node bookkeeping every IC count
   pays fell by about as much at 12 ICs as at 64: the ratio rose with no
   IC costing more, and has little headroom left.
6. The durable-store recovery row `store/recover_1m_objects` is present
   (refresh with `tables --store-recovery`) and under its 10 s budget:
   a cold open of a million-object store must load the snapshot and
   replay the WAL tail without an order-of-magnitude regression.
7. The EDB storage rows are present (refresh with `tables --edb`):
   `x1/edb_bytes_per_tuple/30000` <= 96 with every declared index built
   — the Datalog image of the 30 000-object served base holds every
   tuple once and no hash index holds a key (78.7 measured). The load
   stays linear: `x1/edb_build_ms/30000` + `x1/edb_index_all_ms/30000`
   <= 8 x the same sum at 6000. A rebuild builds no index and
   `edb_index_all_ms` is every declared index of a fresh EDB built once,
   by its first probe, so the sum is the whole load, indexes included.
   Five times the objects measure 6.5x to 6.8x (7.1x to 7.6x on a slow
   day of the shared box that recorded the rows; the larger image does
   not fit the cache); a load that is quadratic anywhere would measure
   25x. The rebuild alone is memory traffic and swings more with the
   hour (7.1x to 10.1x), so it is not gated by itself.
   `x1/edb_index_all_ms/30000` <= 2 x `x1/edb_build_ms/30000`: building
   the indexes stays of the order of the load (0.6x to 0.7x measured);
   a constant-factor regression of index construction would show here
   and nowhere else, since no rebuild pays it. `x1/edb_build_ms/*` is a
   full load (every relation built, as by the first read of an opened
   base or the first after a catalog change), timed side by side with
   the refresh row below.
   `x1/edb_refresh_ms/6000`, the refresh the first read after one
   `Student` create and one `takes` link pays (the two writes of a
   `write_read` cycle), <= 0.95 x `x1/edb_build_ms/6000`: those writes
   make stale the person, student and address relations with their
   extents, `takes`, `taken_by` and the ASR over `takes` — 0.84 to 0.92
   of the full load in seven runs (0.84 recorded) — and every other
   relation is shared. A write that made the whole EDB stale again
   would read 1.0. `tests/stale_relations.rs` pins which relations
   those two writes rebuild. And the refresh <= 7.674 ms, twice its
   recorded median (3.837 ms).
8. The in-process warm-hit rows are present (refresh with
   `tables --serve`): `serve/warm_hit` (`optimize_cached` on a request
   text the plan cache has finished) <= 3 226 ns, twice the recorded
   median — it read 20 773 ns while every hit parsed, ran Step 2 and
   diffed two whole-registry snapshots, 3 000 to 3 400 ns once the text
   decided the hit and the stats were a thread-local scope, and 1 587 to
   1 636 ns (five recordings; 2 700 in the box's slow state) since the
   counters are declared in name order and the scope's sorted map is
   built from sorted input (re-recorded at 2 086 ns with the compact
   writer, when the parent commit read 1 951 to 2 074 ns on the same
   box: its slower state, so the ceiling stays). `serve/warm_hit_obs_ns`
   (the rendered hit with `obs` on minus off) must be present; it is
   reported, not gated.
9. `serve/cold_reply_ns` (refresh with `tables --serve`): `write_json`
   of the report a 32-IC `cold_search` miss serves (64 equivalents,
   ~30 700 B), the least of 7 medians of 101 writes, <= 147 452 ns,
   twice the recorded median (73 726 ns; 93 507 ns at X9, on the box's
   slower state) — twice, because the shared box that records the rows
   has a fast and a slow state 1.7x apart. Pretty-printing the report
   and compacting it afterwards measured 217 to 224 us, 2.4x to 2.5x the
   single compact writer (EXPERIMENTS.md X9), so a second pass over the
   reply comes back as a failure here.
10. `serve/cold_miss_ns` (refresh with `tables --serve`):
   `optimize_cached` of a 32-IC `cold_search` rebind — the parse, Step 2,
   the search, Step 4 and the plan-cache store, not the reply — the
   least of 7 medians of 101 requests, <= 579 414 ns, twice the recorded
   median (289 707 ns; the parent commit read 440 to 489 us on the same
   box, EXPERIMENTS.md X11). A miss that copies its outcome into the
   cache again, or takes a lock per symbol name, comes back here first.
11. `x1/a2_execute_us/30000` (refresh with `tables --edb`): `execute`
   of the plan a served Application 2 request runs (`select x.name from
   x in Person where x.age < 25` under IC4: one range probe on `age`,
   4 068 names) on the 30 000-object base, answers dropped inside the
   timing, median of 301, <= 628.8 us, twice the recorded median
   (314.4 us, the median of 18 runs on a 2-vCPU box). The parent commit
   read 328 to 532 us alongside (EXPERIMENTS.md X13), inside the gate:
   it catches only a cost twice the recorded one, more than undoing the
   `Relation` answers and the folded row hash together adds.
12. `step3/a3_search_ns` (refresh with `tables --serve`): Step 3 of
   `benchmark/`'s `serve_exec` Application 3 template (the key join,
   whose join eliminations run the chase) under that session's
   constraint text, each search on a fresh context, the least of 7
   medians of 21 searches, <= 64.4 ms, twice the recorded median
   (32.2 ms; other runs of the same code read 21 to 36 ms on the shared
   box). A chase that matches the derived constraints as well as the
   written ones read 71 to 97 ms, and the parent commit's chase, which
   also fired every trigger, 154 to 242 ms (EXPERIMENTS.md X17).
13. No other row: every name is one a check above reads or one of
   `REPORT_ONLY` (rows EXPERIMENTS.md cites without a threshold). A row
   whose producer or reader is gone fails here instead of lingering.

Usage: python3 scripts/check_bench_manifest.py [path/to/BENCH_pipeline.json]
"""

import json
import math
import sys

E3_ROWS = (
    "e3/indexed_rewrite",
    "e3/indexed_rewrite_baseline",
    "e3/indexed_rewrite_seed",
)
E3_SPEEDUP_ROW = "speedup/e3/indexed_rewrite"
E3_MIN_SPEEDUP = 10.0

# Durable-store recovery: the million-object cold open (snapshot load +
# WAL-tail replay) must be present and inside a generous wall-clock
# budget — recovery measured at ~0.7 s; the 10 s ceiling catches
# order-of-magnitude regressions (e.g. per-record fsync or quadratic
# replay), not machine noise.
STORE_ROW = "store/recover_1m_objects"
STORE_MAX_RECOVER_NS = 10e9

# Step-3 search: (row, ceiling in ns) — twice the median recorded in
# EXPERIMENTS.md X11 — and the most the 64-IC search may cost over the
# 12-IC one.
STEP3_GATES = (
    ("f2/step3_sqo_vs_applicable_ics/32", 2 * 202_954),
    ("f2/step3_sqo_vs_applicable_ics/32_cold_context", 2 * 509_593),
    ("f2/step3_sqo_vs_applicable_ics/12", 2 * 172_211),
)
STEP3_WIDE_ROW = "f2/step3_sqo_vs_applicable_ics/64"
STEP3_NARROW_ROW = "f2/step3_sqo_vs_applicable_ics/12"
STEP3_MAX_IC_GROWTH = 1.5


# EDB storage: footprint ceiling at 30 000 objects, and the load —
# rebuild plus every declared index — at 30 000 objects against the load
# at 6 000 (5x the data).
EDB_BUILD_SMALL = "x1/edb_build_ms/6000"
EDB_BUILD_LARGE = "x1/edb_build_ms/30000"
EDB_INDEX_ALL_SMALL = "x1/edb_index_all_ms/6000"
EDB_INDEX_ALL_LARGE = "x1/edb_index_all_ms/30000"
EDB_BYTES_ROW = "x1/edb_bytes_per_tuple/30000"
EDB_REFRESH_ROW = "x1/edb_refresh_ms/6000"
EDB_ROWS = (
    EDB_REFRESH_ROW,
    EDB_BUILD_SMALL,
    EDB_BUILD_LARGE,
    EDB_INDEX_ALL_SMALL,
    EDB_INDEX_ALL_LARGE,
    EDB_BYTES_ROW,
)
EDB_MAX_BYTES_PER_TUPLE = 96.0
EDB_MAX_BUILD_GROWTH = 8.0
EDB_MAX_INDEX_ALL_SHARE = 2.0
EDB_MAX_REFRESH_SHARE = 0.95
EDB_REFRESH_MAX_MS = 2 * 3.837

# In-process warm hit: by request text (ceiling in ns), and what obs
# recording adds to the rendered hit.
WARM_HIT_ROW = "serve/warm_hit"
WARM_HIT_OBS_ROW = "serve/warm_hit_obs_ns"
WARM_HIT_MAX_NS = 2 * 1613.0

# A miss's reply, written once: the 32-IC cold_search report.
COLD_REPLY_ROW = "serve/cold_reply_ns"
COLD_REPLY_MAX_NS = 2 * 73_726.0

# A miss in process, reply aside: the 32-IC cold_search rebind.
COLD_MISS_ROW = "serve/cold_miss_ns"
COLD_MISS_MAX_NS = 2 * 289_707.0

# Application 2's chosen plan executed in process (us).
A2_EXECUTE_ROW = "x1/a2_execute_us/30000"
A2_EXECUTE_MAX_US = 2 * 314.4

# Step 3 of serve_exec's A3 template on a cold context.
A3_SEARCH_ROW = "step3/a3_search_ns"
A3_SEARCH_MAX_NS = 2 * 32_186_304.0

# Rows EXPERIMENTS.md cites and no check bounds: Example 1's residue
# attachment, refutation and compilation, and a 64-IC context's first
# search.
REPORT_ONLY = (
    "e1/attach_restriction",
    "e1/detect_contradiction",
    "e1/semantic_compilation/64",
    "f2/step3_sqo_vs_applicable_ics/64_cold_context",
)

KNOWN_ROWS = {
    *E3_ROWS,
    E3_SPEEDUP_ROW,
    *(row for row, _ in STEP3_GATES),
    STEP3_WIDE_ROW,
    STORE_ROW,
    *EDB_ROWS,
    WARM_HIT_ROW,
    WARM_HIT_OBS_ROW,
    COLD_REPLY_ROW,
    COLD_MISS_ROW,
    A2_EXECUTE_ROW,
    A3_SEARCH_ROW,
    *REPORT_ONLY,
}


def fail(msg: str) -> None:
    print(f"check_bench_manifest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_pipeline.json"
    with open(path, encoding="utf-8") as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict) or not manifest:
        fail("manifest must be a non-empty JSON object")

    for name, value in manifest.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"{name!r}: value {value!r} is not a number")
        if not math.isfinite(value) or value <= 0:
            fail(f"{name!r}: value {value!r} is not positive and finite")

    for name in manifest:
        row = name.removeprefix("speedup/")
        if row != name and row not in manifest:
            fail(f"{name!r} lacks its measurement row {row!r}")

    for row in E3_ROWS:
        if row not in manifest:
            fail(f"missing E3 row {row!r} — run the full (non-quick) tables binary")

    speedup = manifest.get(E3_SPEEDUP_ROW)
    if speedup is None:
        fail(f"missing derived row {E3_SPEEDUP_ROW!r}")
    if speedup < E3_MIN_SPEEDUP:
        fail(
            f"speedup/e3/indexed_rewrite = {speedup} < {E3_MIN_SPEEDUP}: the "
            "IC-introduced rewrite no longer reaches a plan >=10x faster than "
            "the original query's scan"
        )

    recover = manifest.get(STORE_ROW)
    if recover is None:
        fail(f"missing store row {STORE_ROW!r} — run the full tables binary "
             "or `tables --store-recovery`")
    if recover > STORE_MAX_RECOVER_NS:
        fail(
            f"{STORE_ROW} = {recover:.0f} ns exceeds "
            f"{STORE_MAX_RECOVER_NS:.0f} ns: cold recovery of a million-object "
            "store (snapshot load + WAL-tail replay) has regressed past the "
            "budget"
        )

    for row, ceiling in STEP3_GATES:
        if row not in manifest:
            fail(
                f"missing Step-3 row {row!r} — run the full (non-quick) "
                "tables binary"
            )
        if manifest[row] > ceiling:
            fail(
                f"{row} = {manifest[row]:.0f} ns exceeds {ceiling:.0f} ns: "
                "the Step-3 search costs more than twice what it did when "
                "a node's replay stopped rendering comparisons and re-solving "
                "bounds (EXPERIMENTS.md X7)"
            )
    if STEP3_WIDE_ROW not in manifest:
        fail(f"missing Step-3 row {STEP3_WIDE_ROW!r} — run the full "
             "(non-quick) tables binary")
    ic_growth = manifest[STEP3_WIDE_ROW] / manifest[STEP3_NARROW_ROW]
    if ic_growth > STEP3_MAX_IC_GROWTH:
        fail(
            f"{STEP3_WIDE_ROW} is {ic_growth:.2f}x {STEP3_NARROW_ROW} "
            f"(> {STEP3_MAX_IC_GROWTH}x): the search is no longer flat in "
            "the number of applicable ICs"
        )

    for row in EDB_ROWS:
        if row not in manifest:
            fail(f"missing EDB storage row {row!r} — run the full tables "
                 "binary or `tables --edb`")
    if manifest[EDB_BYTES_ROW] > EDB_MAX_BYTES_PER_TUPLE:
        fail(
            f"{EDB_BYTES_ROW} = {manifest[EDB_BYTES_ROW]} exceeds "
            f"{EDB_MAX_BYTES_PER_TUPLE}: the EDB, every declared index built, "
            "no longer holds each tuple once with keyless hash indexes"
        )
    load_small = manifest[EDB_BUILD_SMALL] + manifest[EDB_INDEX_ALL_SMALL]
    load_large = manifest[EDB_BUILD_LARGE] + manifest[EDB_INDEX_ALL_LARGE]
    growth = load_large / load_small
    if growth > EDB_MAX_BUILD_GROWTH:
        fail(
            f"{EDB_BUILD_LARGE} + {EDB_INDEX_ALL_LARGE} is {growth:.1f}x "
            f"{EDB_BUILD_SMALL} + {EDB_INDEX_ALL_SMALL} "
            f"(> {EDB_MAX_BUILD_GROWTH}x for 5x the objects): the EDB load "
            "is no longer linear"
        )
    index_share = manifest[EDB_INDEX_ALL_LARGE] / manifest[EDB_BUILD_LARGE]
    if index_share > EDB_MAX_INDEX_ALL_SHARE:
        fail(
            f"{EDB_INDEX_ALL_LARGE} is {index_share:.1f}x {EDB_BUILD_LARGE} "
            f"(> {EDB_MAX_INDEX_ALL_SHARE}x): building every declared index "
            "once costs more than the order of the rebuild"
        )

    refresh_share = manifest[EDB_REFRESH_ROW] / manifest[EDB_BUILD_SMALL]
    if refresh_share > EDB_MAX_REFRESH_SHARE:
        fail(
            f"{EDB_REFRESH_ROW} is {refresh_share:.2f}x {EDB_BUILD_SMALL} "
            f"(> {EDB_MAX_REFRESH_SHARE}x): a create and a link make more "
            "of the EDB stale than the relations they change"
        )
    if manifest[EDB_REFRESH_ROW] > EDB_REFRESH_MAX_MS:
        fail(
            f"{EDB_REFRESH_ROW} = {manifest[EDB_REFRESH_ROW]:.2f} ms exceeds "
            f"{EDB_REFRESH_MAX_MS:.2f} ms: the refresh after a create and a "
            "link costs more than twice its recorded median"
        )

    for row in (WARM_HIT_ROW, WARM_HIT_OBS_ROW):
        if row not in manifest:
            fail(f"missing warm-hit row {row!r} — run the full tables "
                 "binary or `tables --serve`")
    if manifest[WARM_HIT_ROW] > WARM_HIT_MAX_NS:
        fail(
            f"{WARM_HIT_ROW} = {manifest[WARM_HIT_ROW]:.0f} ns exceeds "
            f"{WARM_HIT_MAX_NS:.0f} ns: a verbatim repeat no longer skips "
            "the parse, Step 2 or the whole-registry stats, or its "
            "counters are sorted per request again"
        )

    cold_reply = manifest.get(COLD_REPLY_ROW)
    if cold_reply is None:
        fail(f"missing row {COLD_REPLY_ROW!r} — run the full tables binary "
             "or `tables --serve`")
    if cold_reply > COLD_REPLY_MAX_NS:
        fail(
            f"{COLD_REPLY_ROW} = {cold_reply:.0f} ns exceeds "
            f"{COLD_REPLY_MAX_NS:.0f} ns: writing a miss's report costs more "
            "than twice the single compact writer's recorded median — is "
            "the reply rendered twice again?"
        )

    cold_miss = manifest.get(COLD_MISS_ROW)
    if cold_miss is None:
        fail(f"missing row {COLD_MISS_ROW!r} — run the full tables binary "
             "or `tables --serve`")
    if cold_miss > COLD_MISS_MAX_NS:
        fail(
            f"{COLD_MISS_ROW} = {cold_miss:.0f} ns exceeds "
            f"{COLD_MISS_MAX_NS:.0f} ns: a 32-IC miss costs more than twice "
            "its recorded median in process — does the search copy what it "
            "could share, or the cache store the outcome again?"
        )

    a2_execute = manifest.get(A2_EXECUTE_ROW)
    if a2_execute is None:
        fail(f"missing row {A2_EXECUTE_ROW!r} — run the full tables binary "
             "or `tables --edb`")
    if a2_execute > A2_EXECUTE_MAX_US:
        fail(
            f"{A2_EXECUTE_ROW} = {a2_execute:.1f} us exceeds "
            f"{A2_EXECUTE_MAX_US:.1f} us: Application 2's answers cost more "
            "than twice their recorded median to execute — is each answer "
            "projected into a vector of its own again, or do the row "
            "table's slots cluster?"
        )

    a3_search = manifest.get(A3_SEARCH_ROW)
    if a3_search is None:
        fail(f"missing row {A3_SEARCH_ROW!r} — run the full tables binary "
             "or `tables --serve`")
    if a3_search > A3_SEARCH_MAX_NS:
        fail(
            f"{A3_SEARCH_ROW} = {a3_search:.0f} ns exceeds "
            f"{A3_SEARCH_MAX_NS:.0f} ns: Step 3 of the key-join template "
            "costs more than twice its recorded median — does the chase "
            "fire triggers whose head holds, or match the derived "
            "constraints, again?"
        )

    unknown = sorted(set(manifest) - KNOWN_ROWS)
    if unknown:
        fail(
            f"unknown row(s) {unknown}: a row stays only while a check here "
            "gates it or REPORT_ONLY lists it (with its EXPERIMENTS.md "
            "citation)"
        )

    step3 = ", ".join(
        f"{row.rsplit('/', 1)[-1]}: {manifest[row] / 1e6:.2f} ms"
        for row, _ in STEP3_GATES
    )
    print(
        f"check_bench_manifest: OK ({len(manifest)} rows; "
        f"step3 search by IC count {step3}, 64 ICs {ic_growth:.2f}x 12; "
        f"e3 indexed-rewrite speedup {speedup}x; "
        f"warm hit {manifest[WARM_HIT_ROW]:.0f} ns, obs "
        f"{manifest[WARM_HIT_OBS_ROW]:.0f} ns; cold miss {cold_miss:.0f} ns, "
        f"reply {cold_reply:.0f} ns; A3 search {a3_search / 1e6:.2f} ms; "
        f"A2 execute {a2_execute:.1f} us; "
        f"1m-object recovery {recover / 1e6:.0f} ms; "
        f"EDB {manifest[EDB_BYTES_ROW]:.0f} B/tuple, rebuild "
        f"{manifest[EDB_BUILD_SMALL]:.1f} -> {manifest[EDB_BUILD_LARGE]:.1f} ms "
        f"at 6 000 -> 30 000 objects, every index "
        f"{manifest[EDB_INDEX_ALL_SMALL]:.1f} -> "
        f"{manifest[EDB_INDEX_ALL_LARGE]:.1f} ms, refresh "
        f"{manifest[EDB_REFRESH_ROW]:.1f} ms = {refresh_share:.2f}x the load "
        "at 6 000)"
    )


if __name__ == "__main__":
    main()
