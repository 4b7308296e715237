#!/usr/bin/env python3
"""Smoke-test `sqo serve`: concurrent mixed load over the wire.

Starts the server on an ephemeral port, fires >= 32 concurrent queries
(a parameterized cache-hit family, a second template, and one
contradiction), validates every response line against
schemas/serve.schema.json (and each embedded report against
schemas/explain.schema.json), then checks the metrics reply: cache hits
>= 1 and shed == 0. Exits nonzero on any failure or timeout.

The telemetry surface is exercised too: metrics must report latency
histogram quantiles for the request path and the pinned pipeline stages
with deterministically sorted keys; a query with trace:true must return
its deterministic trace id and ordered span events; and, because the
server runs with --slow-ms 0, every request lands in the slow-query log,
so the slowlog op must return well-formed entries and the --slowlog-path
file must hold the same JSON lines.

Every reply, pipelined line and slow-log sink line is parsed with a
hook that fails on a repeated object key (a JSON reader would keep one
value and drop the rest).

Stdlib only, mirroring check_explain_schema.py (whose validator it
reuses).

A second phase runs the service-layer differential check: 10 fuzz-emitted
schema/IC/query cases are prepared as wire sessions, each query is sent
twice (cold miss, then warm cache hit/rebind), and both wire reports must
agree verdict-for-verdict and rewrite-for-rewrite with a cold in-process
`sqo --schema ... --ic ... --explain` run of the same case.

A third phase checks pipelining: a warm family of requests is sent as
one TCP segment on a single connection, and the responses must come
back one per request, in request order, identical (modulo volatile
fields) to the same requests sent one at a time.

A repeat phase checks finished warm hits: on a session with bound data
the same executing query is sent four times (miss, hit, and two repeats
served from the plan cache's finished instance); the repeats must equal
the first hit modulo volatile fields, count as instance hits, and still
execute — a create between them changes the answer count.

A view phase checks that a view the attached data does not define is
never read as empty: a data session whose constraint text defines the
4-hop `asr` view, and a data session reloaded with a 2-hop one, must
answer their path queries with the data's own rows or `bad_request`,
never 0 rows.

A rewrite-only repeat phase checks what the serving loop answers
itself: a query that executes nothing is sent four times (miss, the hit
that finishes its instance, and two repeats of the finished text); the
repeats must equal the fill modulo volatile fields, validate against the
schemas, and raise plan_cache.instance_hits by exactly 2. A half-close
check sends a ping, shuts down the socket's write half, and must still
get the reply. Three lines that once overflowed a serving thread's
stack (60 000 `[`, a prepare whose ODL nests `set<` 50 000 deep, and a
query nesting method calls 5 000 deep) must each get an error reply and
leave the server answering pings.

A hostile-IC phase runs a server of its own with two workers: a session
prepared with IC H (a `takes` head over five chained `takes` atoms)
gets one 6-hop path query per worker, each of which must be answered
with its chase refused (`chase.budget_exhausted`), and a plain query on
the default session sent behind them with a 3 s deadline must be
answered ok.

A fourth phase smoke-tests durable-store crash recovery: a server
started with --store-path takes writes over the wire (create/link),
persists a snapshot, keeps writing so the WAL holds a tail, is killed
with SIGKILL, and is restarted from the same directory — the recovered
server must return the same executed answer count.

Usage: python3 scripts/serve_smoke.py [path/to/sqo]
"""

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_explain_schema import validate  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 60
N_CLIENTS = 33  # one contradiction + 32 mixed queries

IC4 = "ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).\n"
ASR_4HOP = ("asr(X, W) <- takes(X, Y), is_section_of(Y, Z), "
            "has_sections(Z, V), has_ta(V, W).")
PATH_4HOP = ("select w from x in Student y in x.takes z in y.is_section_of "
             "v in z.has_sections w in v.has_ta where x.name = \"student3\"")
ASR_2HOP = "asr(X, W) <- takes(X, Y), has_ta(Y, W)."
PATH_2HOP = ("select w from x in Student y in x.takes w in y.has_ta "
             "where x.name = \"student3\"")
IC_H = ("ic H: takes(X, Y) <- takes(X, A), takes(B, A), takes(B, C), "
        "takes(D, C), takes(D, Y).\n")


def load_schema(name):
    with open(os.path.join(REPO, "schemas", name)) as f:
        return json.load(f)


def fail(msg):
    print(f"serve_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def unique_keys(pairs):
    """`object_pairs_hook` that refuses a repeated key: a JSON reader
    keeps one value per key, so a repeat silently loses the others."""
    obj = {}
    for k, v in pairs:
        if k in obj:
            raise ValueError(f"duplicate JSON key {k!r} in {dict(pairs)}")
        obj[k] = v
    return obj


def loads(text):
    """Every JSON line the server (or `sqo`) writes is parsed here."""
    return json.loads(text, object_pairs_hook=unique_keys)


def request_raw(addr, line, timeout=TIMEOUT_S):
    """One request line -> the raw response line (undecoded JSON text)."""
    with socket.create_connection(addr, timeout=timeout) as s:
        s.sendall(line.encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return buf.decode()


def request(addr, line, timeout=TIMEOUT_S):
    """One request line -> one parsed response object."""
    return loads(request_raw(addr, line, timeout))


def check(value, schema, root, what):
    errors = []
    validate(value, schema, root, "$", errors)
    if errors:
        fail(f"{what} violates schema: " + "; ".join(errors[:5]))


def telemetry_checks(addr, serve_schema, slowlog_path):
    """Histogram quantiles, sorted metrics keys, traces, and the slowlog."""
    # A traced query: deterministic trace id, ordered span events.
    traced = request(addr, json.dumps(
        {"op": "query", "trace": True,
         "oql": "select x.name from x in Person where x.age < 24"}))
    check(traced, serve_schema, serve_schema, "traced query response")
    if not traced.get("ok"):
        fail(f"traced query failed: {traced}")
    tid = traced.get("trace_id", "")
    parts = tid.split(":")
    if len(parts) != 3 or parts[0] != "default" or not parts[2].isdigit():
        fail(f"trace_id {tid!r} is not session:generation:seq")
    events = traced.get("trace", [])
    if not events:
        fail("trace:true returned no span events")
    names = [e["name"] for e in events]
    if names[0] != "serve.admission_wait":
        fail(f"first span event should be the admission wait: {names}")
    for want in ("cache.lookup", "pipeline.optimize"):
        if want not in names:
            fail(f"span event {want!r} missing from trace: {names}")
    if any(e["dur_ns"] < 0 or e["start_ns"] < 0 for e in events):
        fail(f"span events carry negative timings: {events}")

    # Metrics: histogram quantiles for the request path and the pinned
    # stages, with deterministically sorted keys on the wire.
    metrics = request(addr, json.dumps({"op": "metrics"}))
    check(metrics, serve_schema, serve_schema, "telemetry metrics response")
    hist = metrics.get("hist", {})
    for key in ("serve.request", "serve.serialize", "serve.wait",
                "stage/cache.lookup", "stage/objdb.execute"):
        if key not in hist:
            fail(f"metrics hist lacks pinned series {key!r}: {sorted(hist)}")
    # Every answered query wrote its reply line once: `serve.serialize`
    # has a sample per `serve.request` sample that succeeded.
    for key in ("serve.request", "serve.serialize"):
        series = hist[key]
        if series["count"] < 1:
            fail(f"{key} histogram is empty: {series}")
        for p in ("p50", "p90", "p99", "max"):
            if not isinstance(series[p], (int, float)) or series[p] <= 0:
                fail(f"{key} {p} should be a positive sample: {series}")
    if "queue_depth_hwm" not in metrics:
        fail("metrics lacks queue_depth_hwm")
    # "Gave up" is told apart from "nothing more to find" by these
    # counters, and a first-probe index build from a slow plan by the last.
    for counter in (
        "search.budget_exhausted",
        "chase.budget_exhausted",
        "edb.index_builds",
    ):
        if counter not in metrics["stats"]["counters"]:
            fail(f"metrics counters lack {counter}")

    def assert_sorted(obj, what):
        keys = list(obj)
        if keys != sorted(keys):
            fail(f"{what} keys are not sorted: {keys}")

    # dict preserves insertion order, so these reflect the wire order.
    assert_sorted(metrics["hist"], "metrics hist")
    assert_sorted(metrics["stats"]["counters"], "metrics counters")
    assert_sorted(metrics["stats"]["hists"], "metrics stats.hists")

    # The slow-query log: --slow-ms 0 makes every request slow, so the
    # ring buffer and the sink file must both have entries by now.
    slowlog = request(addr, json.dumps({"op": "slowlog"}))
    check(slowlog, serve_schema, serve_schema, "slowlog response")
    if not slowlog.get("ok") or slowlog.get("count", 0) < 1:
        fail(f"slowlog should hold entries at --slow-ms 0: {slowlog}")
    entries = slowlog["entries"]
    if len(entries) != slowlog["count"]:
        fail(f"slowlog count {slowlog['count']} != entries {len(entries)}")
    for e in entries[:5]:
        if not e["stages"]:
            fail(f"slowlog entry lacks per-stage durations: {e}")
        if e["verdict"] not in ("contradiction", "equivalents"):
            fail(f"slowlog entry verdict malformed: {e}")
    with open(slowlog_path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        fail(f"slowlog sink {slowlog_path} is empty")
    for ln in lines:
        entry = loads(ln)
        if "trace_id" not in entry or "explain" not in entry:
            fail(f"slowlog sink line malformed: {ln}")
    return len(events), slowlog["count"]


def fuzz_differential(sqo, addr, serve_schema, explain_schema, n_cases=10):
    """Wire sessions vs cold in-process pipeline over fuzz-emitted cases.

    For each emitted case: `prepare` a session with its schema+ICs, send
    the query cold (cache miss) and warm (hit/rebind), and require both
    wire reports to match the verdict and rewritten-OQL list of a fresh
    `sqo --schema ... --ic ... --explain` run.
    """
    outdir = tempfile.mkdtemp(prefix="sqo_fuzz_cases_")
    try:
        emit = subprocess.run(
            [sqo, "fuzz", "--emit-cases", str(n_cases), "--out", outdir],
            capture_output=True, text=True, timeout=TIMEOUT_S)
        if emit.returncode != 0:
            fail(f"sqo fuzz --emit-cases failed: {emit.stderr}")
        for i in range(n_cases):
            base = os.path.join(outdir, f"case{i}")
            with open(base + ".odl") as f:
                odl = f.read()
            with open(base + ".ic") as f:
                ic = f.read()
            with open(base + ".oql") as f:
                oql = f.read().strip()

            # Cold in-process reference (exit 2 = contradiction, still ok).
            ref_run = subprocess.run(
                [sqo, "--schema", base + ".odl", "--ic", base + ".ic",
                 "--explain", oql],
                capture_output=True, text=True, timeout=TIMEOUT_S)
            if ref_run.returncode not in (0, 2):
                fail(f"fuzz case {i}: in-process run failed "
                     f"(rc {ref_run.returncode}): {ref_run.stderr}")
            ref = loads(ref_run.stdout)

            prep = request(addr, json.dumps(
                {"op": "prepare", "session": f"fuzz{i}", "schema": odl, "ic": ic}))
            check(prep, serve_schema, serve_schema, f"fuzz case {i} prepare")
            if not prep.get("ok"):
                fail(f"fuzz case {i}: prepare failed: {prep}")

            responses = []
            for phase in ("cold", "warm"):
                resp = request(addr, json.dumps(
                    {"op": "query", "session": f"fuzz{i}", "oql": oql,
                     "timeout_ms": 30000}))
                check(resp, serve_schema, serve_schema, f"fuzz case {i} {phase}")
                if not resp.get("ok"):
                    fail(f"fuzz case {i} {phase}: {resp}")
                responses.append((phase, resp))
            if responses[0][1].get("cache") != "miss":
                fail(f"fuzz case {i}: cold query should miss: {responses[0][1]}")
            if responses[1][1].get("cache") not in ("hit", "rebind"):
                fail(f"fuzz case {i}: warm query should hit/rebind: "
                     f"{responses[1][1]}")

            for phase, resp in responses:
                report = resp["report"]
                check(report, explain_schema, explain_schema,
                      f"fuzz case {i} {phase} report")
                if report["verdict"] != ref["verdict"]:
                    fail(f"fuzz case {i} {phase}: wire verdict "
                         f"{report['verdict']} != in-process {ref['verdict']}"
                         f" for {oql!r}")
                if report["verdict"] == "equivalents":
                    wire_oql = [e["oql"] for e in report["equivalents"]]
                    ref_oql = [e["oql"] for e in ref["equivalents"]]
                    if wire_oql != ref_oql:
                        fail(f"fuzz case {i} {phase}: wire rewrites diverge "
                             f"from in-process for {oql!r}:\n"
                             f"  wire: {wire_oql}\n  ref:  {ref_oql}")
        return n_cases
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def scrub(value):
    """Recursively drop the volatile fields (timings, trace ids, span
    stats) so two responses to the same request can be compared."""
    if isinstance(value, dict):
        return {k: scrub(v) for k, v in value.items()
                if k not in ("elapsed_us", "trace_id", "stats")}
    if isinstance(value, list):
        return [scrub(v) for v in value]
    return value


def pipelined_phase(addr, serve_schema):
    """N requests in one TCP segment -> N in-order responses, identical
    (modulo volatile fields) to one-at-a-time delivery.

    The request family is warmed first so both deliveries run fully
    warm and must report the same cache labels.
    """
    lines = [json.dumps(
        {"op": "query",
         "oql": f"select x.name from x in Person where x.age < {21 + i}"})
        for i in range(8)]
    lines.insert(4, json.dumps({"op": "ping"}))

    for ln in lines:  # warm every template
        request(addr, ln)
    sequential = [request(addr, ln) for ln in lines]

    with socket.create_connection(addr, timeout=TIMEOUT_S) as s:
        s.sendall(("\n".join(lines) + "\n").encode())
        f = s.makefile("rb")
        piped = [loads(f.readline()) for _ in lines]

    for i, (seq, pipe) in enumerate(zip(sequential, piped)):
        check(pipe, serve_schema, serve_schema, f"pipelined response {i}")
        if not pipe.get("ok"):
            fail(f"pipelined request {i} failed: {pipe}")
        if scrub(seq) != scrub(pipe):
            fail(f"pipelined response {i} diverged from one-at-a-time:\n"
                 f"  sequential: {json.dumps(scrub(seq))}\n"
                 f"  pipelined:  {json.dumps(scrub(pipe))}")
    return len(lines)


def repeat_phase(addr, serve_schema):
    """A repeated executing query is served from its finished instance:
    same bytes as the hit that filled it, answers still executed, and
    still so after its template was searched again for another region."""
    def instance_hits():
        metrics = request(addr, json.dumps({"op": "metrics"}))
        check(metrics, serve_schema, serve_schema, "repeat metrics")
        return metrics["stats"]["counters"]["plan_cache.instance_hits"]

    prep = request(addr, json.dumps(
        {"op": "prepare", "session": "repeat", "university": True,
         "data": True, "ic": IC4}))
    if not prep.get("ok"):
        fail(f"repeat: prepare failed: {prep}")
    line = json.dumps(
        {"op": "query", "session": "repeat", "execute": True,
         "oql": "select x.name from x in Student where x.age < 29"})
    miss, fill = request(addr, line), request(addr, line)
    if (miss.get("cache"), fill.get("cache")) != ("miss", "hit"):
        fail(f"repeat: expected miss then hit: {miss.get('cache')}, "
             f"{fill.get('cache')}")
    base = instance_hits()
    again = request(addr, line)
    check(again, serve_schema, serve_schema, "repeat response")
    if again.get("cache") != "hit" or scrub(again) != scrub(fill):
        fail(f"repeat: instance hit diverged from the hit that filled it:\n"
             f"  fill:   {json.dumps(scrub(fill))}\n"
             f"  repeat: {json.dumps(scrub(again))}")
    # 35 is across IC4's 30: the template is searched again for that
    # region, and the text finished in the old one keeps its instance.
    rebind = request(addr, json.dumps(
        {"op": "query", "session": "repeat", "execute": True,
         "oql": "select x.name from x in Student where x.age < 35"}))
    if rebind.get("cache") != "rebind":
        fail(f"repeat: x.age < 35 should rebind: {rebind.get('cache')}")
    before_kept = instance_hits()
    kept = request(addr, line)
    if kept.get("cache") != "hit" or scrub(kept) != scrub(fill):
        fail(f"repeat: a finished text diverged after its template rebound:\n"
             f"  fill: {json.dumps(scrub(fill))}\n"
             f"  kept: {json.dumps(scrub(kept))}")
    if instance_hits() != before_kept + 1:
        fail("repeat: the text asked after a rebind should be an instance hit")
    created = request(addr, json.dumps(
        {"op": "create", "session": "repeat", "class": "Student",
         "attrs": {"name": "repeat-smoke", "age": 20}}))
    if not created.get("ok"):
        fail(f"repeat: create failed: {created}")
    after = request(addr, line)
    if after.get("cache") != "hit" or after.get("answers") != fill["answers"] + 1:
        fail(f"repeat: the repeat after a create must execute again: "
             f"{fill.get('answers')} answers before, {after}")
    if instance_hits() != base + 3:
        fail("repeat: all three repeats should count as "
             "plan_cache.instance_hits")
    return after["answers"]


def view_phase(addr, serve_schema):
    """A session's view that the attached data does not define: the
    optimizer may fold a path into it, but an executing query must answer
    the data's rows or `bad_request` naming the view, never 0 rows."""
    def prepare(session, ic=None):
        req = {"op": "prepare", "session": session, "university": True,
               "data": True}
        if ic is not None:
            req["ic"] = ic
        reply = request(addr, json.dumps(req))
        if not reply.get("ok"):
            fail(f"views: prepare {session} failed: {reply}")

    def execute(session, oql):
        reply = request(addr, json.dumps(
            {"op": "query", "session": session, "execute": True, "oql": oql}))
        check(reply, serve_schema, serve_schema, f"views {session} reply")
        return reply

    def rows_or_refused(reply, want, what):
        if reply.get("ok"):
            if reply.get("answers") != want:
                fail(f"views: {what} answered {reply.get('answers')} rows, "
                     f"the data holds {want}")
            return
        error = reply.get("error", {})
        if error.get("kind") != "bad_request" or "`asr`" not in error.get(
                "message", ""):
            fail(f"views: {what} should be refused naming `asr`: {reply}")

    prepare("views_plain")
    want_4hop = execute("views_plain", PATH_4HOP).get("answers")
    want_2hop = execute("views_plain", PATH_2HOP).get("answers")
    if not want_4hop or not want_2hop:
        fail(f"views: the plain session should answer rows: "
             f"{want_4hop}, {want_2hop}")
    prepare("views_prepared", ASR_4HOP)
    rows_or_refused(execute("views_prepared", PATH_4HOP), want_4hop,
                    "a 4-hop path under a prepared view")
    prepare("views_reloaded")
    if execute("views_reloaded", PATH_2HOP).get("answers") != want_2hop:
        fail("views: the session to reload should answer like the plain one")
    reload = request(addr, json.dumps(
        {"op": "reload_ic", "session": "views_reloaded", "ic": ASR_2HOP}))
    if not reload.get("ok"):
        fail(f"views: reload_ic failed: {reload}")
    rows_or_refused(execute("views_reloaded", PATH_2HOP), want_2hop,
                    "a 2-hop path after reload_ic")
    return 2


def rewrite_only_repeat_phase(addr, serve_schema, explain_schema):
    """Repeats of a finished rewrite-only text, which the serving loop
    answers without the pool: the same reply as the fill, counted as
    instance hits."""
    def instance_hits():
        metrics = request(addr, json.dumps({"op": "metrics"}))
        check(metrics, serve_schema, serve_schema, "rewrite-only metrics")
        return metrics["stats"]["counters"]["plan_cache.instance_hits"]

    line = json.dumps(
        {"op": "query", "oql": "select x.age from x in Person where x.age < 26"})
    miss, fill = request(addr, line), request(addr, line)
    if (miss.get("cache"), fill.get("cache")) != ("miss", "hit"):
        fail(f"rewrite-only: expected miss then hit: {miss.get('cache')}, "
             f"{fill.get('cache')}")
    base = instance_hits()
    for i in range(2):
        again = request(addr, line)
        check(again, serve_schema, serve_schema, f"rewrite-only repeat {i}")
        check(again.get("report"), explain_schema, explain_schema,
              f"rewrite-only repeat {i} report")
        if again.get("cache") != "hit" or scrub(again) != scrub(fill):
            fail(f"rewrite-only: repeat {i} diverged from the fill:\n"
                 f"  fill:   {json.dumps(scrub(fill))}\n"
                 f"  repeat: {json.dumps(scrub(again))}")
    if instance_hits() != base + 2:
        fail("rewrite-only: two repeats should be two plan_cache.instance_hits")
    return 2


def half_close_check(addr, serve_schema):
    """A client that shuts down its write half after a request (the
    `printf ... | nc -N` pattern) still gets the reply."""
    with socket.create_connection(addr, timeout=TIMEOUT_S) as s:
        s.sendall(b'{"op":"ping"}\n')
        s.shutdown(socket.SHUT_WR)
        f = s.makefile("rb")
        reply = f.readline()
        if not reply:
            fail("half-close: no reply to a ping sent before SHUT_WR")
        pong = loads(reply)
        check(pong, serve_schema, serve_schema, "half-close ping")
        if pong.get("op") != "ping" or f.readline():
            fail(f"half-close: want one ping reply, then the end: {pong}")


def hostile_lines_check(addr, serve_schema):
    """Lines that once overflowed the serving thread's stack, which
    aborts the process: each must get a schema-valid error reply, and a
    ping must be answered after it."""
    deep_set = "set<" * 50_000 + "long" + ">" * 50_000
    deep_call = "x.m(" * 5_000 + "1" + ")" * 5_000
    lines = [
        ("60 000 '['", "[" * 60_000, "bad_request"),
        ("a prepare nesting set< 50 000 deep", json.dumps(
            {"op": "prepare", "session": "deep",
             "schema": f"interface C {{ attribute {deep_set} a; }};"}),
         "bad_request"),
        ("a query nesting method calls 5 000 deep", json.dumps(
            {"op": "query", "oql": "select x.name from x in Person "
             f"where x.age = {deep_call}"}),
         "optimize_error"),
    ]
    for what, line, want in lines:
        raw = request_raw(addr, line)
        if not raw:
            fail(f"hostile line ({what}): the server closed without a reply")
        reply = loads(raw)
        check(reply, serve_schema, serve_schema, f"hostile line ({what})")
        if reply.get("ok") or reply["error"]["kind"] != want:
            fail(f"hostile line ({what}): want {want}, got {reply}")
        pong = request(addr, json.dumps({"op": "ping"}))
        check(pong, serve_schema, serve_schema, f"ping after {what}")
        if not pong.get("ok"):
            fail(f"ping after hostile line ({what}): {pong}")
    return len(lines)


def path_query(hops):
    """A Student/takes/taken_by path of `hops` sections."""
    binds = ["s1 in Student", "c1 in s1.takes"]
    for i in range(2, hops + 1):
        binds += [f"s{i} in c{i - 1}.taken_by", f"c{i} in s{i}.takes"]
    return "select s1.name from " + " ".join(binds)


def hostile_ic_phase(sqo, serve_schema):
    """An IC whose body chains five `takes` atoms makes the chase that
    validates a join elimination match a product of the facts it
    derives. Two 6-hop queries under it, one per worker, must each be
    answered with the chase refused, and must leave the pool free for a
    plain query with a 3 s deadline."""
    proc = subprocess.Popen(
        [sqo, "serve", "--university", "--addr", "127.0.0.1:0",
         "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        if not line:
            fail("hostile IC: server did not announce a listening address")
        host, port = loads(line)["listening"].rsplit(":", 1)
        addr = (host, int(port))
        prep = request(addr, json.dumps(
            {"op": "prepare", "session": "hostile", "university": True,
             "ic": IC_H}))
        if not prep.get("ok"):
            fail(f"hostile IC: prepare failed: {prep}")
        replies = [None, None]

        def hostile(i):
            try:
                replies[i] = request(addr, json.dumps(
                    {"op": "query", "session": "hostile",
                     "oql": path_query(6)}))
            except Exception as e:  # noqa: BLE001 - reported below
                replies[i] = e

        threads = [threading.Thread(target=hostile, args=(i,), daemon=True)
                   for i in range(len(replies))]
        for t in threads:
            t.start()
        time.sleep(0.1)  # both reach a worker before the plain query
        plain = request(addr, json.dumps(
            {"op": "query", "timeout_ms": 3000,
             "oql": "select x.name from x in Person where x.age < 30"}))
        check(plain, serve_schema, serve_schema, "hostile IC plain query")
        if not plain.get("ok"):
            fail(f"hostile IC: the plain query behind two 6-hop queries "
                 f"under IC H was not answered: {plain}")
        for t in threads:
            t.join(TIMEOUT_S)
        for i, reply in enumerate(replies):
            if not isinstance(reply, dict):
                fail(f"hostile IC: 6-hop query {i}: {reply}")
            check(reply, serve_schema, serve_schema, f"hostile IC query {i}")
            counters = reply.get("report", {}).get("stats", {}).get("counters", {})
            if not reply.get("ok") or counters.get("chase.budget_exhausted", 0) < 1:
                fail(f"hostile IC: 6-hop query {i} should be answered with "
                     f"its chase refused: {reply}")
        bye = request(addr, json.dumps({"op": "shutdown"}))
        check(bye, serve_schema, serve_schema, "hostile IC shutdown")
        proc.wait(timeout=TIMEOUT_S)
        return len(replies)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def recovery_phase(sqo, serve_schema):
    """Durable-store crash recovery over the wire.

    Starts a second server with --store-path on a fresh directory, writes
    objects and a relationship over the wire, forces a snapshot with
    persist, keeps writing so the WAL holds a tail past the snapshot,
    then SIGKILLs the process (no shutdown handshake) and restarts from
    the same directory: the recovered server must return the same answer
    count for the same executed query.
    """
    store_dir = tempfile.mkdtemp(prefix="sqo_smoke_store_")
    q_students = json.dumps(
        {"op": "query", "oql": "select x.name from x in Student",
         "execute": True})

    def start():
        p = subprocess.Popen(
            [sqo, "serve", "--university", "--addr", "127.0.0.1:0",
             "--workers", "2", "--queue", "16", "--store-path", store_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = p.stdout.readline()
        if not line:
            fail("recovery: server did not announce a listening address")
        host, port = loads(line)["listening"].rsplit(":", 1)
        return p, (host, int(port))

    proc = None
    try:
        proc, addr = start()
        oids = []
        for w in (
            {"op": "create", "class": "Student",
             "attrs": {"name": "ada", "age": 21}},
            {"op": "create", "class": "Student",
             "attrs": {"name": "bob", "age": 23}},
            {"op": "create", "class": "Section", "attrs": {"number": "s1"}},
        ):
            resp = request(addr, json.dumps(w))
            check(resp, serve_schema, serve_schema, "recovery create")
            if not resp.get("ok") or "oid" not in resp:
                fail(f"recovery: create failed: {resp}")
            oids.append(resp["oid"])
        link = request(addr, json.dumps(
            {"op": "link", "from": oids[0], "rel": "takes", "to": oids[2]}))
        check(link, serve_schema, serve_schema, "recovery link")
        if not link.get("ok"):
            fail(f"recovery: link failed: {link}")
        persist = request(addr, json.dumps({"op": "persist"}))
        check(persist, serve_schema, serve_schema, "recovery persist")
        if not persist.get("ok") or persist.get("snapshot_bytes", 0) <= 0:
            fail(f"recovery: persist should write a snapshot: {persist}")
        # A write after the snapshot: recovery must replay the WAL tail,
        # not just load the snapshot.
        tail = request(addr, json.dumps(
            {"op": "create", "class": "Student",
             "attrs": {"name": "tail", "age": 25}}))
        if not tail.get("ok"):
            fail(f"recovery: post-snapshot create failed: {tail}")
        before = request(addr, q_students)
        check(before, serve_schema, serve_schema, "recovery pre-kill query")
        if not before.get("ok") or before.get("answers") != 3:
            fail(f"recovery: expected 3 students before the kill: {before}")

        # Crash hard: SIGKILL, no shutdown handshake, no final sync.
        proc.kill()
        proc.wait(timeout=TIMEOUT_S)

        proc, addr = start()
        after = request(addr, q_students)
        check(after, serve_schema, serve_schema, "recovery post-kill query")
        if not after.get("ok") or after.get("answers") != before["answers"]:
            fail(f"recovery: answers diverged across the crash: "
                 f"{before.get('answers')} before vs {after} after")
        metrics = request(addr, json.dumps({"op": "metrics"}))
        check(metrics, serve_schema, serve_schema, "recovery metrics")
        gens = [s["store_generation"] for s in metrics.get("sessions", [])]
        if not any(g > 0 for g in gens):
            fail(f"recovery: recovered store generation should be > 0: {gens}")
        bye = request(addr, json.dumps({"op": "shutdown"}))
        check(bye, serve_schema, serve_schema, "recovery shutdown")
        proc.wait(timeout=TIMEOUT_S)
        return after["answers"]
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(store_dir, ignore_errors=True)


def run_phases(sqo, serve_schema, explain_schema):
    with tempfile.NamedTemporaryFile("w", suffix=".dl", delete=False) as f:
        f.write(IC4)
        ic_path = f.name
    slowlog_path = tempfile.mktemp(suffix=".slowlog.jsonl")
    # --slow-ms 0: every request is "slow", so the slowlog paths (ring
    # buffer, wire op, and file sink) are all exercised by the same load.
    proc = subprocess.Popen(
        [sqo, "serve", "--university", "--ic", ic_path,
         "--addr", "127.0.0.1:0", "--workers", "4", "--queue", "64",
         "--slow-ms", "0", "--slowlog-path", slowlog_path],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        # The first stdout line announces the bound address.
        line = proc.stdout.readline()
        if not line:
            fail("server did not announce a listening address")
        announce = loads(line)
        host, port = announce["listening"].rsplit(":", 1)
        addr = (host, int(port))

        # Warm one template so concurrent repeats can hit the cache.
        warm = request(addr, json.dumps(
            {"op": "query", "oql": "select x.name from x in Person where x.age < 21"}))
        check(warm, serve_schema, serve_schema, "warm-up response")
        if not warm.get("ok") or warm.get("cache") != "miss":
            fail(f"warm-up should be a cache miss: {warm}")

        results = [None] * N_CLIENTS

        def client(i):
            if i == 0:
                oql = "select f.name from f in Faculty where f.age < 25"
            elif i % 2 == 0:
                # Cache-hit family: same template as the warm-up.
                oql = f"select x.name from x in Person where x.age < {22 + i % 7}"
            else:
                # Distinct templates: a fresh comparison column each time.
                oql = f"select s.name from s in Student where s.student_id != \"id{i}\""
            try:
                results[i] = (oql, request(addr, json.dumps(
                    {"op": "query", "oql": oql, "timeout_ms": 30000})))
            except Exception as e:  # noqa: BLE001 - reported as a failure below
                results[i] = (oql, e)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(N_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT_S)
            if t.is_alive():
                fail("client timed out")

        hits = 0
        for i, (oql, resp) in enumerate(results):
            if isinstance(resp, Exception):
                fail(f"client {i} ({oql!r}): {resp}")
            check(resp, serve_schema, serve_schema, f"client {i} response")
            if not resp.get("ok"):
                fail(f"client {i} ({oql!r}) not ok: {resp}")
            report = resp["report"]
            check(report, explain_schema, explain_schema, f"client {i} report")
            want = "contradiction" if i == 0 else "equivalents"
            if report["verdict"] != want:
                fail(f"client {i} ({oql!r}): verdict {report['verdict']}, want {want}")
            if resp.get("cache") == "hit":
                hits += 1

        metrics = request(addr, json.dumps({"op": "metrics"}))
        check(metrics, serve_schema, serve_schema, "metrics response")
        counters = metrics["stats"]["counters"]
        if counters.get("plan_cache.hits", 0) < 1 or hits < 1:
            fail(f"expected cache hits >= 1 (wire: {hits}, counter: "
                 f"{counters.get('plan_cache.hits')})")
        if counters.get("serve.shed", 0) != 0:
            fail(f"expected shed == 0, got {counters.get('serve.shed')}")
        if counters.get("serve.requests", 0) < N_CLIENTS + 1:
            fail(f"serve.requests under-counts: {counters.get('serve.requests')}")

        n_events, n_slow = telemetry_checks(addr, serve_schema, slowlog_path)

        n_piped = pipelined_phase(addr, serve_schema)

        n_repeat = repeat_phase(addr, serve_schema)

        n_views = view_phase(addr, serve_schema)

        n_loop = rewrite_only_repeat_phase(addr, serve_schema, explain_schema)

        half_close_check(addr, serve_schema)

        n_hostile = hostile_lines_check(addr, serve_schema)

        n_fuzz = fuzz_differential(sqo, addr, serve_schema, explain_schema)

        bye = request(addr, json.dumps({"op": "shutdown"}))
        check(bye, serve_schema, serve_schema, "shutdown response")
        proc.wait(timeout=TIMEOUT_S)

        n_hostile_ic = hostile_ic_phase(sqo, serve_schema)

        n_recovered = recovery_phase(sqo, serve_schema)

        print(f"serve_smoke: OK ({N_CLIENTS} concurrent queries, "
              f"{hits} warm hits, shed 0, trace {n_events} events, "
              f"slowlog {n_slow} entries, "
              f"{n_piped} pipelined == one-at-a-time, "
              f"{n_repeat} answers re-executed on an instance hit, "
              f"{n_views} view-folded paths never read as empty, "
              f"{n_loop} rewrite-only repeats answered by the loop, "
              f"half-close answered, "
              f"{n_hostile} stack-deep lines refused, "
              f"{n_hostile_ic} hostile-IC queries left the pool free, "
              f"{n_fuzz} fuzz cases wire==in-process, "
              f"{n_recovered} answers across a kill -9 recovery)")
    finally:
        os.unlink(ic_path)
        if os.path.exists(slowlog_path):
            os.unlink(slowlog_path)
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    sqo = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        REPO, "target", "release", "sqo")
    if not os.path.exists(sqo):
        fail(f"binary not found: {sqo} (build with `cargo build --release`)")
    serve_schema = load_schema("serve.schema.json")
    explain_schema = load_schema("explain.schema.json")
    run_phases(sqo, serve_schema, explain_schema)


if __name__ == "__main__":
    main()
