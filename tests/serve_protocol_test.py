#!/usr/bin/env python3
"""End-to-end protocol tests for the hybridpt-serve daemon
(docs/SERVING.md).

Drives the real binary over stdin/stdout NDJSON and asserts the
robustness contract from the outside:

 - a corpus of malformed request lines each earns one structured error
   reply (correct "code", echoed "id" where readable) and the daemon
   keeps answering afterwards — no crash, no closed pipe;
 - a partial line that grows past MaxLineBytes without a newline earns
   one error reply before the newline arrives, and the next request is
   served;
 - daemon answers are bit-identical to the batch CLIs: points-to lines
   match the `hybridpt --dump-vpt` body (minus its two-space indent) and
   lint lines match `hybridpt-lint --format jsonl`;
 - every work request streams one --trace-out request record, and a
   compare reads its two sides from the solve cache the other kinds fill;
 - a drain request stops admission and the daemon exits 0;
 - SIGTERM triggers the same graceful drain;
 - BENCH_serve.json produced by the replay driver passes
   check_bench_regression.py self-compare, and a cell missing "count"
   fails the schema gate.

Runs under pytest and standalone:
  python3 tests/serve_protocol_test.py --serve PATH --replay PATH \
      --hybridpt PATH --lint PATH --examples DIR
"""

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import tempfile

ARGS = None  # filled by main() / pytest fixtures below


def config():
    global ARGS
    if ARGS is None:
        # pytest path: resolve binaries relative to a build directory.
        build = os.environ.get("HYBRIDPT_BUILD_DIR", "build")
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir)
        ARGS = argparse.Namespace(
            serve=os.path.join(root, build, "tools", "hybridpt-serve"),
            replay=os.path.join(root, build, "tools", "hybridpt-replay"),
            hybridpt=os.path.join(root, build, "tools", "hybridpt"),
            lint=os.path.join(root, build, "tools", "hybridpt-lint"),
            examples=os.path.join(root, "examples", "programs"),
            bench_check=os.path.join(root, "tools",
                                     "check_bench_regression.py"),
        )
    return ARGS


def dispatch_ptir():
    return os.path.join(config().examples, "dispatch.ptir")


def start_daemon(*extra):
    """Starts hybridpt-serve on dispatch.ptir over stdio pipes."""
    return subprocess.Popen(
        [config().serve, "--program", dispatch_ptir()] + list(extra),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)


def ask(proc, line):
    """Sends one request line, reads one reply line."""
    proc.stdin.write(line + "\n")
    proc.stdin.flush()
    reply = proc.stdout.readline()
    assert reply, "daemon closed its stdout instead of replying to: " + line
    return json.loads(reply)


def finish(proc):
    """Closes stdin (EOF = drain) and requires a clean exit."""
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, (
        "daemon exit %r; stderr:\n%s" % (proc.returncode, err))
    return out


# --- malformed corpus: structured errors, daemon survives -----------------

MALFORMED = [
    # (line, expected code, expected echoed id or None)
    ("garbage", "bad-request", None),
    ('{"id": 1, "kind": "health"', "bad-request", None),  # truncated
    ("[1, 2, 3]", "bad-request", None),                   # non-object
    ('{"kind": "health"}', "bad-request", None),          # no id
    ('{"id": "x", "kind": "health"}', "bad-request", None),
    ('{"id": 3}', "bad-request", 3),                      # no kind
    ('{"id": 4, "kind": "frobnicate"}', "unknown-kind", 4),
    ('{"id": 5, "kind": "points-to"}', "bad-request", 5),  # no var
    ('{"id": 6, "kind": "points-to", "var": "No::such/0::v"}',
     "unknown-var", 6),
    ('{"id": 7, "kind": "callgraph", "policy": "999obj"}',
     "unknown-policy", 7),
    ('{"id": 8, "kind": "compare", "base": "insens"}', "bad-request", 8),
    ('{"id": 9, "kind": "lint", "checks": "notanarray"}', "bad-request", 9),
    ('{"id": 10, "kind": "lint", "deadline_ms": -5}', "bad-request", 10),
    ('{"id": 11, "kind": "reload", "program": "/no/such.ptir"}',
     "bad-program", 11),
    ('{"id": 13, "kind": "compare", "base": "insens", "refined": "1obj",'
     ' "checks": ["no-such-checker"]}', "bad-request", 13),
    ('{"id": 12, "kind": "points-to", "var": "' + "x" * 2000000 + '"}',
     "bad-request", None),  # over MaxLineBytes: id unreadable by design
]


def test_malformed_corpus_then_identical_answers():
    proc = start_daemon()
    try:
        for line, want_code, want_id in MALFORMED:
            reply = ask(proc, line)
            assert reply.get("ok") is False, (line, reply)
            assert reply.get("code") == want_code, (line, reply)
            assert reply.get("error"), (line, reply)
            if want_id is not None:
                assert reply.get("id") == want_id, (line, reply)

        # The daemon is unharmed: answers after the corpus are
        # bit-identical to the batch CLIs.
        pt = ask(proc, json.dumps({
            "id": 100, "kind": "points-to", "policy": "2obj+H",
            "var": "App::main/0::got"}))
        assert pt["ok"] is True, pt
        batch = subprocess.run(
            [config().hybridpt, "--policy", "2obj+H",
             "--dump-vpt", "App::main/0::got", dispatch_ptir()],
            capture_output=True, text=True, timeout=120, check=True)
        body = [l[2:] for l in batch.stdout.splitlines()
                if l.startswith("  ")]
        assert body, "batch --dump-vpt printed no points-to body"
        assert pt["lines"] == body, (pt["lines"], body)

        lint = ask(proc, json.dumps({
            "id": 101, "kind": "lint", "policy": "2obj+H"}))
        assert lint["ok"] is True, lint
        batch = subprocess.run(
            [config().lint, "--policy", "2obj+H", "--format", "jsonl",
             dispatch_ptir()],
            capture_output=True, text=True, timeout=120)
        assert lint["lines"] == batch.stdout.splitlines(), (
            lint["lines"], batch.stdout)
    finally:
        finish(proc)


def read_reply(proc, timeout_s=60):
    """Reads one reply line, failing instead of blocking past the timeout."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout_s)
    assert ready, "no reply within %ds" % timeout_s
    reply = proc.stdout.readline()
    assert reply, "daemon closed its stdout"
    return json.loads(reply)


def test_unterminated_line_is_capped():
    # 2 MiB with no newline: the daemon must answer once the partial line
    # passes MaxLineBytes (1 MiB), before any newline arrives, rather than
    # buffer without bound.  It then discards up to the next newline and
    # serves the following request normally.
    proc = start_daemon()
    try:
        chunk = "x" * 65536
        for _ in range(32):
            proc.stdin.write(chunk)
        proc.stdin.flush()
        err = read_reply(proc)
        assert err.get("ok") is False, err
        assert err.get("code") == "bad-request", err
        assert "exceeds" in err.get("error", ""), err

        proc.stdin.write("\n" + json.dumps({"id": 2, "kind": "health"}) + "\n")
        proc.stdin.flush()
        health = read_reply(proc)
        assert health.get("ok") is True, (
            "expected the health reply right after one error", health)
        assert health.get("id") == 2, health
    finally:
        finish(proc)


# --- request records and one solve per (epoch, policy) --------------------

def test_request_records_and_compare_reads_the_solve_cache():
    # Each work request streams one request record.  A compare solves
    # through the same cache as points-to: after a points-to under 2obj+H,
    # the first compare insens->2obj+H adds only the insens solve (plus
    # its own rendered entry), and the second compare is a cache hit.
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "serve.jsonl")
        proc = start_daemon("--trace-out", trace)
        try:
            var = "App::main/0::got"
            work = [
                {"id": 1, "kind": "points-to", "policy": "2obj+H",
                 "var": var},
                {"id": 2, "kind": "compare", "base": "insens",
                 "refined": "2obj+H"},
                {"id": 3, "kind": "compare", "base": "insens",
                 "refined": "2obj+H"},
            ]
            replies = [ask(proc, json.dumps(r)) for r in work]
            for r in replies:
                assert r["ok"] is True, r
            assert [r["cache_hit"] for r in replies] == [False, False,
                                                         True], replies
            assert replies[1]["lines"] == replies[2]["lines"]
            health = ask(proc, '{"id": 4, "kind": "health"}')
        finally:
            finish(proc)
        cache = health["cache"]
        # Entries: solve 2obj+H, solve insens, the compare answer.  A
        # compare that re-solved both sides privately would leave two.
        assert cache["entries"] == 3, cache
        # Misses: the points-to solve, the first compare entry and its
        # insens side; the 2obj+H side and the second compare hit.
        assert cache["misses"] == 3, cache
        assert cache["hits"] == 2, cache

        with open(trace) as f:
            records = [json.loads(l) for l in f if l.strip()]
        requests = [r for r in records if r.get("type") == "request"]
        assert [r["id"] for r in requests] == [1, 2, 3], requests
        for r, want in zip(requests, replies):
            assert r["kind"] == want["kind"], r
            assert r["outcome"] == "ok", r
            assert r["cache_hit"] == want["cache_hit"], r
            for key in ("queue_ms", "latency_ms"):
                assert isinstance(r[key], (int, float)) and r[key] >= 0, r


# --- drain: explicit request and SIGTERM ----------------------------------

def test_drain_request_exits_cleanly():
    proc = start_daemon()
    health = ask(proc, '{"id": 1, "kind": "health"}')
    assert health["ok"] is True and health["epoch"] == 1
    drain = ask(proc, '{"id": 2, "kind": "drain"}')
    assert drain["ok"] is True and drain.get("draining") is True
    finish(proc)


def test_sigterm_drains_gracefully():
    proc = start_daemon()
    reply = ask(proc, json.dumps({"id": 1, "kind": "callgraph"}))
    assert reply["ok"] is True, reply
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, (
        "SIGTERM must drain, not kill; exit %r stderr:\n%s"
        % (proc.returncode, err))


# --- BENCH_serve.json: replay emits it, the regression gate understands it -

def test_replay_bench_passes_schema_gate():
    with tempfile.TemporaryDirectory() as tmp:
        bench = os.path.join(tmp, "BENCH_serve.json")
        replay = subprocess.run(
            [config().replay, "--program", dispatch_ptir(),
             "--serve-bin", config().serve,
             "--requests", "60", "--concurrency", "4", "--seed", "7",
             "--fault-rate", "0.05", "--verify", "--out", bench],
            capture_output=True, text=True, timeout=300)
        assert replay.returncode == 0, (
            "replay failed:\n%s%s" % (replay.stdout, replay.stderr))
        with open(bench) as f:
            data = json.load(f)
        assert data.get("harness") == "hybridpt-replay", data.keys()
        assert data["cells"], "replay wrote no cells"

        # Self-compare passes the gate.
        gate = subprocess.run(
            [sys.executable, config().bench_check, bench, bench],
            capture_output=True, text=True, timeout=60)
        assert gate.returncode == 0, (
            "self-compare must pass:\n%s%s" % (gate.stdout, gate.stderr))
        assert "Traceback" not in gate.stdout + gate.stderr

        # A serve cell missing "count" fails the schema gate, clearly.
        del data["cells"][0]["count"]
        broken = os.path.join(tmp, "broken.json")
        with open(broken, "w") as f:
            json.dump(data, f)
        gate = subprocess.run(
            [sys.executable, config().bench_check, broken, broken],
            capture_output=True, text=True, timeout=60)
        assert gate.returncode != 0, "schema gate must reject missing count"
        assert "count" in gate.stdout + gate.stderr
        assert "Traceback" not in gate.stdout + gate.stderr


def main():
    global ARGS
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serve", required=True)
    parser.add_argument("--replay", required=True)
    parser.add_argument("--hybridpt", required=True)
    parser.add_argument("--lint", required=True)
    parser.add_argument("--examples", required=True)
    parser.add_argument("--bench-check", required=True)
    ARGS = parser.parse_args()

    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print("PASS %s" % name)
        except AssertionError as e:
            failures += 1
            print("FAIL %s: %s" % (name, e))
        except Exception as e:  # surface crashes with context
            failures += 1
            print("FAIL %s: unexpected %r" % (name, e))
    print("%d/%d passed" % (len(tests) - failures, len(tests)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
