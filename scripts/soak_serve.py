#!/usr/bin/env python3
"""Soak test for the stagg socket transport (scripts/soak_serve.py).

Drives a real `stagg serve --listen` process the way a fleet of clients
would, and asserts the transport's contracts end to end:

  * N concurrent connections mixing protocol v1 lines, v2 batches (with
    progress events), v2 execute frames (lift + run on posted inputs),
    non-JSON lines (answered v1 bad_request), and malformed frames;
  * every networked result is bit-identical to the stdin v1 dialect on the
    deterministic fields (status/solved/expr/attempts/...; `cached` and
    wall-clock timings legitimately vary);
  * mid-request disconnects leave no stuck connections (asserted via the
    v2 stats frame: open_conns/in_flight return to quiescent values);
  * SIGTERM drains: in-flight batches complete, the socket closes, and the
    server exits 0;
  * a restart with the same --cache-file answers the previous workload
    from warm cache (journal `loaded` count + cached:true responses);
  * hostile frames against a server under a 2 GiB address-space limit (a
    4 MB registry name, an io_examples budget that cannot be allocated)
    neither stall a bystander's stats round trip past 1 s nor kill the
    server; C literals out of the interpreters' exact range answer
    c_parse_error; the server then executes a normal request.

Usage: soak_serve.py --stagg build/stagg [--clients 6] [--workdir dir]

Exit 0 on success; nonzero with a diagnostic (and the server logs left in
--workdir) on any violation. CI uploads the workdir on failure.
"""

import argparse
import json
import os
import re
import resource
import socket
import signal
import subprocess
import sys
import time

# Deterministic artificial kernels: they lift in milliseconds and their
# results depend only on the oracle seed, so bit-identity is assertable.
NAMES = ["art_copy", "art_add", "art_dot", "art_scal_const", "art_transpose"]

# Response fields that legitimately differ between runs (cache state and
# wall-clock); everything else must match the stdin dialect bit for bit.
VOLATILE = {"cached", "timings", "config"}

# The hostile lane's address-space limit: room for a normal server, but an
# allocation sized by a client budget fails instead of exhausting the host.
HOSTILE_AS_BYTES = 2 << 30


def fail(message):
    print("soak_serve: FAIL: %s" % message, file=sys.stderr)
    sys.exit(1)


def essence(response):
    """The deterministic projection of a v1 response object."""
    return {k: v for k, v in response.items() if k not in VOLATILE}


class Client:
    """One blocking line-oriented connection to the server."""

    def __init__(self, port, timeout=30.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.settimeout(timeout)
        self.buf = b""

    def send_line(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def read_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None  # EOF
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def read_eof(self):
        """Reads until the server closes; returns any drained lines."""
        lines = []
        while True:
            line = self.read_line()
            if line is None:
                return lines
            lines.append(line)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def start_server(args, cache_path, log_path, preexec_fn=None):
    """Launches `stagg serve --listen 127.0.0.1:0` and learns the port."""
    cmd = [
        args.stagg, "serve", "--listen", "127.0.0.1:0",
        "--cache-file", cache_path, "--cache-stats", "-v",
    ]
    log = open(log_path, "ab")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                            preexec_fn=preexec_fn)
    line = proc.stdout.readline().decode()
    match = re.search(r"listening on [^:]+:(\d+)", line)
    if not match:
        proc.kill()
        fail("no listening line from the server (got %r)" % line)
    return proc, int(match.group(1))


def stdin_baseline(args):
    """The reference: the same requests through the stdin v1 dialect."""
    lines = "".join('{"v": 1, "name": "%s"}\n' % n for n in NAMES)
    out = subprocess.run(
        [args.stagg, "serve"], input=lines.encode(),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=300,
    )
    if out.returncode != 0:
        fail("stdin baseline exited %d" % out.returncode)
    baseline = {}
    for line in out.stdout.decode().splitlines():
        response = json.loads(line)
        baseline[response["name"]] = essence(response)
    if set(baseline) != set(NAMES):
        fail("stdin baseline answered %s" % sorted(baseline))
    return baseline


def check_response(response, baseline, context):
    got = essence(response)
    want = baseline[response["name"]]
    if got != want:
        fail("%s: response diverged from stdin v1 for %s:\n  got  %s\n  want %s"
             % (context, response["name"], got, want))


def client_workload(port, worker, baseline, errors):
    """One soak client: v1 + non-JSON + malformed + execute + a v2 batch."""
    try:
        client = Client(port)

        # v1 singles, answered in order.
        for name in NAMES:
            client.send_line(json.dumps({"v": 1, "name": name}))
        for name in NAMES:
            response = json.loads(client.read_line())
            if response["name"] != name:
                fail("worker %d: v1 out of order (%s before %s)"
                     % (worker, response["name"], name))
            check_response(response, baseline, "worker %d v1" % worker)

        # A line that is not JSON (a bare name included) is a v1
        # bad_request, answered in its admission slot.
        client.send_line("art_copy")
        client.send_line(json.dumps({"v": 1, "name": "art_copy"}))
        response = json.loads(client.read_line())
        if response.get("v") != 1 or response.get("status") != "bad_request":
            fail("worker %d: non-JSON line answered %s" % (worker, response))
        response = json.loads(client.read_line())
        check_response(response, baseline, "worker %d after bad line" % worker)

        # A malformed v2 frame is an error event, not a disconnect.
        client.send_line('{"v": 2, "id": %d}' % worker)
        event = json.loads(client.read_line())
        if event.get("event") != "error":
            fail("worker %d: malformed frame answered %s" % (worker, event))

        # An execute frame on the same connection: the lift settles (from
        # cache, after the v1 round above), then the compiled program runs
        # on this worker's own inputs. Per-worker values prove the answer
        # came from this frame, not a neighbour's.
        left = [worker + i for i in range(4)]
        right = [10 * (i + 1) for i in range(4)]
        client.send_line(json.dumps(
            {"v": 2, "id": 2000 + worker,
             "execute": {"name": "art_add", "sizes": {"N": 4},
                         "inputs": {"a": left, "b": right}}}))
        event = json.loads(client.read_line())
        if event.get("event") != "result" or event.get("status") != "ok":
            fail("worker %d: execute answered %s" % (worker, event))
        if event.get("id") != 2000 + worker:
            fail("worker %d: execute echoed id %s" % (worker, event.get("id")))
        want = [x + y for x, y in zip(left, right)]
        if event.get("data") != want:
            fail("worker %d: execute computed %s, want %s"
                 % (worker, event.get("data"), want))

        # A bad execute (operand length mismatch) is a result error event
        # on the same connection, never a disconnect.
        client.send_line(json.dumps(
            {"v": 2, "execute": {"name": "art_add", "sizes": {"N": 4},
                                 "inputs": {"a": [1.0]}}}))
        event = json.loads(client.read_line())
        if event.get("event") != "result" or event.get("status") != "error":
            fail("worker %d: bad execute answered %s" % (worker, event))

        # A v2 batch with progress: events stream, responses arrive in seq
        # order, and the embedded result objects match the stdin dialect.
        client.send_line(json.dumps(
            {"v": 2, "id": worker, "progress": True,
             "requests": [{"name": n} for n in NAMES]}))
        seqs, phases, done = [], set(), None
        while done is None:
            event = json.loads(client.read_line())
            if event.get("id") != worker:
                fail("worker %d: foreign id in %s" % (worker, event))
            kind = event.get("event")
            if kind == "progress":
                phases.add(event["phase"])
            elif kind == "response":
                seqs.append(event["seq"])
                check_response(event["response"], baseline,
                               "worker %d v2" % worker)
            elif kind == "done":
                done = event
            else:
                fail("worker %d: unexpected event %s" % (worker, event))
        if seqs != sorted(seqs) or len(seqs) != len(NAMES):
            fail("worker %d: response seqs %s" % (worker, seqs))
        if done["completed"] != len(NAMES):
            fail("worker %d: done reported %s" % (worker, done))
        if "queued" not in phases:
            fail("worker %d: no queued progress events (saw %s)"
                 % (worker, phases))
        client.close()
    except Exception as error:  # propagate to the main thread
        errors.append("worker %d: %s" % (worker, error))


def read_stats(port):
    client = Client(port)
    client.send_line('{"v": 2, "stats": true}')
    stats = json.loads(client.read_line())
    client.close()
    if stats.get("event") != "stats":
        fail("stats frame answered %s" % stats)
    return stats


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (HOSTILE_AS_BYTES, HOSTILE_AS_BYTES))


def hostile_lane(args):
    """Hostile frames must neither stall the loop nor kill the server."""
    cache_path = os.path.join(args.workdir, "hostile-cache.jsonl")
    if os.path.exists(cache_path):
        os.remove(cache_path)
    proc, port = start_server(args, cache_path,
                              os.path.join(args.workdir, "server-3.log"),
                              preexec_fn=limit_address_space)
    try:
        bystander = Client(port)
        huge = Client(port)
        budget = Client(port)
        # A 4 MB registry name (the "did you mean" lookup runs on the loop
        # thread) and an io_examples budget no 2 GiB process can allocate.
        huge.send_line(json.dumps(
            {"v": 2, "id": 1, "requests": [{"name": "y" * 4000000}]}))
        budget.send_line(json.dumps(
            {"v": 1, "name": "blas_axpy",
             "config": {"io_examples": 100000000}}))

        # Probe until the server has taken both hostile frames; every
        # probe, including the last, must answer within a second.
        probes, deadline = 0, time.time() + 30
        while True:
            start = time.time()
            bystander.send_line('{"v": 2, "stats": true}')
            stats = json.loads(bystander.read_line())
            rtt = time.time() - start
            probes += 1
            if stats.get("event") != "stats":
                fail("hostile lane: stats answered %s" % stats)
            if rtt >= 1.0:
                fail("hostile lane: bystander stats took %.2f s" % rtt)
            if stats["server"]["frames_in"] - probes >= 2:
                break
            if time.time() > deadline:
                fail("hostile lane: frames never arrived: %s"
                     % stats["server"])
            time.sleep(0.05)

        event = json.loads(huge.read_line())
        status = event.get("response", {}).get("status")
        if event.get("event") != "response" or status != "unknown_benchmark":
            fail("hostile lane: huge name answered %s" % status)
        response = json.loads(budget.read_line())
        if (response.get("status") != "ok" or response.get("solved")
                or not response.get("fail_reason", "").startswith(
                    "internal error")):
            fail("hostile lane: io_examples bomb answered %s" % response)

        # C literals no interpreter can hold exactly (beyond int64, or a
        # float whose digits are) are refused as parse errors.
        for literal in ("99999999999999999999", "1.99999999999999999999"):
            bystander.send_line(json.dumps(
                {"v": 1, "kernel": "void k(int N, float* out) { for (int i = "
                 "0; i < N; i++) out[i] = %s; }" % literal}))
            response = json.loads(bystander.read_line())
            if response.get("status") != "c_parse_error":
                fail("hostile lane: literal %s answered %s"
                     % (literal, response))

        # The same server still lifts and executes normally.
        bystander.send_line(json.dumps(
            {"v": 2, "id": 3, "execute": {
                "name": "art_add", "sizes": {"N": 2},
                "inputs": {"a": [1, 2], "b": [10, 20]}}}))
        event = json.loads(bystander.read_line())
        if event.get("status") != "ok" or event.get("data") != [11, 22]:
            fail("hostile lane: execute after the bombs answered %s" % event)
        for client in (bystander, huge, budget):
            client.close()
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        if rc != 0:
            fail("hostile-lane server exited %d" % rc)
        proc = None
        print("soak_serve: hostile frames answered, bystander stayed under "
              "1 s, server kept serving")
    finally:
        if proc is not None:
            proc.kill()
            proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stagg", required=True, help="path to the stagg binary")
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--workdir", default="soak-serve")
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    cache_path = os.path.join(args.workdir, "lift-cache.jsonl")
    if os.path.exists(cache_path):
        os.remove(cache_path)

    print("soak_serve: stdin v1 baseline over %d kernels" % len(NAMES))
    baseline = stdin_baseline(args)

    proc, port = start_server(args, cache_path,
                              os.path.join(args.workdir, "server-1.log"))
    print("soak_serve: server up on port %d" % port)
    try:
        # Phase 1: concurrent mixed-dialect clients.
        import threading
        errors = []
        pool = [threading.Thread(target=client_workload,
                                 args=(port, w, baseline, errors))
                for w in range(args.clients)]
        for thread in pool:
            thread.start()

        # Phase 2 (interleaved): clients that vanish mid-request.
        for w in range(3):
            rude = Client(port)
            rude.send_line(json.dumps(
                {"v": 2, "id": 1000 + w,
                 "requests": [{"name": n} for n in NAMES]}))
            rude.close()

        for thread in pool:
            thread.join()
        if errors:
            fail("; ".join(errors))
        print("soak_serve: %d clients served, %d rude disconnects absorbed"
              % (args.clients, 3))

        # Phase 3: no stuck connections — only the stats probe is open.
        deadline = time.time() + 30
        while True:
            stats = read_stats(port)
            server = stats["server"]
            if server["open_conns"] <= 1 and server["in_flight"] == 0:
                break
            if time.time() > deadline:
                fail("connections stuck after soak: %s" % server)
            time.sleep(0.2)
        if stats["server"]["draining"]:
            fail("server claims to be draining before SIGTERM")
        if stats["cache"]["misses"] < len(NAMES):
            fail("cache counters implausible: %s" % stats["cache"])

        # Phase 4: SIGTERM drains — the in-flight batch completes, the
        # socket closes, and the process exits 0.
        drain = Client(port)
        drain.send_line(json.dumps(
            {"v": 2, "id": "drain", "progress": True,
             "requests": [{"name": n} for n in NAMES]}))
        # The first progress event proves the batch is admitted; only then
        # may the drain begin, or the frame would be refused shutting_down.
        first = json.loads(drain.read_line())
        if first.get("event") not in ("progress", "response"):
            fail("drain batch not admitted: %s" % first)
        proc.send_signal(signal.SIGTERM)
        responses, saw_done = 0, False
        if first.get("event") == "response":
            responses += 1
            check_response(first["response"], baseline, "drain batch")
        for line in drain.read_eof():
            event = json.loads(line)
            if event.get("event") == "response":
                responses += 1
                check_response(event["response"], baseline, "drain batch")
            elif event.get("event") == "done":
                saw_done = True
        if responses != len(NAMES) or not saw_done:
            fail("drain lost work: %d responses, done=%s"
                 % (responses, saw_done))
        drain.close()
        rc = proc.wait(timeout=60)
        if rc != 0:
            fail("server exited %d after a clean drain" % rc)
        proc = None
        print("soak_serve: SIGTERM drain completed in-flight work, exit 0")
    finally:
        if proc is not None:
            proc.kill()
            proc.wait()

    # Phase 5: restart with the same journal — the previous workload is
    # answered from warm cache, bit-identical to the stdin dialect.
    proc, port = start_server(args, cache_path,
                              os.path.join(args.workdir, "server-2.log"))
    try:
        client = Client(port)
        for name in NAMES:
            client.send_line(json.dumps({"v": 1, "name": name}))
        for name in NAMES:
            response = json.loads(client.read_line())
            check_response(response, baseline, "warm restart")
            if not response.get("cached"):
                fail("restart did not serve %s from the persistent cache"
                     % name)
        client.close()
        stats = read_stats(port)
        if stats["cache"]["loaded"] < len(NAMES):
            fail("journal loaded %s entries, expected >= %d"
                 % (stats["cache"]["loaded"], len(NAMES)))
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        if rc != 0:
            fail("restarted server exited %d" % rc)
        proc = None
        print("soak_serve: restart served %d kernels from warm cache "
              "(loaded %d)" % (len(NAMES), stats["cache"]["loaded"]))
    finally:
        if proc is not None:
            proc.kill()
            proc.wait()

    # Phase 6: hostile frames against an address-space-limited server.
    hostile_lane(args)

    print("soak_serve: PASS")


if __name__ == "__main__":
    main()
