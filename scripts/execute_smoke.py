#!/usr/bin/env python3
"""Smoke test for the v2 "execute" endpoint (scripts/execute_smoke.py).

Starts a real `stagg serve --listen` process and drives the execute frame
end to end over TCP:

  * a registry kernel is lifted and then executed on posted concrete
    inputs, and the streamed output tensor is checked cell for cell;
  * a scalar-output reduction round-trips (shape [], one cell);
  * re-executing the same kernel on new inputs answers from the result
    cache (cached:true) with the new data — the compiled program rebinds,
    nothing re-lifts;
  * bad inputs (wrong array length) and unknown kernels come back as
    status "error" result events, not disconnects;
  * SIGTERM still drains to exit 0;
  * a fixed set of raw frames (WIRE_FRAMES) is answered byte for byte as
    recorded in tests/expected_execute_wire.jsonl: number rendering at its
    edges, id echoes, whitespace and escapes, and the exact error text of
    malformed frames.

Usage: execute_smoke.py --stagg build/stagg [--workdir dir]
       [--expected file] [--write-expected]

--write-expected records the current server's answers to WIRE_FRAMES as the
new expected file instead of comparing; do it only for an intended change
of the wire bytes.
"""

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys


HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_EXPECTED = os.path.join(HERE, "..", "tests", "expected_execute_wire.jsonl")

# Raw execute frames, sent verbatim one at a time on a fresh connection; each
# is answered by exactly one line. The order matters: the first art_add
# frame lifts (cached:false), later ones hit the result cache.
WIRE_FRAMES = [
    # Integral outputs.
    '{"v":2,"id":1,"execute":{"name":"art_add","sizes":{"N":4},'
    '"inputs":{"a":[1,2,3,4],"b":[10,20,30,40]}}}',
    # Non-integral outputs.
    '{"v":2,"id":2,"execute":{"name":"art_add","sizes":{"N":5},'
    '"inputs":{"a":[0.1,1.5,-2.25,3.14159265358979,1e-3],'
    '"b":[0.2,0,1e-3,2.718281828459045,-7.5E+2]}}}',
    # -0 (the integer token -0 decodes to +0, -0.0 stays negative), 1e-07
    # and a subnormal.
    '{"v":2,"id":3,"execute":{"name":"art_add","sizes":{"N":5},'
    '"inputs":{"a":[-0.0,1e-07,-0,0,4.9e-324],"b":[-0.0,0,-0.0,-1e-07,0]}}}',
    # Values at and beyond 1e12, and integers past 2^53 and int64.
    '{"v":2,"id":4,"execute":{"name":"art_add","sizes":{"N":10},'
    '"inputs":{"a":[999999999999,1000000000000,999999999999.4,'
    '999999999999.5,-999999999999,123456789012345,1e15,'
    '9007199254740993,9223372036854775807,18446744073709551616],'
    '"b":[0,0,0,0,0,0,0,0,0,0]}}}',
    # Overflow to inf renders as null; 1e400 decodes to inf, 1e-400 to 0.
    '{"v":2,"id":5,"execute":{"name":"art_add","sizes":{"N":4},'
    '"inputs":{"a":[1e308,-1e308,1e400,1e-400],"b":[1e308,-1e308,1,1]}}}',
    # A numeric scalar input, and a scalar output.
    '{"v":2,"id":6,"execute":{"name":"blas_scal","sizes":{"N":3},'
    '"inputs":{"alpha":2.5,"x":[1,2,-4]}}}',
    '{"v":2,"id":7,"execute":{"name":"art_dot","sizes":{"N":3},'
    '"inputs":{"a":[1,2,3],"b":[4,5,6]}}}',
    # An empty array fails the length check.
    '{"v":2,"id":8,"execute":{"name":"art_add","sizes":{"N":1},'
    '"inputs":{"a":[],"b":[2]}}}',
    # Key order, an absent size (N defaults to 1) and an absent array
    # (zero-filled).
    '{"execute":{"inputs":{"b":[1]},"name":"art_add"},"id":9,"v":2}',
    # String, float, large, null, boolean and absent ids.
    '{"v":2,"id":"req-\\u00e9\\"7\\"","execute":{"name":"art_add",'
    '"sizes":{"N":1},"inputs":{"a":[1],"b":[2]}}}',
    '{"v":2,"id":1.5,"execute":{"name":"art_add","sizes":{"N":1},'
    '"inputs":{"a":[1],"b":[2]}}}',
    '{"v":2,"id":1e2,"execute":{"name":"art_add","sizes":{"N":1},'
    '"inputs":{"a":[1],"b":[2]}}}',
    '{"v":2,"id":-0,"execute":{"name":"art_add","sizes":{"N":1},'
    '"inputs":{"a":[1],"b":[2]}}}',
    '{"v":2,"id":12345678901234567890,"execute":{"name":"art_add",'
    '"sizes":{"N":1},"inputs":{"a":[1],"b":[2]}}}',
    '{"v":2,"id":null,"execute":{"name":"art_add","sizes":{"N":1},'
    '"inputs":{"a":[1],"b":[2]}}}',
    '{"v":2,"id":true,"execute":{"name":"art_add","sizes":{"N":1},'
    '"inputs":{"a":[1],"b":[2]}}}',
    '{"v":2,"execute":{"name":"art_add","sizes":{"N":1},'
    '"inputs":{"a":[1],"b":[2]}}}',
    # Whitespace between every token and around the frame.
    ' \t{ "v" : 2 ,\t"id" : 18 , "execute" : { "name" : "art_add" ,'
    ' "sizes" : { "N" : 2 } , "inputs" : { "a" : [ 1 , 2 ] ,'
    ' "b" : [ 3 , 4.5 ] } } } \t',
    # A \u-escaped name.
    '{"v":2,"id":19,"execute":{"name":"art\\u005fadd","sizes":{"N":1},'
    '"inputs":{"a":[1],"b":[2]}}}',
    # Duplicate keys at each level.
    '{"v":2,"v":2,"id":20,"execute":{"name":"art_add"}}',
    '{"v":2,"id":21,"id":21,"execute":{"name":"art_add"}}',
    '{"v":2,"id":22,"execute":{"name":"art_add","name":"art_add"}}',
    '{"v":2,"id":23,"execute":{"name":"art_add","sizes":{"N":1,"N":1}}}',
    '{"v":2,"id":24,"execute":{"name":"art_add","inputs":{"a":[1],"a":2}}}',
    # Leading zeros, in a size and in a cell.
    '{"v":2,"id":25,"execute":{"name":"art_add","sizes":{"N":02}}}',
    '{"v":2,"id":26,"execute":{"name":"art_add","sizes":{"N":1},'
    '"inputs":{"a":[01],"b":[2]}}}',
    # Truncated frames.
    '{"v":2,"id":27,"execute":{"name":"art_add","sizes":{"N":2},'
    '"inputs":{"a":[1,2',
    '{"v":2,"id":28,"execute":{"name":"art_add","sizes":{"N":2},'
    '"inputs":{"a":[1,2],"b":[3,4e',
    # Unknown fields: "scalars" is not a key, numeric scalars go in inputs.
    '{"v":2,"id":29,"execute":{"name":"blas_scal","sizes":{"N":1},'
    '"inputs":{"x":[1]},"scalars":{"alpha":2}}}',
    '{"v":2,"id":30,"execute":{"name":"art_add"},"progress":true}',
    '{"v":2,"id":31,"execute":{"name":"art_add"},"extra":1}',
    # Sizes that are not positive integers.
    '{"v":2,"id":32,"execute":{"name":"art_add","sizes":{"N":0}}}',
    '{"v":2,"id":33,"execute":{"name":"art_add","sizes":{"N":-3}}}',
    '{"v":2,"id":34,"execute":{"name":"art_add","sizes":{"N":2.0}}}',
    # Cells that are not numbers.
    '{"v":2,"id":35,"execute":{"name":"art_add","sizes":{"N":2},'
    '"inputs":{"a":[1,"2"],"b":[3,4]}}}',
    '{"v":2,"id":36,"execute":{"name":"art_add","sizes":{"N":2},'
    '"inputs":{"a":[1,null],"b":[3,4]}}}',
    '{"v":2,"id":37,"execute":{"name":"art_add","sizes":{"N":1},'
    '"inputs":{"a":[[1]],"b":[3]}}}',
    '{"v":2,"id":38,"execute":{"name":"art_add","sizes":{"N":1},'
    '"inputs":{"a":"1","b":[3]}}}',
    # Wrong array length.
    '{"v":2,"id":39,"execute":{"name":"art_add","sizes":{"N":4},'
    '"inputs":{"a":[1,2],"b":[10,20,30,40]}}}',
    # A config override takes its own cache entry.
    '{"v":2,"id":47,"execute":{"name":"art_add","config":{"skip_verify":true},'
    '"sizes":{"N":1},"inputs":{"a":[1],"b":[2]}}}',
    # Version and shape errors.
    '{"v":2.0,"id":40,"execute":{"name":"art_add"}}',
    '{"v":2,"id":41,"execute":{"sizes":{"N":1}}}',
    '{"v":2,"id":42,"execute":{"name":""}}',
    '{"v":2,"id":43,"execute":[]}',
    '{"v":2,"id":[44],"execute":{"name":"art_add"}}',
    '{"v":2,"id":45,"execute":{"name":"definitely_not_a_benchmark"}}',
    '{"v":2,"id":46,"execute":{"name":"art_add","sizes":{"N":1},'
    '"inputs":{"a":[1],"b":[2]}}} trailing',
]


def fail(message):
    print("execute_smoke: FAIL: %s" % message, file=sys.stderr)
    sys.exit(1)


class Client:
    """One blocking line-oriented connection to the server."""

    def __init__(self, port, timeout=60.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.settimeout(timeout)
        self.buf = b""

    def send_line(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def read_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def start_server(args, log_path):
    cmd = [args.stagg, "serve", "--listen", "127.0.0.1:0", "-v"]
    log = open(log_path, "ab")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log)
    line = proc.stdout.readline().decode()
    match = re.search(r"listening on [^:]+:(\d+)", line)
    if not match:
        proc.kill()
        fail("no listening line from the server (got %r)" % line)
    return proc, int(match.group(1))


def execute(client, frame_id, body):
    client.send_line(json.dumps({"v": 2, "id": frame_id, "execute": body}))
    event = json.loads(client.read_line())
    if event.get("event") != "result":
        fail("execute answered a %r event: %s" % (event.get("event"), event))
    if event.get("id") != frame_id:
        fail("result echoed id %r, sent %r" % (event.get("id"), frame_id))
    return event


def check_wire(client, expected_path, write_expected):
    """Sends WIRE_FRAMES and compares (or records) every answer line."""
    got = []
    for frame in WIRE_FRAMES:
        client.send_line(frame)
        line = client.read_line()
        if line is None:
            fail("server closed the connection after %r" % frame)
        got.append(line)
    if write_expected:
        with open(expected_path, "w", encoding="utf-8") as out:
            for line in got:
                out.write(line + "\n")
        print("execute_smoke: wrote %d wire lines to %s" % (len(got), expected_path))
        return
    with open(expected_path, encoding="utf-8") as f:
        want = f.read().split("\n")
    if want and want[-1] == "":
        want.pop()
    if len(want) != len(got):
        fail("%s holds %d lines, the frame set has %d"
             % (expected_path, len(want), len(got)))
    for index, (frame, w, g) in enumerate(zip(WIRE_FRAMES, want, got)):
        if w != g:
            fail("wire frame %d answered differently\n  frame: %s\n"
                 "  expected: %s\n  got:      %s" % (index, frame, w, g))
    print("execute_smoke: %d wire lines byte-identical" % len(got))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stagg", required=True, help="path to the stagg binary")
    parser.add_argument("--workdir", default="execute-smoke")
    parser.add_argument("--expected", default=DEFAULT_EXPECTED,
                        help="the recorded answers to WIRE_FRAMES")
    parser.add_argument("--write-expected", action="store_true",
                        help="record the answers instead of comparing")
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)

    proc, port = start_server(args, os.path.join(args.workdir, "server.log"))
    print("execute_smoke: server up on port %d" % port)
    try:
        wire = Client(port)
        check_wire(wire, args.expected, args.write_expected)
        wire.close()

        client = Client(port)

        # Elementwise add: lift + execute in one frame.
        result = execute(client, 1, {
            "name": "art_add", "sizes": {"N": 4},
            "inputs": {"a": [1, 2, 3, 4], "b": [10, 20, 30, 40]}})
        if result.get("status") != "ok":
            fail("art_add execute errored: %s" % result)
        if result["shape"] != [4] or result["data"] != [11, 22, 33, 44]:
            fail("art_add computed %s / %s" % (result["shape"], result["data"]))
        if "expr" not in result:
            fail("result event carries no expr: %s" % result)
        print("execute_smoke: art_add -> %s" % result["data"])

        # Scalar-output reduction: shape [] with one cell.
        result = execute(client, 2, {
            "name": "art_dot", "sizes": {"N": 3},
            "inputs": {"a": [1, 2, 3], "b": [4, 5, 6]}})
        if result.get("status") != "ok":
            fail("art_dot execute errored: %s" % result)
        if result["shape"] != [] or result["data"] != [32]:
            fail("art_dot computed %s / %s" % (result["shape"], result["data"]))
        print("execute_smoke: art_dot -> %s" % result["data"])

        # Same kernel, new inputs: the lift is a cache hit, the data is new.
        result = execute(client, 3, {
            "name": "art_add", "sizes": {"N": 2},
            "inputs": {"a": [5, 6], "b": [1, 1]}})
        if result.get("status") != "ok" or not result.get("cached"):
            fail("re-execute was not a cache hit: %s" % result)
        if result["data"] != [6, 7]:
            fail("re-execute computed %s" % result["data"])
        print("execute_smoke: cached re-execute -> %s" % result["data"])

        # Wrong array length: a result error event, connection survives.
        result = execute(client, 4, {
            "name": "art_add", "sizes": {"N": 4},
            "inputs": {"a": [1, 2], "b": [10, 20, 30, 40]}})
        if result.get("status") != "error" or "expected" not in result.get("error", ""):
            fail("bad-length execute answered %s" % result)

        # Unknown kernel: same contract.
        result = execute(client, 5, {"name": "definitely_not_a_benchmark"})
        if result.get("status") != "error":
            fail("unknown-kernel execute answered %s" % result)
        print("execute_smoke: error paths answered as result events")

        # The connection still serves ordinary frames afterwards.
        client.send_line('{"v": 1, "name": "art_copy"}')
        response = json.loads(client.read_line())
        if response.get("status") != "ok":
            fail("v1 frame after executes answered %s" % response)
        client.close()

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        if rc != 0:
            fail("server exited %d after SIGTERM" % rc)
        proc = None
    finally:
        if proc is not None:
            proc.kill()
            proc.wait()

    print("execute_smoke: PASS")


if __name__ == "__main__":
    main()
