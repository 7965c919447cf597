"""One benchmark operation: a fresh interpreter that imports the CLI and
runs it once.

Usage: python3 child.py SRC SPEC_JSON, where SRC is the package's source
directory and SPEC_JSON holds ``argv`` (the CLI arguments) and ``trace``.
Prints one JSON record on stdout: set-up and run times, the exit code, the
CLI's own output, peak memory and, when traced, the spans.  The CLI's
output is captured rather than written through, so the record is the only
thing on stdout.

Nothing but ``sys``, ``time`` and ``signal`` is imported before the CLI
import is timed, so ``setup_s`` is what a user pays for
``import brokenrecords.cli``.

The host's speed drifts by more than half within seconds, so the child
also times a fixed probe every ``PROBE_EVERY_S`` from a timer signal for
its whole life.  Each probe is about 1 ms of fixed work, timed in thread
CPU time, and records how fast this core runs at that moment; run.py
divides the set-up, run and wall times by the probes' mean over the same
interval (see ``scaled`` there).
"""
import signal
import sys
import time

PROBE_EVERY_S = 0.1
probes = []


class Best:
    """A running maximum: the probe's stand-in for object-heavy code."""

    __slots__ = ("value", "count")

    def __init__(self, value):
        self.value = value
        self.count = 0

    def offer(self, value):
        if value > self.value:
            self.value = value
            self.count += 1
            return True
        return False


bests = [Best(i) for i in range(64)]
table = {i: i for i in range(256)}
stack = [0] * 32
copy_from = bytearray(2 << 20)
copy_to = bytearray(len(copy_from))


def probe(signum, frame):
    """Three kinds of work, about a third of the time each: integer
    arithmetic (the exact workloads), method calls with attribute, list
    and dict traffic (the audit) and a 2 MiB memory copy (the vectorized
    sampler).  It works only on objects made once, so it reads the same
    whatever state the program has left the heap in."""
    t0 = time.thread_time()
    x = 0
    for i in range(2500):
        x = (x + i * i) & 0xFFFF
    for i in range(500):
        best = bests[i & 63]
        if best.offer((i * 37) & 1023) or table.get(i & 255, 0) > 128:
            x += 1
        stack[i & 31] = max(stack[(i + 1) & 31], best.count)
        best.value >>= 1
    copy_to[:] = copy_from
    probes.append(time.thread_time() - t0)


def probe_mean(first, last=None):
    """Mean probe time over probes[first:last], or None without probes."""
    window = probes[first:last]
    return sum(window) / len(window) if window else None


signal.signal(signal.SIGALRM, probe)
# Restart interrupted system calls, so no library code sees EINTR.
signal.siginterrupt(signal.SIGALRM, False)
signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

src, spec_text = sys.argv[1:3]
start = time.perf_counter()
sys.path.insert(0, src)
import brokenrecords.cli as cli  # noqa: E402

setup_s = time.perf_counter() - start
setup_probes = len(probes)
sys.stderr.write("perfbench: setup done\n")
sys.stderr.flush()

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

spec = json.loads(spec_text)
package_dir = os.path.dirname(os.path.abspath(cli.__file__))
if os.path.dirname(package_dir) != os.path.abspath(src):
    sys.exit(f"perfbench: imported brokenrecords from {package_dir}, not from {src}")

recorder = None
if spec["trace"]:
    import spans

    recorder = spans.Recorder()
    spans.install(recorder)

captured = io.StringIO()
real_stdout, sys.stdout = sys.stdout, captured
run_first = len(probes)
try:
    t0 = time.perf_counter()
    if recorder is None:
        rc = cli.main(spec["argv"])
    else:
        with recorder.span("cli.main"):
            rc = cli.main(spec["argv"])
    run_s = time.perf_counter() - t0
    run_last = len(probes)
finally:
    sys.stdout = real_stdout
    signal.setitimer(signal.ITIMER_REAL, 0, 0)

record = {
    "rc": rc,
    "setup_s": setup_s,
    "run_s": run_s,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "probe_s": {
        "setup": probe_mean(0, setup_probes),
        "run": probe_mean(run_first, run_last),
        "all": probe_mean(0),
        "count": len(probes),
    },
    "output": captured.getvalue(),
    "versions": {
        name: getattr(sys.modules.get(name), "__version__", "not loaded")
        for name in ("numpy", "scipy")
    },
}
if recorder is not None:
    record["layers"] = recorder.metrics(run_s)
json.dump(record, sys.stdout)
