"""Host speed from a fixed pure-Python kernel, to scale timings by.

On a shared VM, the speed of the same code drifts by 20-30% over
minutes as neighbours come and go, and CPU time drifts with it: a
single-workload run measures the host as much as the program.  The
runner therefore samples this kernel just before and just after every
pass, and scales each run's timings by ``scale(median speed)`` (see
README.md, "Host speed").

The kernel uses only the standard library, so no change to the program
can move it.  It is the simulator's inner loop in miniature: an event
heap over slotted objects, with dict and list work per event.  Its
working set stays in the core's caches, so a sample does not depend on
what the pass before it evicted.
"""

import heapq
import time

#: Kernel iterations per second on the reference host, a 2-vCPU shared
#: VM under Python 3.11: a minute of 0.5 s samples there had a median of
#: 564 and quartiles of 511 and 748 (range 462-920).  Timings at
#: reference speed read close to wall-clock ones in its quicker minutes.
REFERENCE_RATE = 700.0
#: How strongly the program's speed follows the kernel's: a host whose
#: kernel rate drops by a factor k runs the program slower by about
#: k ** SENSITIVITY.  The tight kernel loop suffers more from a busy
#: neighbour than the simulator does.  Over 20 single-workload runs of
#: each workload on the reference host (seeds 1-20), the least-squares
#: slope of log throughput on log host speed was 0.71-0.77, and that of
#: log ``setup_s`` -0.70 to -0.80.
SENSITIVITY = 0.75
#: Seconds of kernel per sample.
SAMPLE_S = 0.15
NODES = 512
STEPS = 1_000
WARMUP_RUNS = 50


class _Node:
    __slots__ = ("key", "count", "links")

    def __init__(self, key: int):
        self.key = key
        self.count = 0
        self.links = []


def kernel() -> int:
    """One iteration, ~1.4 ms on the reference host; the same work every
    time, from fresh objects."""
    nodes = [_Node(key) for key in range(NODES)]
    table = {}
    heap = [(0, 0, 0)]
    seq = total = 0
    for step in range(STEPS):
        now, _, key = heapq.heappop(heap)
        node = nodes[key]
        node.count += 1
        if len(node.links) < 8:
            node.links.append(step & 511)
        total += sum(node.links) & 7
        table[key] = table.get(key, 0) + node.count
        nxt = (key * 31 + step) & 511
        seq += 1
        heapq.heappush(heap, (now + 1 + (step & 7), seq, nxt))
        if len(heap) < 64:
            seq += 1
            heapq.heappush(heap, (now + 3, seq, (nxt + 7) & 511))
    return total + len(table)


class HostSpeed:
    """Samples this host's speed; create one per runner."""

    def __init__(self):
        # The interpreter specialises the kernel's bytecode over its
        # first ~20 runs, which take up to twice as long as later ones.
        for _ in range(WARMUP_RUNS):
            kernel()

    def sample(self, seconds: float = SAMPLE_S) -> float:
        """This host's speed over the next ``seconds``, as a multiple of
        the reference host's: above 1 when faster."""
        done, start = 0, time.perf_counter()
        while True:
            kernel()
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return done / elapsed / REFERENCE_RATE


def scale(host_speed: float) -> float:
    """How much faster than the reference host the program runs on a
    host of ``host_speed``: divide a throughput by it, multiply a time."""
    return host_speed ** SENSITIVITY
