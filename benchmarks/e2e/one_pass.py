"""One pass of one workload in a fresh process; prints one JSON line.

``run.py`` starts this file once per pass, so every pass pays the cold
process caches a CLI call pays.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before the spawn (the clock is system-wide),
which makes ``setup_s`` span interpreter start, imports and input
generation.

Modes:

========== ============================================================
``plain``   the command as users run it, in-process
``spans``   plain, with :class:`layers.SpanTracer` installed
``profile`` plain, under cProfile, rolled up by layer
``pooled``  ``campaign-short`` on a 2-worker pool, with an event bus on
            and :class:`layers.PoolTap`
========== ============================================================
"""

import argparse
import contextlib
import cProfile
import json
import pstats
import resource
import sys
import time

import layers
from workloads import WORKLOADS

MODES = ("plain", "spans", "profile", "pooled")


def own_peak_rss_kib() -> int:
    """Peak RSS of this process image.  Linux carries a child's RSS at
    fork over into its ``ru_maxrss`` across exec, so that figure never
    reads below the runner's own; ``VmHWM`` starts at exec."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.tiny, args.workdir)
    setup_s = time.monotonic() - args.spawned_at

    instrument = profiler = None
    scope = contextlib.nullcontext()
    if args.mode == "spans":
        instrument = layers.SpanTracer().install()
    elif args.mode == "pooled":
        from repro.obsv.bus import EventBus, bus_scope
        instrument = layers.PoolTap().install()
        bus = EventBus()
        bus.subscribe(instrument)
        scope = bus_scope(bus)
    elif args.mode == "profile":
        profiler = cProfile.Profile()

    with scope:
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            output = workload.run(inputs, args.mode == "pooled")
        finally:
            if profiler is not None:
                profiler.disable()
            wall_s = time.perf_counter() - start
            if instrument is not None:
                instrument.uninstall()

    groups, problems, extra = workload.judge(inputs, output)
    rss_kib = max(own_peak_rss_kib(),
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": rss_kib / 1024.0, "groups": groups,
              "problems": problems, "extra": extra, "layers": {}}
    if instrument is not None:
        result["layers"] = instrument.metrics()
    if profiler is not None:
        result["layers"] = layers.host_shares(pstats.Stats(profiler))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
