#!/usr/bin/env python
"""Crash recovery on a persistent red-black tree.

Failure atomicity is what PMEM-Spec's whole recovery story rests on
(§4.4 treats misspeculation as a *virtual* power failure).  This demo
shows the real thing:

1. two threads insert/delete into persistent red-black trees through
   undo-logged FASEs under the PMEM-Spec design;
2. we cut power at a series of arbitrary cycles;
3. ADR preserves exactly the PM controller's accepted writes -- the
   snapshot may contain *torn* FASEs (some node pointers updated, some
   not; rotations half-applied);
4. the recovery protocol scans each thread's epoch-stamped undo log and
   rolls uncommitted FASEs back;
5. a full structural validator walks the recovered trees: BST order,
   red-red violations, black-height balance, parent pointers, cycles;
   the persist-order oracle replays the run's persists up to the cut.

Each crash is one :func:`repro.validation.run_trial` with the
``power-cut`` fault -- the same trial a ``validate`` campaign runs.

Run:  python examples/crash_recovery_demo.py
"""

from dataclasses import replace

from repro.validation import TrialSpec, profile_cell, run_trial

SPEC = TrialSpec("rbtree", "PMEM-Spec", fault="power-cut", n_threads=2,
                 fases_per_thread=15, seed=2026)


def main() -> None:
    total = profile_cell(SPEC).total_cycles
    print(f"Uninterrupted run: {total:,} cycles for "
          f"{SPEC.n_threads * SPEC.fases_per_thread} tree operations "
          f"under {SPEC.design}.\n")

    print(f"{'crash cycle':>12} {'committed':>10} {'rolled-back':>12} "
          f"{'tree valid':>11}")
    print("-" * 49)
    consistent = 0
    crashes = [round(total * fraction) for fraction in
               (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95)]
    for crash_cycle in crashes:
        outcome = run_trial(replace(SPEC, crash_cycle=crash_cycle))
        status = "yes" if outcome["consistent"] else "NO!"
        consistent += outcome["consistent"]
        print(f"{crash_cycle:>12,} {outcome['commits_before_crash']:>10} "
              f"{len(outcome['rolled_back_threads']):>12} {status:>11}")
        for violation in outcome["violations"][:3]:
            print(f"    !! {violation['kind']}: {violation['detail']}")

    print("-" * 49)
    print(f"{consistent}/{len(crashes)} crash points recovered to a "
          f"structurally valid red-black tree.")
    assert consistent == len(crashes)


if __name__ == "__main__":
    main()
