"""Run telemetry: the ``repro.*`` logger hierarchy and console output.

Two channels, deliberately separated:

* :func:`console` -- the *data* channel: tables, figures, JSON.  It
  writes to ``sys.stdout`` (looked up at call time so pytest's capsys
  and shell redirection both see it) and is the only sanctioned way for
  library/CLI code to produce stdout.
* the ``repro.*`` loggers -- the *diagnostic* channel: progress,
  timings, cache provenance, warnings.  :func:`configure_logging`
  attaches a stderr handler with run context baked into the format, so
  ``command > data.txt`` keeps diagnostics visible and the data clean.

Run context
-----------
Every log record passes through :class:`RunContextFilter`, which stamps
it with the current ``run_id`` and ``spec_hash`` (both ``-`` outside a
run).  :func:`run_context` scopes them (a spec's ``spec_hash`` is
:func:`repro.harness.sweep.spec_hash`)::

    with run_context(run_id="fig9", spec_hash=spec_hash(spec)):
        log.info("starting")          # ... [fig9 1a2b3c4d5e6f] starting
"""

from __future__ import annotations

import contextlib
import logging
import sys
from typing import Dict, Iterator, Optional

ROOT_LOGGER = "repro"

_FORMAT = ("%(asctime)s %(levelname)-7s %(name)s "
           "[%(run_id)s %(spec_hash)s] %(message)s")

# Current run context; module-level so every logger in the hierarchy
# sees the same scope without threading it through call signatures.
_context = {"run_id": "-", "spec_hash": "-"}


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``get_logger("harness")``
    -> ``repro.harness``).  Pass a dotted name already starting with
    ``repro`` to use it verbatim."""
    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


class RunContextFilter(logging.Filter):
    """Stamps every record with the active run_id / spec_hash."""

    def filter(self, record: logging.LogRecord) -> bool:
        record.run_id = _context["run_id"]
        record.spec_hash = _context["spec_hash"]
        return True


def current_context() -> Dict[str, str]:
    """A copy of the active run context (``run_id``/``spec_hash``).

    The event bus stamps these onto every event as correlation IDs,
    and the parallel executor ships them to pool workers so records
    and events emitted *inside a worker process* carry the parent's
    context."""
    return dict(_context)


def seed_context(fields: Dict[str, str]) -> None:
    """Install ``fields`` as the base run context of this process.

    For worker-process initializers only: unlike :func:`run_context`
    it is not scoped, because a pool worker has no enclosing frame to
    restore to -- the parent's context *is* its ambient context."""
    _context.update({key: value for key, value in fields.items()
                     if key in _context})


@contextlib.contextmanager
def run_context(run_id: Optional[str] = None,
                spec_hash: Optional[str] = None) -> Iterator[None]:
    """Scope the run identifiers stamped onto log records."""
    previous = dict(_context)
    if run_id is not None:
        _context["run_id"] = run_id
    if spec_hash is not None:
        _context["spec_hash"] = spec_hash
    try:
        yield
    finally:
        _context.update(previous)


def configure_logging(level: int = logging.INFO,
                      stream=None) -> logging.Logger:
    """Attach a stderr handler (with run context) to the ``repro``
    logger.  Idempotent: reconfiguring replaces the handler installed
    here rather than stacking duplicates."""
    root = logging.getLogger(ROOT_LOGGER)
    root.setLevel(level)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_telemetry", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None
                                    else sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT, datefmt="%H:%M:%S"))
    handler.addFilter(RunContextFilter())
    handler._repro_telemetry = True
    root.addHandler(handler)
    # Diagnostics stay on our handler; don't double-print via the root.
    root.propagate = False
    return root


def console(text: str = "") -> None:
    """Write one line of *data* output to stdout.

    ``sys.stdout`` is resolved at call time, not import time, so
    capture tools (pytest capsys) and late redirection work."""
    sys.stdout.write(text)
    sys.stdout.write("\n")
