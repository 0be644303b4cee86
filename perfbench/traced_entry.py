"""Run ``repro`` with spans recorded around its layer boundaries.

    python perfbench/traced_entry.py SPANS.json REPRO-ARGS...

The benchmark's traced run starts the same ``repro`` command as its
untraced run, through this file instead of ``python -m repro``.  It

1. times its own import of ``repro.__main__``;
2. wraps the boundary functions in ``BOUNDARIES``, patching the name
   where the caller looks it up (a module global or a class attribute);
3. calls ``repro.__main__.main``;
4. keeps every span in memory as ``[name, start, end, parent, note]``;
5. writes the spans and the ``repro.obs.metrics`` counters to SPANS.json
   when ``main`` returns.

Nothing under ``src/`` knows about it.  Times come from
``time.perf_counter()``, which on Linux reads CLOCK_MONOTONIC and so
lines up with the benchmark process's own clock.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path


def _is_hit(result, args) -> int:
    return int(result is not None)


def _bundle_bytes(result, args) -> int:
    path = Path(result)
    if path.is_dir():
        return sum(f.stat().st_size for f in path.iterdir() if f.is_file())
    return path.stat().st_size if path.is_file() else 0


def _addresses(result, args) -> int:
    return int(args[0].size)


def _one_cell(result, args) -> int:
    return 1


def _cells(result, args) -> int:
    return len(args[0])


def _http_status(result, args) -> int:
    return int(result[0])


# (span name, "module" or "module:Class", attribute, note) — the note, when
# given, maps (return value, positional args) to a number kept on the span;
# for a method the args start with the instance.
BOUNDARIES = [
    ("trace.build", "repro.sim.driver", "build_program", None),
    ("cpu.l1_filter", "repro.cpu.streams", "simulate_l1_filter", _addresses),
    ("prep.get", "repro.prep.store:PrepStore", "get", _is_hit),
    ("prep.put", "repro.prep.store:PrepStore", "put", _bundle_bytes),
    ("sim.prepare", "repro.sim.driver", "prepare_program", None),
    ("cache.replay", "repro.cpu.engine:CMPEngine", "run", None),
    ("cache.replay", "repro.cache.batch", "replay_batch", None),
    ("core.interval", "repro.core.runtime:RuntimeSystem", "on_interval", None),
    ("exec.sweep", "repro.spec.run", "run_sweep", None),
    ("exec.engine", "repro.exec.engine:SerialEngine", "run", None),
    ("exec.job", "repro.exec.engine", "execute_job", _one_cell),
    ("exec.job", "repro.exec.batch", "execute_batch", _cells),
    ("exec.store.get", "repro.exec.store:ResultStore", "get", _is_hit),
    ("exec.store.put", "repro.exec.store:ResultStore", "put", None),
    ("exec.journal.append", "repro.exec.journal:SweepJournal", "append", None),
    ("serve.submit", "repro.serve.service:SweepService", "submit", _http_status),
]


class SpanRecorder:
    """In-memory spans; the parent is the innermost open span of the
    calling thread (engine work in the service runs on executor threads)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn, note=None):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if note is not None:
                spans[index][4] = note(result, args)
            return result

        return traced


def _patch(recorder: SpanRecorder, name: str, target: str, attr: str, note) -> None:
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), note))


def _patch_policies(recorder: SpanRecorder) -> None:
    """``partition.step``: every registered policy's ``on_interval``,
    wrapped once on the class that defines it."""
    from repro.partition import POLICY_REGISTRY

    done = set()
    for cls in POLICY_REGISTRY.values():
        owner = next(c for c in cls.__mro__ if "on_interval" in c.__dict__)
        if owner not in done:
            done.add(owner)
            owner.on_interval = recorder.wrap("partition.step", owner.on_interval)


def main(argv: list[str]) -> int:
    out_path, repro_args = Path(argv[0]), argv[1:]
    modules_before = len(sys.modules)
    start = time.perf_counter()
    import repro.__main__ as cli

    import_end = time.perf_counter()
    imported = len(sys.modules) - modules_before
    recorder = SpanRecorder()
    recorder.spans.append(["cli.import", start, import_end, -1, imported])
    for name, target, attr, note in BOUNDARIES:
        _patch(recorder, name, target, attr, note)
    _patch_policies(recorder)
    main_fn = recorder.wrap("cli.main", cli.main)
    code = 1
    try:
        code = main_fn(repro_args)
    finally:
        from repro.obs.metrics import METRICS

        payload = {
            "spans": recorder.spans,
            "counters": METRICS.snapshot().get("counters", {}),
        }
        tmp = out_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, separators=(",", ":")))
        tmp.replace(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
