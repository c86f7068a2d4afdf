"""Outside-in layer tracing for the repository benchmark.

The benchmark measures each layer of ``src/repro`` without editing it:
:class:`Tracer` replaces a layer's public function (a class attribute
or a module global) with a timing wrapper for the length of a ``with``
block and puts the original back afterwards.  Two kinds of record are
kept, both in memory until the run ends:

- **spans** (name, start, end, parent, run id) for the coarse
  boundaries a reader wants on a timeline: a set-up stage, a protected
  run, a ``check_journal`` call, a service request.  They are written
  out as Chrome-trace JSON (``chrome://tracing`` / Perfetto).
- **call totals** for the fine boundaries that fire thousands of times
  per run (runtime hooks, ``JournalRecorder.emit``, one frame read,
  one ``StreamingChecker.feed``).  Keeping a span per call would
  dominate the run being measured, so each wrapper adds its *self
  time* (its duration minus the time of wrapped calls nested inside
  it) and a call count to per-thread totals.

Self time makes the split additive: an ``emit`` made from inside a
kernel hook is charged to the journal, not to the runtime, and the
``parse`` that ``annotate`` runs is charged to ``minic``.
"""

import itertools
import json
import threading
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    """Spans plus per-name self-time totals, safe across threads."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._totals = []        # one {name: [self_s, calls]} per thread
        self._totals_lock = threading.Lock()
        self._patches = []
        self._ids = itertools.count()

    # -- per-thread state -------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []     # child time accumulated per open call
            local.parents = []   # ids of the open spans
            local.totals = {}
            with self._totals_lock:
                self._totals.append(local.totals)
        return local

    def _enter(self):
        self._state().stack.append(0.0)
        return _clock()

    def _leave(self, name, started):
        ended = _clock()
        local = self._local
        elapsed = ended - started
        child = local.stack.pop()
        slot = local.totals.get(name)
        if slot is None:
            slot = local.totals[name] = [0.0, 0]
        slot[0] += elapsed - child
        slot[1] += 1
        if local.stack:
            local.stack[-1] += elapsed
        return ended

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(self, name, run_id=None, **args):
        """Time a coarse boundary as a span (also counted in totals)."""
        local = self._state()
        span_id = next(self._ids)
        parent = local.parents[-1] if local.parents else None
        local.parents.append(span_id)
        started = self._enter()
        try:
            yield args
        finally:
            ended = self._leave(name, started)
            local.parents.pop()
            self.spans.append((span_id, name, started, ended, parent,
                               run_id, threading.get_ident(), args))

    def totals(self):
        """``{name: (self_seconds, calls)}`` summed over all threads."""
        merged = {}
        with self._totals_lock:
            per_thread = [dict(t) for t in self._totals]
        for totals in per_thread:
            for name, (seconds, calls) in totals.items():
                s, c = merged.get(name, (0.0, 0))
                merged[name] = (s + seconds, c + calls)
        return merged

    def span_seconds(self, name):
        """Total duration of the spans called ``name``, children included."""
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)

    def seconds(self, name):
        return self.totals().get(name, (0.0, 0))[0]

    # -- wrapping ---------------------------------------------------------

    def _install(self, owner, attr, replacement):
        # a class keeps the exact object from its own __dict__ so that
        # unwrapping restores it unchanged
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, as_span=False):
        """Time every call of ``owner.attr`` under ``name``; with
        ``as_span`` each call is also kept as a span."""
        original = getattr(owner, attr)
        tracer = self

        if as_span:
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                started = tracer._enter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._leave(name, started)

        self._install(owner, attr, wrapper)

    def wrap_iter(self, owner, attr, name):
        """Time each ``next()`` of the iterator ``owner.attr`` returns,
        excluding the consumer's work between items."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                started = tracer._enter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._leave(name, started)
                yield item

        self._install(owner, attr, wrapper)

    @contextmanager
    def installed(self, install):
        """Run ``install(self)`` to wrap layers; unwrap on exit."""
        mark = len(self._patches)
        install(self)
        try:
            yield self
        finally:
            while len(self._patches) > mark:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- export -----------------------------------------------------------

    def chrome_trace(self, path):
        """Write the spans (and the call totals, as metadata) as a
        Chrome-trace JSON file."""
        if not self.spans:
            base = 0.0
        else:
            base = min(s[2] for s in self.spans)
        threads = {}
        events = []
        for span_id, name, start, end, parent, run_id, ident, args in \
                sorted(self.spans, key=lambda s: (s[2], s[0])):
            tid = threads.setdefault(ident, len(threads))
            event_args = dict(args, span=span_id)
            if parent is not None:
                event_args["parent"] = parent
            if run_id is not None:
                event_args["run"] = run_id
            events.append({"name": name, "cat": name.split(".")[0],
                           "ph": "X", "pid": 0, "tid": tid,
                           "ts": round((start - base) * 1e6, 3),
                           "dur": round((end - start) * 1e6, 3),
                           "args": event_args})
        meta = {name: {"self_s": seconds, "calls": calls}
                for name, (seconds, calls) in sorted(self.totals().items())}
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"layer totals": meta}}, f)


# ----------------------------------------------------------------------
# the layers, by src/repro subpackage
# ----------------------------------------------------------------------

#: the Kivati hooks behind BaseRuntime that the benchmark times
HOOKS = ("on_begin_atomic", "on_end_atomic", "on_clear_ar",
         "on_shadow_store", "on_watchpoint_trap", "on_kernel_entry")


def install_setup(tracer):
    """minic / analysis / compiler: the calls ProtectedProgram makes.

    ``repro.core.session`` and ``repro.analysis.annotate`` bind these
    names at import, so the wrappers go on those modules' globals."""
    import importlib

    # repro.analysis re-exports the annotate function under the
    # submodule's name, so fetch the module itself
    annotate_mod = importlib.import_module("repro.analysis.annotate")
    session_mod = importlib.import_module("repro.core.session")

    tracer.wrap(session_mod, "parse", "minic.parse", as_span=True)
    tracer.wrap(annotate_mod, "parse", "minic.parse", as_span=True)
    tracer.wrap(session_mod, "annotate", "analysis.annotate", as_span=True)
    tracer.wrap(session_mod, "compile_program", "compiler.compile",
                as_span=True)


def install_run(tracer):
    """runtime / kernel hooks and the journal write path."""
    from repro.journal.recorder import JournalRecorder
    from repro.runtime.userlib import KivatiRuntime

    for hook in HOOKS:
        tracer.wrap(KivatiRuntime, hook, "runtime." + hook)
    tracer.wrap(JournalRecorder, "emit", "journal.emit")


def install_check(tracer):
    """The journal read path (frame reader) and the checker."""
    from repro.journal.checker import StreamingChecker
    from repro.journal.stream import EventStream

    tracer.wrap_iter(EventStream, "__iter__", "journal.read")
    tracer.wrap(StreamingChecker, "feed", "checker.feed")


def install_service(tracer):
    """fleet / service: one span per request and per inline job."""
    import importlib

    from repro.service.client import ServiceClient

    worker_mod = importlib.import_module("repro.fleet.worker")

    tracer.wrap(ServiceClient, "submit", "service.submit", as_span=True)
    tracer.wrap(worker_mod, "execute_job", "fleet.execute_job",
                as_span=True)
