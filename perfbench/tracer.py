"""Span recorder that wraps library functions from outside the library.

A span is (id, parent, name, start_ns, end_ns, thread, count, note).  Spans
stay in memory until the run ends and are then written out in one go.  The
wrappers are thread-safe: the oracle evaluates its integrand in a thread
pool, so spans opened in a worker thread with nothing open on that thread
take the innermost span open on the installing thread as their parent.
"""

from __future__ import annotations

import gzip
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._home = threading.get_ident()
        self._home_top = None  # innermost open span of the installing thread
        self._patches = []

    # -- span bookkeeping ------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else self._home_top
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        if threading.get_ident() == self._home:
            self._home_top = sid
        return sid, parent, time.perf_counter_ns()

    def _close(self, sid, parent, name, start, end, count, note):
        stack = self._stack()
        stack.pop()
        if threading.get_ident() == self._home:
            self._home_top = stack[-1] if stack else None
        with self._lock:
            self.spans.append((sid, parent, name, start, end, threading.get_ident(), count, note))

    @contextmanager
    def span(self, name, count=0):
        """A span around code in the benchmark itself (an op, a CLI call)."""
        sid, parent, start = self._open()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, time.perf_counter_ns(), count, "")

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name, func, measure=None):
        """Return a traced stand-in for func.

        measure(args, kwargs, result) -> (count, note) gives the span its
        hardware-independent work count.  When func raises, measure gets
        result None; if it cannot count without a result the span counts 0.
        """

        def traced(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter_ns()
                count = 0
                if measure:
                    try:
                        count = measure(args, kwargs, None)[0]
                    except Exception:  # the library's own exception is the one to report
                        pass
                self._close(sid, parent, name, start, end, count, f"raised {type(exc).__name__}")
                raise
            end = time.perf_counter_ns()
            count, note = measure(args, kwargs, result) if measure else (0, "")
            self._close(sid, parent, name, start, end, count, note)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, modules, targets):
        """Replace every binding of each target function in the given modules.

        targets maps the original function object to (span name, measure).
        Modules bind imported names at import time, so each module where a
        caller looks the name up gets its own replacement.
        """
        for module in modules:
            for attr, value in list(vars(module).items()):
                spec = targets.get(value) if callable(value) else None
                if spec is not None:
                    setattr(module, attr, self.wrap(spec[0], value, spec[1]))
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def write(self, path):
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\tthread\tcount\tnote\n")
            for sid, parent, name, start, end, thread, count, note in self.spans:
                parent = "" if parent is None else parent
                out.write(f"{sid}\t{parent}\t{name}\t{start}\t{end}\t{thread}\t{count}\t{note}\n")


def summarize(spans):
    """Per span name: calls, summed count, summed duration and self time (s).

    Self time is a span's duration minus the part of it that its child spans
    cover; children running concurrently in a pool are merged first, so
    their overlap is not subtracted twice.
    """
    children = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[3], span[4]))
    table = {}
    for sid, _parent, name, start, end, _thread, count, _note in spans:
        covered = 0
        last = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, last), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                last = c_end
        row = table.setdefault(name, [0, 0, 0, 0])
        row[0] += 1
        row[1] += count
        row[2] += end - start
        row[3] += end - start - covered
    return {
        name: {"calls": r[0], "count": r[1], "s": r[2] * 1e-9, "self_s": r[3] * 1e-9}
        for name, r in table.items()
    }


def op_of(spans):
    """Map each span id to the id of its enclosing "op" span (or None)."""
    op_name = "op"
    parent = {s[0]: s[1] for s in spans}
    name = {s[0]: s[2] for s in spans}
    owner = {}
    for sid in parent:
        path = []
        node = sid
        while node is not None and node not in owner and name.get(node) != op_name:
            path.append(node)
            node = parent.get(node)
        top = owner.get(node) if node in owner else node
        for p in path:
            owner[p] = top
        if name.get(sid) == op_name:
            owner[sid] = sid
    return owner
