"""In-memory span recorder that instruments skypix from outside.

The recorder replaces public functions with thin wrappers while a traced
pass runs and puts the originals back afterwards, so untraced passes run
the program exactly as shipped.  A function is replaced on its defining
module and on every other ``skypix`` module that bound the same object at
import time (``skypix.frame.sample_without_replacement`` is
``skypix.rng.sample_without_replacement``); methods are replaced on their
class and click commands on their ``callback``.

Each call records a span: name, start, end and the index of the enclosing
span (-1 at top level).  A span's self time is its duration minus the
durations of its direct children; spans nest strictly because the program
is single threaded.
"""

import json
import resource
import sys
import time


# Process CPU time (user + system, all threads).  On a shared virtual
# machine, time stolen by the host shows up in wall time, and it varies
# from run to run.  The benchmark runs skypix on one thread (BLAS pinned),
# so this clock reads the time a pass takes on an unshared core.  Time
# spent off the CPU, e.g. waiting on storage, is not counted.  The
# workloads read and write through the page cache and have none.
clock = time.process_time


def maxrss_mb():
    """High-water mark of this process's resident set, MB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = []       # per span: dict of named counts, or None
        self.calls_only = {}   # name -> calls, for count-only wrappers
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    # -- instrumentation ---------------------------------------------------

    def _wrapper(self, name, original, pre, post, rss):
        now = clock

        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.counts.append(None)
            state = pre(args, kwargs) if pre else None
            rss0 = maxrss_mb() if rss else 0.0
            self._stack.append(idx)
            self.starts.append(now())
            self.ends.append(0.0)
            try:
                result = original(*args, **kwargs)
            finally:
                self.ends[idx] = now()
                self._stack.pop()
            extra = post(args, kwargs, result, state) if post else {}
            if rss:
                extra["maxrss_rise_mb"] = maxrss_mb() - rss0
            if extra:
                self.counts[idx] = extra
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def _counter(self, name, original):
        calls = self.calls_only
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def function(self, name, module, attribute, pre=None, post=None,
                 rss=False, calls_only=False):
        """Wrap ``module.attribute`` and every skypix alias bound to it."""
        original = getattr(module, attribute)
        if calls_only:
            replacement = self._counter(name, original)
        else:
            replacement = self._wrapper(name, original, pre, post, rss)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("skypix"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, replacement)

    def method(self, name, cls, attribute, pre=None, post=None):
        original = cls.__dict__[attribute]
        self._patch(cls, attribute,
                    self._wrapper(name, original, pre, post, False))

    def command(self, name, cmd):
        self._patch(cmd, "callback",
                    self._wrapper(name, cmd.callback, None, None, False))

    def restore(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def totals(self):
        """name -> {"self_s", "calls", <summed counts>, maxrss_rise_mb (max)}."""
        out = {}
        for name, own, extra in zip(self.names, self.self_times(),
                                    self.counts):
            agg = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            agg["self_s"] += own
            agg["calls"] += 1
            for key, value in (extra or {}).items():
                if key == "maxrss_rise_mb":
                    agg[key] = max(agg.get(key, 0.0), value)
                else:
                    agg[key] = agg.get(key, 0) + value
        for name, calls in self.calls_only.items():
            out.setdefault(name, {"self_s": 0.0, "calls": 0})["calls"] += calls
        return out

    def top_level_seconds(self, start, end):
        """Time covered by top-level spans that begin inside [start, end]."""
        return sum(e - s for s, e, p in zip(self.starts, self.ends,
                                            self.parents)
                   if p < 0 and start <= s <= end)

    def write(self, path):
        """Write every span as ``[name, start, end, parent, counts]``."""
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "counts"],
                       "spans": [list(row) for row in zip(
                           self.names, self.starts, self.ends, self.parents,
                           self.counts)],
                       "calls_only": self.calls_only}, fh)
