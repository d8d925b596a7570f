"""Outside-in tracing of rootproj: spans and counters recorded by wrapping
the module-level names the program looks up at call time.

Nothing under ``src/`` knows about this module.  ``Tracer.install``
replaces attributes such as ``rootproj.detect.match_type`` with wrappers
and ``Tracer.uninstall`` puts the originals back, so an untraced pass in
the same process runs the program exactly as shipped.

A span is ``[name, tag, start, end, parent, proc]``: ``parent`` is the
index of the enclosing span in the same process (-1 at a root) and
``proc`` is 0 for the benchmark process and the worker's pid for spans
recorded in an ``enumerate --jobs`` pool worker.  Spans stay in memory and
are written out when the run ends.  linalg functions are counted, not
timed: a span per call would swamp the run.
"""

from __future__ import annotations

import os
from collections import Counter, namedtuple
from time import perf_counter

from rootproj import classify, cli, detect, linalg, output, projection
from rootproj.detect import ClosureFailure

# The tracer whose wrappers are installed.  Pool workers find it through
# this module-level name because the pool pickles its task function by
# reference; with the fork start method the worker inherits it.
ACTIVE = None

# What a pool worker sends back in place of a bare record document.
Shipped = namedtuple("Shipped", "doc spans counts pid")

COUNTED_LINALG = ("dot", "norm2", "sub", "scale", "neg", "mat_vec", "invert")


def _tag_find_subsystem(args, kwargs, result):
    mode = "restricted" if kwargs.get("restrict_to_delta_theta",
                                      args[2] if len(args) > 2 else False) \
        else "unrestricted"
    return f"{mode}.{'found' if result.found else 'absent'}"


def _count_census_admits(counts, result):
    counts["detect.census_admits.calls"] += 1
    counts["detect.census_admits.rejects"] += not result


def _count_match_type(counts, result):
    counts["detect.match_type.calls"] += 1
    counts["detect.match_type.typed"] += result is not None


def _count_reflection_closure(counts, result):
    counts["detect.reflection_closure.calls"] += 1
    if isinstance(result, ClosureFailure):
        counts["detect.reflection_closure.oversize"] += result.oversize
        counts["detect.reflection_closure.escaped"] += result.escaping is not None
    else:
        counts["detect.reflection_closure.certified"] += 1


def _count_project_all(counts, result):
    counts["projection.project_all.calls"] += 1
    counts["projection.sigma_theta_vectors"] += len(result.sigma_theta)


def _count_find_subsystem(counts, result):
    counts["detect.find_subsystem.calls"] += 1


# (module, attribute, span name, counter hook).  Each module is the one
# whose global lookup the program makes, e.g. cli calls its own
# ``classify_theta`` binding and classify its own ``project_all``.
SPAN_SITES = (
    (cli, "classify_theta", "classify.classify_theta", None),
    (classify, "project_all", "projection.project_all", _count_project_all),
    (projection, "project_all", "projection.project_all", _count_project_all),
    (classify, "classify_max_rank", "detect.classify_max_rank", None),
    (detect, "find_subsystem", "detect.find_subsystem", _count_find_subsystem),
    (detect, "census_admits", "detect.census_admits", _count_census_admits),
    (detect, "match_type", "detect.match_type", _count_match_type),
    (detect, "reflection_closure", "detect.reflection_closure",
     _count_reflection_closure),
    (output, "detection_doc", "output.detection_doc", None),
)

# projection reaches scale and neg as ``linalg.scale``/``linalg.neg``; the
# rest it and detect bind by name at import.
COUNT_SITES = tuple(
    (mod, name) for mod in (projection, detect, linalg)
    for name in COUNTED_LINALG
    if hasattr(mod, name) and (mod is not linalg or name in ("scale", "neg")))


class Tracer:
    """Spans and counters for one traced pass.

    ``full=False`` installs only the per-record probe on ``enumerate``
    (``cli._one_record``/``cli._write_record``), which the untraced
    passes use to time each theta record, also inside pool workers.
    """

    def __init__(self, full: bool = True):
        self.full = full
        self.pid = os.getpid()
        self.spans = []
        self.counts = Counter()
        self.stack = []
        self._saved = []

    # -- wrappers ------------------------------------------------------

    def _timed(self, name, fn, count=None, tag=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span = [name, "", 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                count(tracer.counts, result)
            if tag is not None:
                span[1] = tag(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, key, fn):
        tracer = self

        def wrapper(*args):
            tracer.counts[key] += 1
            return fn(*args)
        return wrapper

    def _patch(self, mod, attr, new):
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    # -- install / uninstall ------------------------------------------

    def install(self) -> "Tracer":
        global ACTIVE
        if ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        self._record = self._timed("cli.one_record", cli._one_record)
        self._write = self._timed("cli.write_record", cli._write_record)
        self._patch(cli, "_one_record", one_record)
        self._patch(cli, "_write_record", write_record)
        if self.full:
            tags = {"detect.find_subsystem": _tag_find_subsystem}
            for mod, attr, name, count in SPAN_SITES:
                self._patch(mod, attr, self._timed(
                    name, getattr(mod, attr), count, tags.get(name)))
            for mod, attr in COUNT_SITES:
                self._patch(mod, attr, self._counted(
                    f"linalg.{attr}.calls", getattr(mod, attr)))
        ACTIVE = self
        return self

    def uninstall(self) -> None:
        global ACTIVE
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        ACTIVE = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args) under a span recorded by the benchmark itself."""
        return self._timed(name, fn)(*args, **kwargs)

    def merge(self, shipped: Shipped) -> None:
        offset = len(self.spans)
        for name, tag, start, end, parent, _ in shipped.spans:
            self.spans.append([name, tag, start, end,
                               parent + offset if parent >= 0 else -1,
                               shipped.pid])
        self.counts.update(shipped.counts)


def one_record(task):
    """Stand-in for ``cli._one_record`` while a tracer is installed.

    In a pool worker the record's spans and counters travel back with
    the document, because the worker's memory is not the benchmark's.
    """
    tracer = ACTIVE
    if os.getpid() == tracer.pid:
        return tracer._record(task)
    tracer.spans.clear()
    tracer.counts.clear()
    tracer.stack.clear()
    doc = tracer._record(task)
    return Shipped(doc, list(tracer.spans), Counter(tracer.counts),
                   os.getpid())


def write_record(out, doc, fmt):
    """Stand-in for ``cli._write_record``: unpacks what a worker shipped."""
    tracer = ACTIVE
    if isinstance(doc, Shipped):
        tracer.merge(doc)
        doc = doc.doc
    return tracer._write(out, doc, fmt)


# ---------------------------------------------------------------------------
# reading spans


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    out = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def totals(spans, by_tag=False):
    """Inclusive and self seconds summed per span name (and tag)."""
    incl, self_ = Counter(), Counter()
    for span, own in zip(spans, self_times(spans)):
        key = f"{span[0]}.{span[1]}" if by_tag and span[1] else span[0]
        incl[key] += span[3] - span[2]
        self_[key] += own
    return incl, self_
