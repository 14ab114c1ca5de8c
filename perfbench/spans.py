"""Per-layer spans, recorded from outside the program.

The tracer replaces module and class attributes of bnfstab with timing
wrappers.  Every cross-module call in bnfstab goes through a module
attribute (``poly.realify``, ``birkhoff.birkhoff_normal_form``, ...) and
calls inside ``polyalg`` resolve through its module globals, so replacing
the attribute catches both.  ``uninstall`` puts the originals back.

Each span records its name, start, end, parent span and operation id, plus
the counts taken at the same boundary.  Spans stay in memory until
``write_csv`` at the end of the run.
"""

import functools
import time


def _state_counts(args, state):
    return {"terms_F": sum(p.num_terms for p in state.f.values()),
            "terms_chi": sum(p.num_terms for p in state.chi.values()),
            "terms_Z": sum(len(z.terms()) for z in state.z.values())}


def _written_bytes(args, text):
    return {"ledger_bytes": len(text.encode())}


def _read_bytes(args, state):
    return {"ledger_bytes": len(args[1].encode())}


# span name -> (module of the owner, owner attribute path, attribute, counts)
TARGETS = {
    "polyalg.realify": ("polyalg", "", "realify", None),
    "polyalg.complexify": ("polyalg", "", "complexify", None),
    "polyalg.linear_substitute": ("polyalg", "", "linear_substitute", None),
    "polyalg.poisson_bracket": ("polyalg", "", "poisson_bracket", None),
    "polyalg.polydisc_norm": ("polyalg", "", "polydisc_norm", None),
    "birkhoff.normal_form": ("birkhoff", "", "birkhoff_normal_form",
                             _state_counts),
    "cli.write_ledger": ("birkhoff", "NormalFormState", "to_text",
                         _written_bytes),
    "cli.read_ledger": ("birkhoff", "NormalFormState", "from_text",
                        _read_bytes),
    "cli.read_ham": ("polyalg", "GradedSeries", "from_text", None),
    "spectrum.diagonalize": ("spectrum", "", "diagonalize_quadratic", None),
    "spectrum.nonresonance": ("spectrum", "", "check_nonresonance", None),
    "spectrum.pushforward": ("spectrum", "LinearSymplecticMap",
                             "pushforward", None),
    "stability.drift_bound": ("stability", "", "drift_bound", None),
    "stability.sweep": ("stability", "", "sweep", None),
    "stability.sweep_csv": ("stability", "", "sweep_csv", None),
    "celestial.poincare": ("celestial", "", "poincare_variables", None),
    "celestial.read_state": ("celestial", "PoincareState", "from_text", None),
}


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "child_time",
                 "counts")

    def __init__(self, sid, name, op, parent, start):
        self.id = sid
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = None
        self.child_time = 0.0
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        """Duration minus the time covered by the direct children."""
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.op,
                    parent.id if parent else None, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_time += span.duration

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.counts.update(counter(args, result))
            return result
        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package):
        """Wrap every TARGETS entry of the imported bnfstab package."""
        for name, (module, owner_path, attr, counter) in TARGETS.items():
            owner = getattr(package, module)
            if owner_path:
                owner = getattr(owner, owner_path)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, counter))
            else:
                wrapped = self._wrap(name, raw, counter)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write_csv(self, path, header_lines):
        names = {s.id: s.name for s in self.spans}
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("id,op,name,parent,parent_name,start_s,end_s,self_s,"
                     "counts\n")
            for s in self.spans:
                counts = ";".join(f"{k}={v}" for k, v in s.counts.items())
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.id},{s.op},{s.name},{parent},"
                         f"{names.get(s.parent, '')},{s.start - t0:.9f},"
                         f"{s.end - t0:.9f},{s.self_time:.9f},{counts}\n")

    def per_op(self):
        """op id -> {span name: [self s, total s, calls, {count: sum}]}."""
        table = {}
        for s in self.spans:
            row = table.setdefault(s.op, {}).setdefault(
                s.name, [0.0, 0.0, 0, {}])
            row[0] += s.self_time
            row[1] += s.duration
            row[2] += 1
            for k, v in s.counts.items():
                row[3][k] = row[3].get(k, 0) + v
        return table

    def by_caller(self):
        """(span name, parent name) -> [self s, calls], over all ops."""
        names = {s.id: s.name for s in self.spans}
        table = {}
        for s in self.spans:
            row = table.setdefault((s.name, names.get(s.parent, "-")),
                                   [0.0, 0])
            row[0] += s.self_time
            row[1] += 1
        return table
