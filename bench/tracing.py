"""Span tracing of the exactdisc layers, installed from the benchmark side.

`Tracer.install()` replaces each traced function wherever the package has
bound it (a name imported into another module, e.g. `pw_eval` inside
`discretize` or `decide_min` inside `cli`, is replaced too) and wraps the
`Radical` arithmetic and sign methods at class level.  `uninstall()` puts
every original back.  The untraced benchmark run never installs it.

Each wrapped call is a span: name, start, end, parent span and job id.
Spans of every layer except `exactnum` are kept in memory in compact
arrays and written once, at the end.  `Radical` methods run millions of
times per run, so their spans are only aggregated (calls, time) and
charged to the enclosing span as child time.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict

#: span names that differ from "<layer>.<function>"
_ALIASES = {
    "discretize.caratheodory_reduce": "discretize.reduce",
    "discretize.support_lower_bound": "discretize.bound",
    "discretize.forced_region_contradiction": "discretize.bound",
    "discretize._solve_system": "discretize.eliminate",
    "discretize._matrix_rank": "discretize.eliminate",
    "piecewise.pw_support": "piecewise.support",
    "cli._load_subspace": "cli.load",
    "cli._load_rule": "cli.load",
    "cli._emit": "cli.serialize",
}

#: private functions traced as layer boundaries: the CLI's document load and
#: emit steps and the exact elimination kernel.  A name missing here (for
#: instance after a refactor) is skipped and its metrics read 0.
_PRIVATE = {
    "cli": ("_load_subspace", "_load_rule", "_emit"),
    "discretize": ("_solve_system", "_matrix_rank"),
}

#: Radical methods -> span name; each one also counts in "exactnum.arith"
#: except sign, which has its own path split.
_RADICAL = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul", "__neg__": "neg", "__pow__": "pow",
    "__truediv__": "div", "__rtruediv__": "div", "inverse": "inverse",
    "sign": "sign",
}


def _is_rational(x) -> bool:
    terms = getattr(x, "_terms", None)
    return terms is None or not terms or (len(terms) == 1 and terms[0][0] == 1)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = True
        self.job = -1
        self.ids: dict = {}
        self.names: list = []
        self.layer_of: list = []
        self.reset()
        self._saved: list = []

    # -- bookkeeping ----------------------------------------------------

    def sid(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(".")[0])
        return self.ids[name]

    def reset(self) -> None:
        """Forget every aggregate and logged span (names stay registered)."""
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)  # outermost-only inclusive time
        self.self_time = defaultdict(float)
        self.depth = defaultdict(int)
        self.count = defaultdict(int)  # extra counters (probes)
        self.stack: list = []  # frames [child time, log index or -1, start]
        self.log_name = array("i")
        self.log_job = array("i")
        self.log_parent = array("i")
        self.log_start = array("d")
        self.log_end = array("d")
        self.log_self = array("d")
        self.evals: set = set()

    def enter(self, sid: int, groups=(), logged=True):
        for g in (sid,) + groups:
            self.calls[g] += 1
            self.depth[g] += 1
        idx = -1
        if logged:
            idx = len(self.log_name)
            parent = self.stack[-1][1] if self.stack else -1
            self.log_name.append(sid)
            self.log_job.append(self.job)
            self.log_parent.append(parent)
            self.log_start.append(0.0)
            self.log_end.append(0.0)
            self.log_self.append(0.0)
        frame = [0.0, idx, self.clock()]
        self.stack.append(frame)
        return frame

    def exit(self, frame, sid: int, groups=()) -> None:
        end = self.clock()
        child, idx, start = frame
        dur = end - start
        self.stack.pop()
        self.self_time[sid] += dur - child
        for g in (sid,) + groups:
            self.depth[g] -= 1
            if not self.depth[g]:
                self.incl[g] += dur
        if idx >= 0:
            self.log_start[idx] = start
            self.log_end[idx] = end
            self.log_self[idx] = dur - child
        if self.stack:
            self.stack[-1][0] += dur

    def span(self, name: str, fn, probe=None, logged=True):
        """A wrapper of fn recording one span per call.  probe(args) may
        return extra group names the call also counts under."""
        sid = self.sid(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            groups = tuple(tracer.sid(g) for g in probe(args, kwargs)) if probe else ()
            frame = tracer.enter(sid, groups, logged)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, sid, groups)
            if probe is not None and hasattr(probe, "after"):
                probe.after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import exactdisc
        from exactdisc import cli, corpus, discretize, exactnum, piecewise

        modules = {"exactnum": exactnum, "piecewise": piecewise,
                   "discretize": discretize, "corpus": corpus, "cli": cli}
        wrappers: dict = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in _PRIVATE.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                if layer == "corpus":
                    name = "corpus.build"
                elif layer == "cli" and attr != "main" and name not in _ALIASES:
                    continue  # cmd_* bodies count as cli.main self time
                name = _ALIASES.get(name, name)
                probe = _PROBES[name](self) if name in _PROBES else None
                wrappers[id(obj)] = self.span(name, obj, probe, logged=layer != "exactnum")
        for mod in (exactdisc, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and callable(obj):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        radical = exactnum.Radical
        arith = "exactnum.arith"
        for meth, short in _RADICAL.items():
            orig = radical.__dict__[meth]
            if short == "sign":
                probe = _sign_probe
            elif short == "mul":
                probe = _mul_probe
            else:
                probe = lambda args, kwargs: (arith,)
            self._saved.append((radical, meth, orig))
            setattr(radical, meth, self.span(f"exactnum.{short}", orig, probe, logged=False))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------

    def total(self, name: str, what: str = "incl") -> float:
        sid = self.ids.get(name)
        if sid is None:
            return 0
        return {"incl": self.incl, "self": self.self_time, "calls": self.calls}[what][sid]

    def layer_self(self, layer: str) -> float:
        return sum(t for sid, t in self.self_time.items() if self.layer_of[sid] == layer)

    def write(self, path: str) -> int:
        """Write the span log as gzipped TSV; returns the number of spans."""
        with gzip.open(path, "wt") as fh:
            fh.write("span\tname\tjob\tparent\tstart_s\tend_s\tself_s\n")
            for i, sid in enumerate(self.log_name):
                fh.write(
                    f"{i}\t{self.names[sid]}\t{self.log_job[i]}\t{self.log_parent[i]}\t"
                    f"{self.log_start[i]:.9f}\t{self.log_end[i]:.9f}\t{self.log_self[i]:.9f}\n"
                )
        return len(self.log_name)


# ---------------------------------------------------------------------------
# probes: per-call classification for the split metrics


def _mul_probe(args, kwargs):
    if _is_rational(args[0]) and _is_rational(args[1]):
        return ("exactnum.arith", "exactnum.mul.rational")
    return ("exactnum.arith",)


def _sign_probe(args, kwargs):
    terms = args[0]._terms
    mixed = len({c > 0 for _, c in terms}) > 1
    return ("exactnum.sign.refined",) if mixed else ("exactnum.sign.shortcut",)


def _positive_probe(tracer):
    def probe(args, kwargs):
        k = len(args[0].null_basis)
        return (f"discretize.positive_feasible.nulldim{k if k < 5 else '5plus'}",)

    def after(result):
        if type(result).__name__ == "PositiveWitness":
            tracer.count["positive_feasible.witness"] += 1

    probe.after = after
    return probe


def _solve_probe(tracer):
    def probe(args, kwargs):
        return ()

    def after(result):
        if type(result).__name__ == "WeightSolution":
            tracer.count["solve_weights.feasible"] += 1

    probe.after = after
    return probe


def _eval_probe(tracer):
    def probe(args, kwargs):
        key = (id(args[0]), args[1])
        if key not in tracer.evals:
            tracer.evals.add(key)
            tracer.count["pw_eval.distinct"] += 1
        return ()

    return probe


_PROBES = {
    "discretize.positive_feasible": _positive_probe,
    "discretize.solve_weights": _solve_probe,
    "piecewise.pw_eval": _eval_probe,
}
