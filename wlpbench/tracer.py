"""A span tracer that times lefschetz's layers from outside the library.

``Tracer.install()`` wraps the public functions listed in ``TARGETS`` and
re-binds each wrapper in every ``lefschetz`` module that holds the original
under any name (``from .matrices import mod_rank`` in ``ideals`` included),
and patches the listed methods on their classes. ``uninstall()`` puts the
originals back. Timed runs never install it.

Each span records its name, start, end, parent span and the decision it
belongs to. Spans stay in memory, in flat arrays, until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from math import comb

import lefschetz.matrices
import numpy as np


def _std_enum(tr, out, mono_gens, num_vars, d):
    tr.counters["ideals.std_enum.monomials_tested"] += comb(d + num_vars - 1,
                                                            num_vars - 1)
    tr.counters["ideals.std_enum.monomials_returned"] += len(out)


def _mod_rank_name(rows, ncols, p):
    return ("matrices.mod_rank.cert" if p == lefschetz.matrices._CERT_PRIME
            else "matrices.mod_rank.p")


def _mod_rank(tr, out, rows, ncols, p):
    name = _mod_rank_name(rows, ncols, p)
    tr.counters[name + ".entries"] += len(rows) * ncols
    tr.maxima[name + ".max_rows"] = max(tr.maxima[name + ".max_rows"], len(rows))
    tr.maxima[name + ".max_cols"] = max(tr.maxima[name + ".max_cols"], ncols)


def _wlp_check(tr, out, *args, **kwargs):
    tr.counters["wlp.forms_tried"] += out.forms_tried


# (module, attribute or Class.method, span name or a function of the call's
# arguments giving it, counter hook run after the call with its result)
TARGETS = [
    ("lefschetz.ideals", "standard_monomial_tuples", "ideals.std_enum", _std_enum),
    ("lefschetz.ideals", "hilbert_profile", "ideals.hilbert_profile", None),
    ("lefschetz.ideals", "socle_report", "ideals.socle_report", None),
    ("lefschetz.ideals", "is_artinian", "ideals.is_artinian", None),
    ("lefschetz.ideals", "SliceCache.slice_rows", "ideals.slice_rows", None),
    ("lefschetz.ideals", "SliceCache.project", "ideals.project", None),
    ("lefschetz.matrices", "clear_denominators", "matrices.clear_denominators", None),
    ("lefschetz.matrices", "mod_rank", _mod_rank_name, _mod_rank),
    ("lefschetz.matrices", "rank_int_rows", "matrices.rank_int_rows", None),
    ("lefschetz.matrices", "IntRowEchelon.add", "matrices.exact_fallback", None),
    ("lefschetz.matrices", "det_integer", "matrices.det_integer", None),
    ("lefschetz.matrices", "factor", "matrices.factor", None),
    ("lefschetz.criterion", "criterion_report", "criterion.criterion_report", None),
    ("lefschetz.wlp", "wlp_check", "wlp.wlp_check", _wlp_check),
    ("lefschetz.families", "make_ideal", "families.make_ideal", None),
    ("lefschetz.families", "predicates", "families.predicates", None),
    ("lefschetz.families", "aci3_mod3_obstruction", "families.predicates", None),
]


def _lefschetz_modules() -> list:
    """Every lefschetz module, imported now so that none binds an original
    after install()."""
    import lefschetz
    for info in pkgutil.iter_modules(lefschetz.__path__, "lefschetz."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if name == "lefschetz" or name.startswith("lefschetz.")]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.decision = array("i")
        self._stack: list[int] = []
        self._decision_id = -1
        self.counters: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._patches: list = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.decision.append(self._decision_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def _close(self, sid: int):
        self.end[sid] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def set_decision(self, n: int):
        self._decision_id = n

    def wrap(self, fn, name, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name if isinstance(name, str)
                               else name(*args, **kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                hook(tracer, out, *args, **kwargs)
            return out

        return wrapper

    # -- installing ----------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _lefschetz_modules()
        wrappers = {}  # id(original) -> (original, wrapper)
        for modname, attr, name, hook in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(original, name, hook))
            else:
                original = getattr(owner, attr)
                wrappers[id(original)] = (original, self.wrap(original, name, hook))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, value, hit[1])

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def arrays(self) -> dict:
        return {"name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "parent": np.array(self.parent, dtype=np.int32),
                "decision": np.array(self.decision, dtype=np.int32)}

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its direct
        children (which, on one thread, cover disjoint parts of it)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return dur - child

    def summary(self) -> dict:
        """{span name: {"calls", "total_s", "self_s"}}."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=a["end"] - a["start"], minlength=n)
        own = np.bincount(a["name"], weights=self.self_times(), minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def parents_of(self, name: str) -> set:
        """Span ids that have a direct child span of this name."""
        ix = self._name_ix.get(name)
        if ix is None:
            return set()
        a = self.arrays()
        return set(a["parent"][a["name"] == ix].tolist())

    def save(self, path, decision_keys):
        np.savez_compressed(path, names=np.array(self.names),
                            decision_keys=np.array(decision_keys),
                            **self.arrays())
