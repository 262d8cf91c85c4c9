"""Span tracer that wraps the attributes through which one layer calls the next.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces
module attributes (and the two dataclass validators) with wrappers that
record one span per call -- name, start, end, parent and a small tag --
and :meth:`Tracer.uninstall` puts the originals back.  Spans stay in
memory until :meth:`Tracer.save`.  An attribute that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


def _level(args):
    return args[0].num_qubits          # rho of a roof search


def _leaf_level(args):
    return args[1]                     # m of _pure_m_tangle_amps


def _pair_before(args):
    w, i, j = args[2], args[3], args[4]
    return (float(w[i]), float(w[j]))


def _pair_applied(args, out, before):
    w, i, j = args[2], args[3], args[4]
    return (float(w[i]), float(w[j])) != before


def _restarts(args, out, level):
    return (level, out.restarts_used)


# (module, attribute, span name, tag before the call, tag after the call)
TARGETS = (
    ("monogamy", "sm_residual", "monogamy.sm_residual", None, None),
    ("monogamy", "mixed_tangle_term", "monogamy.term", None, None),
    ("roof", "m_tangle_mixed", "roof.search", _level, _restarts),
    ("tangle", "_roof_minimize", "roof.search", _level, _restarts),
    ("roof", "_pair_step", "roof.pair_step", _pair_before, _pair_applied),
    ("tangle", "_pure_m_tangle_amps", "tangle.leaf", _leaf_level, None),
    ("tangle", "_concurrence_matrix", "tangle.concurrence", None, None),
    ("tangle", "_reduced_from_pure", "qstate.reduce", None, None),
    ("qstate", "_reduced_from_pure", "qstate.reduce", None, None),
    ("qstate", "DensityOperator.__post_init__", "qstate.validate", None, None),
    ("qstate", "StateVector.__post_init__", "qstate.validate", None, None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.tags: list = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.absent: list[str] = []
        self.untagged: set[str] = set()   # spans whose tag could not be read

    def wrap(self, name, fn, before=None, after=None):
        names, start, end = self.names, self.start, self.end
        parent, tags, stack = self.parent, self.tags, self._stack
        clock = time.perf_counter

        untagged = self.untagged

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            tag = None
            if before:
                try:
                    tag = before(args)
                except Exception:   # the signature changed: keep the call
                    untagged.add(name)
            tags.append(tag)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after:
                try:
                    tags[idx] = after(args, out, tag)
                except Exception:
                    untagged.add(name)
            return out

        return traced

    def install(self, modules: dict, targets=TARGETS) -> None:
        """Wrap every target found in ``modules`` (name -> module object)."""
        for mod_name, attr, span, before, after in targets:
            owner = modules.get(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                if f"{mod_name}.{attr}" not in self.absent:
                    self.absent.append(f"{mod_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(span, original, before, after))
            self._installed.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    def save(self, path) -> None:
        codes = sorted(set(self.names))
        index = {n: k for k, n in enumerate(codes)}
        np.savez(path, names=np.array(codes),
                 name=np.array([index[n] for n in self.names], dtype=np.int16),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64))


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for idx, p in enumerate(parent):
        if p >= 0:
            children[p].append(idx)
    out = []
    for idx, (s, e) in enumerate(zip(start, end)):
        covered = 0.0
        cursor = s
        for c in sorted(children.get(idx, ()), key=start.__getitem__):
            lo, hi = max(start[c], cursor), min(end[c], e)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((e - s) - covered)
    return out


def layer_metrics(tracer: Tracer, items: int) -> dict:
    """Per-layer metrics (value, unit) from a traced pass over ``items`` items.

    Counts are per item; ``_us``/``_ms`` values are per call.  A metric fed
    by an attribute that is gone, or whose tag no longer reads, is left
    out: absent, not zero.
    """
    gone = {span for mod, attr, span, _, _ in TARGETS
            if f"{mod}.{attr}" in tracer.absent} | tracer.untagged
    prefixes = {"roof.search": ("roof.search", "roof.restarts_used"),
                "tangle.leaf": ("tangle.leaf",),
                "monogamy.sm_residual": ("monogamy.sm_residual",)}
    dropped = tuple(p for span in gone for p in prefixes.get(span, (span,)))
    selft = self_times(tracer.start, tracer.end, tracer.parent)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    applied = 0
    restarts = []
    for idx, name in enumerate(tracer.names):
        tag = tracer.tags[idx]
        key = name
        if name in gone:
            continue
        if name == "tangle.leaf":
            key = f"{name}.m{tag}"
        elif name == "roof.search":
            key = f"{name}.m{tag[0]}"
            restarts.append(tag[1])
        elif name == "roof.pair_step":
            applied += tag
        calls[key] += 1
        total[key] += tracer.end[idx] - tracer.start[idx]
        own[key] += selft[idx]

    def per_call(table, key, scale):
        return table[key] / calls[key] * scale if calls[key] else 0.0

    m = {}
    for lvl in (3, 4, 5):
        key = f"tangle.leaf.m{lvl}"
        m[f"tangle.leaf.calls.m{lvl}"] = (calls[key] / items, "count")
        m[f"tangle.leaf.self_us.m{lvl}"] = (per_call(own, key, 1e6), "us")
        m[f"tangle.leaf.us.m{lvl}"] = (per_call(total, key, 1e6), "us")
    for key in ("qstate.reduce", "qstate.validate", "tangle.concurrence"):
        m[f"{key}.calls"] = (calls[key] / items, "count")
        m[f"{key}.us"] = (per_call(total, key, 1e6), "us")
    steps = calls["roof.pair_step"]
    m["roof.pair_step.calls"] = (steps / items, "count")
    m["roof.pair_step.self_us"] = (per_call(own, "roof.pair_step", 1e6), "us")
    m["roof.pair_step.useful_frac"] = (applied / steps if steps else 0.0, "ratio")
    for lvl in (2, 3, 4, 5):
        key = f"roof.search.m{lvl}"
        m[f"roof.search.calls.m{lvl}"] = (calls[key] / items, "count")
        m[f"roof.search.ms.m{lvl}"] = (per_call(total, key, 1e3), "ms")
    m["roof.restarts_used.mean"] = (
        sum(restarts) / len(restarts) if restarts else 0.0, "count")
    m["monogamy.sm_residual.self_ms"] = (
        per_call(own, "monogamy.sm_residual", 1e3), "ms")
    return {k: v for k, v in m.items() if not k.startswith(dropped)}
