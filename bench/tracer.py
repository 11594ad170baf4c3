"""Layer tracer that wraps mdkit's public functions from outside the package.

Every public function of a layer module is replaced, in every mdkit module
namespace that binds it, by a wrapper that keeps a call stack.  Each frame
learns how long its callees ran, so a function's self time is its duration
minus the time of the wrapped calls it made.  Hot functions (the torus
operations and the vector draw, millions per run) are only aggregated;
every other call is also kept as a span and written out at the end.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("torus", "shiftspace", "tower", "complexes", "finite", "meandim", "cli")

# Functions aggregated into counters instead of one span per call.
HOT = {
    "torus": None,  # the whole module
    "shiftspace": {"random_torus_vec"},
    "tower": {"level_gap"},
}

# Per-layer metrics that sum the self time of a group of functions.
SELF_GROUPS = {
    "shiftspace.membership_self_s": ["shiftspace.check_membership"],
    "shiftspace.sampler_self_s": [
        "shiftspace.sample_periodic_gap_point",
        "shiftspace.sample_gap_window",
        "shiftspace.random_window",
        "shiftspace.random_torus_vec",
    ],
    "shiftspace.dilation_self_s": ["shiftspace.power_map", "shiftspace.shift", "shiftspace.unroll"],
    "shiftspace.count_self_s": [
        "shiftspace.count_periodic_sft",
        "shiftspace.count_periodic_sft_bruteforce",
        "shiftspace.periodic_witness",
    ],
    "tower.section_self_s": ["tower.section_map"],
    "tower.factor_self_s": ["tower.factor_map"],
    "tower.aperiodicity_self_s": ["tower.tower_aperiodicity_report"],
    "complexes.build_self_s": ["complexes.build_en_zp", "complexes.join_complexes"],
    "complexes.snf_self_s": ["complexes.smith_normal_form_diagonal"],
    "complexes.eqmap_self_s": ["complexes.equivariant_map_search"],
    "finite.marker_search_self_s": ["finite.marker_search"],
    "finite.enumerate_self_s": ["finite.enumerate_markers"],
    "finite.verify_marker_self_s": ["finite.verify_marker"],
    "finite.embed_self_s": ["finite.embed_into_universal", "finite.epsilon_embedding"],
    "meandim.face_lattice_self_s": ["meandim.face_lattice"],
    "meandim.cover_D_self_s": ["meandim.cover_D"],
}


class Tracer:
    """Call stack, per-function totals, counters and spans of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: Counter = Counter()
        # frames are [function id, span id, callee time]
        self.stack: list[list] = []
        self.request = -1
        # spans: id is the position; parent -1 is a command's top span
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_func = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.originals: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "mdkit" or n.startswith("mdkit.")]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"mdkit.{layer}"]
            hot = HOT.get(layer, set())
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                aggregate = layer in HOT and (hot is None or name in hot)
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}", span=not aggregate)
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self.originals.append((module, name, value))
                    setattr(module, name, wrapper)
        vec = sys.modules["mdkit.torus"].TorusVec
        for name in ("__add__", "__sub__", "__neg__"):
            self.originals.append((vec, name, vars(vec)[name]))
            setattr(vec, name, self._wrap(vars(vec)[name], "torus.TorusVec" + name, span=False))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self.originals):
            setattr(owner, name, value)
        self.originals.clear()

    def _wrap(self, fn, qualname: str, span: bool):
        fid = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.self_s.append(0.0)
        after = _AFTER.get(qualname)
        stack, calls, self_s = self.stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            parent = stack[-1] if stack else None
            if span:
                sid = len(self.span_start)
                self.span_parent.append(parent[1] if parent else -1)
                self.span_request.append(self.request)
                self.span_func.append(fid)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            else:
                sid = parent[1] if parent else -1
            frame = [fid, sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self_s[fid] += elapsed - frame[2]
                if parent is not None:
                    parent[2] += elapsed
                if span:
                    self.span_start[sid] = start
                    self.span_end[sid] = end
            if after is not None:
                after(self, parent, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ----------------------------------------------------------

    def _fid(self, qualname: str) -> int:
        return self.names.index(qualname)

    def metrics(self) -> dict[str, float]:
        total = Counter()
        for fid, name in enumerate(self.names):
            total[name.split(".", 1)[0]] += self.self_s[fid]
        calls = {name: self.calls[fid] for fid, name in enumerate(self.names)}
        c = self.counts
        out = {
            "torus.vec_ops": sum(calls[f"torus.TorusVec{op}"] for op in ("__add__", "__sub__", "__neg__")),
            "torus.dist_calls": calls["torus.max_circle_dist"],
            "torus.self_s": total["torus"],
            "shiftspace.membership_calls": calls["shiftspace.check_membership"],
            "shiftspace.membership_records": c["membership_records"],
            "shiftspace.membership_fail_share": _ratio(c["membership_fails"], calls["shiftspace.check_membership"]),
            "shiftspace.vectors_drawn": calls["shiftspace.random_torus_vec"],
            "shiftspace.sampler_tries": c["sampler_tries"],
            "shiftspace.sampler_accept_ratio": _ratio(c["sampler_accepted"], c["sampler_tries"]),
            "tower.section_calls": calls["tower.section_map"],
            "tower.section_entries": c["section_entries"],
            "tower.factor_calls": calls["tower.factor_map"],
            "tower.factor_entries": c["factor_entries"],
            "complexes.snf_calls": calls["complexes.smith_normal_form_diagonal"],
            "complexes.snf_cells": c["snf_cells"],
            "complexes.eqmap_calls": calls["complexes.equivariant_map_search"],
            "complexes.eqmap_found_ratio": _ratio(c["eqmap_found"], calls["complexes.equivariant_map_search"]),
            "finite.marker_search_calls": calls["finite.marker_search"],
            "finite.markers_enumerated": c["markers_enumerated"],
            "meandim.lattice_opens": c["lattice_opens"],
            "meandim.cover_D_calls": calls["meandim.cover_D"],
        }
        for metric, members in SELF_GROUPS.items():
            out[metric] = sum(self.self_s[self._fid(name)] for name in members)
        for layer in ("shiftspace", "tower", "complexes", "finite", "meandim", "cli"):
            out[f"{layer}.self_s"] = total[layer]
        return out

    def write_spans(self, path: str) -> None:
        """One line per span: id, parent id, command index, function, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,command,function,start_s,end_s\n")
            for sid in range(len(self.span_start)):
                handle.write(
                    f"{sid},{self.span_parent[sid]},{self.span_request[sid]},"
                    f"{self.names[self.span_func[sid]]},{self.span_start[sid]:.9f},"
                    f"{self.span_end[sid]:.9f}\n"
                )


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# -- per-function counters, computed from arguments and results -----------


def _membership(tracer: Tracer, parent, args, report) -> None:
    tracer.counts["membership_records"] += len(report.records)
    tracer.counts["membership_fails"] += report.verdict == "fail"
    # each whole-period try is one membership check made by the sampler
    if parent is not None and tracer.names[parent[0]] == "shiftspace.sample_periodic_gap_point":
        tracer.counts["sampler_tries"] += 1


def _vector_drawn(tracer: Tracer, parent, args, vec) -> None:
    # each slot try of the window sampler is one drawn vector
    if parent is not None and tracer.names[parent[0]] == "shiftspace.sample_gap_window":
        tracer.counts["sampler_tries"] += 1


def _counter(key: str, measure):
    """Add ``measure(args, result)`` of every call to the counter ``key``."""

    def after(tracer: Tracer, parent, args, result) -> None:
        tracer.counts[key] += measure(args, result)

    return after


_AFTER = {
    "shiftspace.check_membership": _membership,
    "shiftspace.random_torus_vec": _vector_drawn,
    "shiftspace.sample_periodic_gap_point": _counter("sampler_accepted", lambda a, x: 1),
    "shiftspace.sample_gap_window": _counter("sampler_accepted", lambda a, w: len(w.values)),
    "tower.section_map": _counter("section_entries", lambda a, w: len(w.values)),
    "tower.factor_map": _counter("factor_entries", lambda a, x: len(x.values)),
    "complexes.smith_normal_form_diagonal": _counter(
        "snf_cells", lambda a, r: len(a[0]) * (len(a[0][0]) if a[0] else 0)
    ),
    "complexes.equivariant_map_search": _counter("eqmap_found", lambda a, m: m is not None),
    "finite.enumerate_markers": _counter("markers_enumerated", lambda a, r: len(r)),
    "meandim.face_lattice": _counter("lattice_opens", lambda a, lat: len(lat.opens)),
    "meandim.interval_lattice": _counter("lattice_opens", lambda a, lat: len(lat.opens)),
}
