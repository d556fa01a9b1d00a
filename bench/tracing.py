"""Spans around the package's public entry points, recorded from outside.

``Tracer`` replaces each traced function with a wrapper in every loaded
``discnorm`` module that binds it (methods are replaced on their class),
records one span per call and puts the originals back on exit.  Spans
stay in memory; ``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field

# (module, attribute) of each traced function.  The wrapper replaces the
# function wherever a discnorm module binds it, so calls through
# ``from .x import f`` names are seen too.
FUNCTIONS = (
    ("discnorm.pointset", "generate_uniform"),
    ("discnorm.pointset", "generate_halton"),
    ("discnorm.cells", "build_cell_grid"),
    ("discnorm.star", "star_discrepancy_exact"),
    ("discnorm.lp", "lp_adaptive_integral"),
    ("discnorm.lp", "lp_moment_integral"),
    ("discnorm.lp", "lp_discrepancy"),
    ("discnorm.orlicz", "luxemburg_norm"),
    ("discnorm.orlicz", "phi_norm"),
    ("discnorm.bounds", "lemma1_sandwich_check"),
    ("discnorm.cli", "main"),
)
# (module, class, method) of each traced method.
METHODS = (
    ("discnorm.lp", "LpCache", "norm"),
    ("discnorm.cells", "CellGrid", "sup_abs_discrepancy"),
)

# Tensor Gauss-Legendre orders of the adaptive engine at this benchmark's
# definition; integrate.elements counts boxes x (3^(d-1) + 6^(d-1)) x m.
_ELEMENT_ORDERS = (3, 6)


@dataclass
class Span:
    name: str
    op: int | None
    parent: int | None
    start: float
    end: float = 0.0
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _info(name: str, args, kwargs, out) -> dict:
    """Work counts read from a traced call's arguments and result."""
    if name == "lp.lp_adaptive_integral":
        grid, diag = args[0], out[3]
        d = grid.dim
        nodes = 1 if d == 1 else sum(o ** (d - 1) for o in _ELEMENT_ORDERS)
        boxes = int(diag.get("boxes", 0))
        return {"boxes": boxes, "elements": boxes * nodes * grid.counts.shape[-1],
                "budget_exceeded": bool(diag.get("budget_exceeded", False))}
    if name == "cells.build_cell_grid":
        return {"cells": out.n_cells}
    if name == "lp.LpCache.norm":
        return {"p": float(args[1] if len(args) > 1 else kwargs["p"])}
    if name == "orlicz.luxemburg_norm":
        return {"iterations": int(out.diagnostics.get("iterations", 0))}
    if name == "orlicz.phi_norm":
        return {"grid_points": int(out.diagnostics.get("grid_points", 0))}
    if name == "bounds.lemma1_sandwich_check":
        lux = out.params.get("luxemburg", 0.0)
        return {"rel_margin": out.margin / lux if lux else 0.0}
    return {}


class Tracer:
    """Context manager that records spans while it is entered."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.op, parent, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.info = _info(name, args, kwargs, out)
            return out

        return traced

    def __enter__(self):
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "discnorm" or n.startswith("discnorm."))]
        for modname, attr in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(f"{modname.split('.')[-1]}.{attr}", orig)
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        for modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            orig = vars(cls)[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(f"{modname.split('.')[-1]}.{clsname}.{attr}", orig))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "op": s.op, "parent": s.parent,
                                     "start": s.start, "end": s.end, "error": s.error,
                                     **s.info}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def _nearest(spans: list[Span], i: int, names) -> int | None:
    """Index of the closest proper ancestor of span i named in ``names``."""
    j = spans[i].parent
    while j is not None:
        if spans[j].name in names:
            return j
        j = spans[j].parent
    return None


# Every per-layer metric, with its unit, in report order.
LAYER_METRICS = {
    "integrate.adaptive_s": "s", "integrate.adaptive_calls": "count",
    "integrate.boxes": "count", "integrate.elements": "count",
    "integrate.budget_exceeded": "count", "integrate.moment_s": "s",
    "integrate.moment_calls": "count",
    "lp.norm_calls": "count", "lp.computes": "count", "lp.cache_hit_ratio": "ratio",
    "lp.self_s": "s", "lp.err_cover_frac": "ratio",
    "orlicz.luxemburg_s": "s", "orlicz.luxemburg_self_s": "s",
    "orlicz.bisection_steps": "count", "orlicz.lux_p_count": "count",
    "orlicz.phi_s": "s", "orlicz.phi_self_s": "s", "orlicz.phi_p_count": "count",
    "bounds.lemma1_s": "s", "bounds.lemma1_self_s": "s", "bounds.checks": "count",
    "bounds.min_rel_margin": "ratio",
    "cells.build_s": "s", "cells.build_calls": "count", "cells.cells_built": "count",
    "cells.sup_s": "s", "cells.sup_calls": "count",
    "star.exact_s": "s", "star.exact_calls": "count",
    "pointset.gen_s": "s", "pointset.gen_calls": "count",
    "cli.import_s": "s", "cli.call_s": "s", "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures from the spans; 0 where a layer did not run.

    Times are summed over the outermost span of each name, so a function
    reached again below itself is not counted twice.  ``cli.import_s``,
    ``lp.err_cover_frac`` and ``trace.overhead_frac`` come from outside the
    spans and are filled in by the caller.
    """
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        own[s.name] = own.get(s.name, 0.0) + selfs[i]
        if _nearest(spans, i, (s.name,)) is None:
            total[s.name] = total.get(s.name, 0.0) + s.duration

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    norm = "lp.LpCache.norm"
    engines = ("lp.lp_adaptive_integral", "lp.lp_moment_integral")
    computed = {_nearest(spans, i, (norm,)) for i, s in enumerate(spans) if s.name in engines}
    computed.discard(None)
    p_sets: dict[int, set] = {}
    for i, s in enumerate(spans):
        if s.name == norm:
            owner = _nearest(spans, i, ("orlicz.luxemburg_norm", "orlicz.phi_norm"))
            if owner is not None:
                p_sets.setdefault(owner, set()).add(s.info["p"])

    def p_count(name):
        return sum(len(ps) for j, ps in p_sets.items() if spans[j].name == name)

    margins = [s.info["rel_margin"] for s in spans
               if s.name == "bounds.lemma1_sandwich_check" and "rel_margin" in s.info]
    n_norm = calls.get(norm, 0)
    gen = ("pointset.generate_uniform", "pointset.generate_halton")
    out = {
        "integrate.adaptive_s": total.get(engines[0], 0.0),
        "integrate.adaptive_calls": calls.get(engines[0], 0),
        "integrate.boxes": info_sum(engines[0], "boxes"),
        "integrate.elements": info_sum(engines[0], "elements"),
        "integrate.budget_exceeded": info_sum(engines[0], "budget_exceeded"),
        "integrate.moment_s": total.get(engines[1], 0.0),
        "integrate.moment_calls": calls.get(engines[1], 0),
        "lp.norm_calls": n_norm,
        "lp.computes": len(computed),
        "lp.cache_hit_ratio": (n_norm - len(computed)) / n_norm if n_norm else 0.0,
        "lp.self_s": own.get(norm, 0.0) + own.get("lp.lp_discrepancy", 0.0),
        "lp.err_cover_frac": 0.0,
        "orlicz.luxemburg_s": total.get("orlicz.luxemburg_norm", 0.0),
        "orlicz.luxemburg_self_s": own.get("orlicz.luxemburg_norm", 0.0),
        "orlicz.bisection_steps": info_sum("orlicz.luxemburg_norm", "iterations"),
        "orlicz.lux_p_count": p_count("orlicz.luxemburg_norm"),
        "orlicz.phi_s": total.get("orlicz.phi_norm", 0.0),
        "orlicz.phi_self_s": own.get("orlicz.phi_norm", 0.0),
        "orlicz.phi_p_count": p_count("orlicz.phi_norm"),
        "bounds.lemma1_s": total.get("bounds.lemma1_sandwich_check", 0.0),
        "bounds.lemma1_self_s": own.get("bounds.lemma1_sandwich_check", 0.0),
        "bounds.checks": calls.get("bounds.lemma1_sandwich_check", 0),
        "bounds.min_rel_margin": min(margins) if margins else 0.0,
        "cells.build_s": total.get("cells.build_cell_grid", 0.0),
        "cells.build_calls": calls.get("cells.build_cell_grid", 0),
        "cells.cells_built": info_sum("cells.build_cell_grid", "cells"),
        "cells.sup_s": total.get("cells.CellGrid.sup_abs_discrepancy", 0.0),
        "cells.sup_calls": calls.get("cells.CellGrid.sup_abs_discrepancy", 0),
        "star.exact_s": total.get("star.star_discrepancy_exact", 0.0),
        "star.exact_calls": calls.get("star.star_discrepancy_exact", 0),
        "pointset.gen_s": sum(total.get(g, 0.0) for g in gen),
        "pointset.gen_calls": sum(calls.get(g, 0) for g in gen),
        "cli.import_s": 0.0,
        "cli.call_s": total.get("cli.main", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "trace.overhead_frac": 0.0,
    }
    return out
