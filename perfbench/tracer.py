"""Per-layer spans, recorded from outside the package.

``install`` replaces each traced function with a wrapper in every module
that holds a reference to it (``from .systems import bel`` copies the
binding, so patching ``systems.bel`` alone would miss most calls) and on
the class for methods.  A wrapper counts the call and adds its span to
the layer's self time: the span minus the spans of wrapped calls nested
inside it, so the self times of one command add up to its traced time.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# metric prefix -> (module, attribute); "*.compare" is every compare method
# defined in the module.
TARGETS = {
    "cli.main": ("cli", "main"),
    "scenario.load_scenario": ("scenario", "load_scenario"),
    "scenario.build_system": ("scenario", "build_system"),
    "formulas.extension": ("formulas", "Vocabulary.extension"),
    "reports.add": ("reports", "Report.add"),
    "plausibility.compare": ("plausibility", "*.compare"),
    "systems.system": ("systems", "System.__post_init__"),
    "systems.runs_with_observations": ("systems", "runs_with_observations"),
    "systems.plaus_at": ("systems", "System.plaus_at"),
    "systems.bel": ("systems", "bel"),
    "systems.model_check": ("systems", "model_check"),
    "systems.validate_bcs": ("systems", "validate_bcs"),
    "update.system_from_update": ("update", "system_from_update"),
    "update.min_u": ("update", "min_u"),
    "update.check_km": ("update", "check_km"),
    "update.validate_upd": ("update", "validate_upd"),
    "revision.system_from_ranking": ("revision", "system_from_ranking"),
    "revision.operator": ("revision", "RevisionOperator.__call__"),
    "revision.check_agm": ("revision", "check_agm"),
    "revision.validate_rev": ("revision", "validate_rev"),
    "synthesis.statify": ("synthesis", "statify"),
    "synthesis.verify_statification": ("synthesis", "verify_statification"),
    "diagnosis.build_diag_system": ("diagnosis", "build_diag_system"),
    "diagnosis.diag": ("diagnosis", "diag"),
    "diagnosis.check_prop_diag": ("diagnosis", "check_prop_diag"),
}

# counts of work done, taken from a wrapped call's arguments
WORK_COUNTS = {
    "plausibility.compare": ("plausibility.compare_elems", lambda args: len(args[1]) + len(args[2])),
    "systems.system": ("systems.runs_built", lambda args: len(args[0].runs)),
}


def metric_names():
    names = [f"{t}{suffix}" for t in TARGETS for suffix in ("_calls", "_s")]
    return names + [name for name, _ in WORK_COUNTS.values()]


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = Counter()
        self._open = []  # child time accumulated by each open span

    def drain(self):
        """Counts and self times since the last drain."""
        counts, self_s = self.counts, self.self_s
        self.counts, self.self_s = Counter(), Counter()
        return counts, self_s

    def wrap(self, name, fn):
        work = WORK_COUNTS.get(name)
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + "_calls"] += 1
            if work:
                self.counts[work[0]] += work[1](args)
            open_spans.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                self.self_s[name + "_s"] += span - open_spans.pop()
                if open_spans:
                    open_spans[-1] += span

        return wrapper

    def install(self, package: str = "beliefchange") -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for name, (module_name, attr) in TARGETS.items():
            module = sys.modules[f"{package}.{module_name}"]
            if attr == "*.compare":
                for cls in vars(module).values():
                    if (isinstance(cls, type) and cls.__module__ == module.__name__
                            and "compare" in vars(cls)):
                        cls.compare = self.wrap(name, cls.compare)
            elif "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, vars(cls)[method]))
            else:
                original = getattr(module, attr)
                wrapped = self.wrap(name, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
