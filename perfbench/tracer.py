"""In-process timing wrappers for the eigenrl layers.

The wrappers are installed from outside the package: every public function
and public method of the traced modules is replaced, in every eigenrl module
that binds it, by a wrapper that counts calls and accumulates inclusive and
self time.  Self time subtracts the time spent in wrapped callees, tracked
on a stack of open frames.  Fine-grained calls (millions per run) are only
aggregated; coarse calls also keep an individual span with the id of the
enclosing coarse span.  Everything stays in memory until ``dump``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

TRACED_MODULES = ("cli", "harness", "protocol", "environment", "linalg")

#: names that keep one span per call; all others are only aggregated
COARSE = frozenset(
    {
        "cli.main",
        "cli.cmd_run",
        "cli.cmd_replay",
        "harness.load_config",
        "harness.run_experiment",
        "harness.build_environment",
        "harness.write_results",
        "harness.record_trace",
        "protocol.run_stages",
        "protocol.write_trace",
        "protocol.read_trace",
        "protocol.replay_basis",
    }
)

#: names the per-layer report reads; absent ones are reported as missing
EXPECTED = (
    "cli.main",
    "harness.load_config",
    "harness.run_experiment",
    "harness.build_environment",
    "harness.write_results",
    "harness.record_trace",
    "protocol.run_stages",
    "protocol.measure",
    "protocol.decide_and_update",
    "protocol.stage_converged",
    "protocol.write_trace",
    "protocol.read_trace",
    "protocol.replay_basis",
    "environment.interact",
    "environment.eigensystem_oracle",
    "linalg.eig_hermitian",
    "linalg.rotation_block",
    "linalg.gram_schmidt",
)


def rebind(package: str, original, replacement) -> None:
    """Point every module-level name in ``package`` bound to ``original`` at
    ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def public_callables(module):
    """(label, owner, attribute, function) for the module's own public
    functions and the public methods of the classes it defines.

    A method is labelled ``<module>.<method>``, as the per-layer metrics name
    them, unless a function or an earlier method already has that label.
    """
    short = module.__name__.rsplit(".", 1)[-1]
    owned = [(name, obj) for name, obj in sorted(vars(module).items())
             if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__]
    found = [(f"{short}.{name}", module, name, obj) for name, obj in owned if inspect.isfunction(obj)]
    labels = {entry[0] for entry in found}
    for cls_name, cls in owned:
        if not inspect.isclass(cls):
            continue
        for attr, member in sorted(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(member):
                continue
            label = f"{short}.{attr}"
            if label in labels:
                label = f"{short}.{cls_name}.{attr}"
            labels.add(label)
            found.append((label, cls, attr, member))
    return found


class Tracer:
    """Aggregated per-name counters plus coarse spans, all in memory."""

    def __init__(self) -> None:
        # name -> [calls, inclusive seconds, self seconds, open depth]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {"reward": 0, "punish": 0, "neutral": 0}
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._frames: list[list[float]] = []
        self._coarse_ids: list[int] = []

    def wrap(self, name: str, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        frames = self._frames
        coarse = name in COARSE
        spans = self.spans
        coarse_ids = self._coarse_ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            stat[3] += 1
            if coarse:
                span_id = len(spans)
                parent = coarse_ids[-1] if coarse_ids else None
                spans.append(None)
                coarse_ids.append(span_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                frames.pop()
                stat[3] -= 1
                stat[0] += 1
                if stat[3] == 0:  # count recursion once in inclusive time
                    stat[1] += dt
                stat[2] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if coarse:
                    coarse_ids.pop()
                    spans[span_id] = (span_id, parent, name, t0, t0 + dt)
            if after is not None:
                after(result)
            return result

        return wrapper

    def install(self, package: str = "eigenrl") -> None:
        """Wrap every public callable of the traced modules, and every
        ``observer`` passed to ``run_stages``; record absent names."""
        modules = {}
        for short in TRACED_MODULES:
            try:
                modules[short] = importlib.import_module(f"{package}.{short}")
            except ImportError:
                self.missing.append(short)
        for short, module in modules.items():
            for label, owner, attr, fn in public_callables(module):
                after = self._classify if label == "protocol.decide_and_update" else None
                wrapper = self.wrap(label, fn, after)
                if inspect.isclass(owner):
                    setattr(owner, attr, wrapper)
                else:
                    rebind(package, fn, wrapper)
        run_stages = getattr(modules.get("protocol"), "run_stages", None)
        if run_stages is not None:
            rebind(package, run_stages, self._observing(run_stages))
        self.missing += [name for name in EXPECTED if name not in self.stats]

    def _classify(self, record) -> None:
        kind = getattr(record, "classification", None)
        if kind in self.counts:
            self.counts[kind] += 1

    def _observing(self, run_stages):
        """Wrap the ``observer`` argument of every ``run_stages`` call."""
        sig = inspect.signature(run_stages)
        wrap = self.wrap

        @functools.wraps(run_stages)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            observer = bound.arguments.get("observer")
            if observer is not None:
                bound.arguments["observer"] = wrap("harness.observer", observer)
            return run_stages(*bound.args, **bound.kwargs)

        self.stats.setdefault("harness.observer", [0, 0.0, 0.0, 0])
        return wrapper

    def dump(self, path: str) -> None:
        doc = {
            "stats": {
                name: {"calls": s[0], "s": s[1], "self_s": s[2]}
                for name, s in sorted(self.stats.items())
            },
            "counts": self.counts,
            "missing": self.missing,
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
                for s in self.spans
                if s is not None
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
