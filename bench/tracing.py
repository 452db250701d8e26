"""Spans around burntrack's public functions, patched in from outside.

A :class:`Tracer` replaces each traced function with a wrapper wherever the
function object is bound: in its own module, in every burntrack module that
imported the name, and under every class attribute that aliases a method.
Each call records a span: id, name, start, end, parent span, question id,
and the counts taken at the same boundary.  Counts are computed after the
span's end is stamped, and a parent's self time subtracts the child's whole
interval including that counting, so the counting lands in no layer.

Spans stay in memory; :meth:`Tracer.write` saves them when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

_NS = 1e-9


def _len(x) -> int:
    return len(x) if x is not None else 0


def _runs_counts(args, kwargs, result, exc):
    word = args[0] if args else kwargs["word"]
    return {"calls": 1, "letters": len(word)}


def _reduce_counts(args, kwargs, result, exc):
    word = args[0] if args else kwargs["word"]
    return {"cancelled": len(word) - _len(result)} if exc is None else None


def _subst_apply_counts(args, kwargs, result, exc):
    return {"letters_out": _len(result)}


def _autom_apply_counts(args, kwargs, result, exc):
    f, word = args[0], args[1]
    if exc is not None:
        return None
    before = sum(len(f.letter_image(i)) for i in word.indices)
    return {"letters_out": len(result), "cancelled": before - len(result)}


def _pf_counts(args, kwargs, result, exc):
    return {"iterations": result.iterations} if exc is None else None


def _f_sharp_counts(args, kwargs, result, exc):
    return {"letters_out": _len(result)}


def _apply_raw_counts(args, kwargs, result, exc):
    f, path = args[0], args[1]
    if exc is not None:
        return None
    return {"cancelled": f.image_length_bound(path) - len(result)}


def _legality_counts(args, kwargs, result, exc):
    return {"calls": 1, "legal": 1 if result else 0}


def _calls(args, kwargs, result, exc):
    return {"calls": 1}


def _tc_counts(args, kwargs, result, exc):
    if exc is not None:
        allocated = getattr(exc, "allocated", None)
        if allocated is None:
            return {"calls": 1}
        return {"calls": 1, "incomplete": 1, "allocated": allocated}
    return {"calls": 1, "allocated": result.cosets_allocated, "final": result.size}


def _join_counts(args, kwargs, result, exc):
    return {"states": sum(result.explored)} if exc is None else None


# (module, owner, attribute, span name, counter, is a generator function)
TRACED = [
    ("burntrack.words", None, "reduce", "words.reduce", _reduce_counts, False),
    ("burntrack.words", None, "find_power_runs", "words.runs", _runs_counts, False),
    ("burntrack.words", None, "max_power_index", "words.runs", _runs_counts, False),
    ("burntrack.substitutions", "Substitution", "apply", "substitutions.apply", _subst_apply_counts, False),
    ("burntrack.substitutions", "Substitution", "iterate", "substitutions.iterate", None, False),
    ("burntrack.substitutions", None, "orbit", "substitutions.orbit", None, True),
    ("burntrack.substitutions", None, "detect_shift_period", "substitutions.period", None, False),
    ("burntrack.automorphisms", "BasisMap", "apply", "automorphisms.apply", _autom_apply_counts, False),
    ("burntrack.automorphisms", "BasisMap", "power", "automorphisms.power", None, False),
    ("burntrack.automorphisms", None, "growth_rate_estimate", "automorphisms.growth_estimate", None, False),
    ("burntrack.matrices", None, "pf_eigenvalue", "matrices.pf", _pf_counts, False),
    ("burntrack.matrices", None, "pf_eigenvalue_via_shift", "matrices.pf", _pf_counts, False),
    ("burntrack.graphmap", None, "f_sharp", "graphmap.f_sharp", _f_sharp_counts, False),
    # the tightening step inside f_sharp, counted under the same name so
    # that f_sharp's self time keeps it; it contributes the cancellations
    ("burntrack.graphmap", "StratifiedGraphMap", "apply_raw", "graphmap.f_sharp", _apply_raw_counts, False),
    ("burntrack.graphmap", None, "red_projection", "graphmap.red_projection", _calls, False),
    ("burntrack.graphmap", None, "path_is_k_legal", "graphmap.legality", _legality_counts, False),
    ("burntrack.graphmap", None, "classify_strata", "graphmap.classify_strata", None, False),
    ("burntrack.graphmap", None, "yellow_loop_audit", "graphmap.yellow_audit", None, False),
    ("burntrack.burnside", None, "todd_coxeter", "burnside.todd_coxeter", _tc_counts, False),
    ("burntrack.burnside", None, "burnside_oracle", "burnside.oracle", None, False),
    ("burntrack.burnside", None, "induced_order", "burnside.induced_order", None, False),
    ("burntrack.burnside", None, "find_elementary_moves", "burnside.moves", _calls, False),
    ("burntrack.burnside", None, "common_descendant_search", "burnside.join", _join_counts, False),
]

QUESTION = "question"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.qid = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter_ns()
                tracer._stack.pop()
                counts = counter(args, kwargs, None, exc) if counter else None
                tracer.spans.append((sid, name, t0, t1, perf_counter_ns(), parent, tracer.qid, counts))
                raise
            t1 = perf_counter_ns()
            tracer._stack.pop()
            counts = counter(args, kwargs, result, None) if counter else None
            tracer.spans.append((sid, name, t0, t1, perf_counter_ns(), parent, tracer.qid, counts))
            return result

        return wrapper

    def wrap_generator(self, name, fn):
        """One span per resumption of the generator the function returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def resumed():
                while True:
                    sid, parent = tracer._open()
                    t0 = perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        item = None
                    finally:
                        t1 = perf_counter_ns()
                        tracer._stack.pop()
                        tracer.spans.append((sid, name, t0, t1, t1, parent, tracer.qid, None))
                    if item is None:
                        return
                    yield item

            return resumed()

        return wrapper

    def question(self, qid, fn, *args):
        """Run one question as a root span."""
        self.qid = qid
        return self.wrap(QUESTION, fn)(*args)

    # ----------------------------------------------------------- patching

    def install(self) -> None:
        import importlib

        for modname, owner, attr, name, counter, is_gen in TRACED:
            module = importlib.import_module(modname)
            holder = getattr(module, owner) if owner else module
            original = holder.__dict__[attr] if owner else getattr(module, attr)
            wrapped = (
                self.wrap_generator(name, original) if is_gen else self.wrap(name, original, counter)
            )
            if owner:
                # method aliases such as __call__ = apply share the function
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapped)
            else:
                for mod in list(sys.modules.values()):
                    mname = getattr(mod, "__name__", "") or ""
                    if mname == "burntrack" or mname.startswith("burntrack."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapped)

    def _patch(self, holder, key, value) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, value = self._patches.pop()
            setattr(holder, key, value)

    # ------------------------------------------------------------- output

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, t2, parent, qid, counts in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start_ns": t0, "end_ns": t1,
                         "parent": parent, "question": qid, "counts": counts},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def load_spans(path: str, tag) -> list[tuple]:
    """Spans a child process wrote, with ids made unique by ``tag``."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            parent = None if s["parent"] is None else (tag, s["parent"])
            out.append(
                ((tag, s["id"]), s["name"], s["start_ns"], s["end_ns"], s["end_ns"],
                 parent, s["question"], s["counts"])
            )
    return out


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Self seconds, span count and summed counts per span name."""
    child_ns: dict = {}
    for sid, _name, t0, _t1, t2, parent, _qid, _counts in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (t2 - t0)
    out: dict[str, dict[str, float]] = {}
    for sid, name, t0, t1, _t2, _parent, _qid, counts in spans:
        entry = out.setdefault(name, {"self_s": 0.0, "spans": 0})
        entry["self_s"] += (t1 - t0 - child_ns.get(sid, 0)) * _NS
        entry["spans"] += 1
        if counts:
            for key, value in counts.items():
                entry[key] = entry.get(key, 0) + value
    return out
