"""Per-layer tracing of fuschar from outside the package.

`Tracer.install()` wraps the public functions listed in `SPANS`, `COUNTS`
and `OBSERVED` and rebinds every name that refers to one of them in every
loaded `fuschar` module, so calls between layers made through
`from .x import f` are caught as well.  Spans (name, start, end, parent
span, item id) are kept in compact arrays and written out at the end;
`summary()` derives inclusive and self seconds from them.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# module.function pairs timed as spans; `.calls` is the span count
SPANS = [
    ("groups", "enumerate_group"),
    ("groups", "conjugacy_classes"),
    ("groups", "sylow_subgroup"),
    ("chartable", "dixon_character_table"),
    ("chartable", "restrict_table"),
    ("chartable", "inner_product"),
    ("intlinalg", "hnf"),
    ("intlinalg", "kernel_rows"),
    ("intlinalg", "det_exact"),
    ("intlinalg", "solve_left"),
    ("intlinalg", "lattice_index"),
    ("fusion", "fusion_from_group"),
    ("fusion", "apply_merges"),
    ("specio", "fusion_from_spec"),
    ("stable", "stable_character_basis"),
    ("stable", "decomposition_matrix"),
    ("stable", "irr_coordinates"),
    ("verify", "gram_determinant"),
    ("verify", "verify_conjecture"),
    ("verify", "verify_group_case"),
    ("verify", "check_induction_certificate"),
    ("constructions", "build_group"),
    ("exotic", "overgroup_context"),
    ("exotic", "chain_certificates"),
    ("cli", "main"),
]

# Cyclotomic methods that are only counted (spans would cost more than the
# calls themselves); reflected operators share the counter of their method
COUNTS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__"),
    "embedded": ("embedded",),
    "key": ("key",),
}
# Cyclotomic methods timed as spans
METHOD_SPANS = ("minimized",)

# functions whose results only feed the per-item sizes; no span is recorded
OBSERVED = [("specio", "group_from_spec")]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_nested = array("b")  # inside a span of the same name
        self.stack: list[int] = []
        self.counts = {name: [0] for name in COUNTS}
        self.item = -1
        self.enabled = True
        self.cache_hits = 0
        self.gram_offdiag = 0
        self.elements = 0
        self.sizes: dict[int, dict] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import fuschar
        import fuschar.cli  # noqa: F401  (not imported by the package itself)

        modules = {name: mod for name, mod in sys.modules.items()
                   if name.split(".")[0] == "fuschar" and mod is not None}
        replace = {}
        for mod_name, fn_name in SPANS:
            orig = getattr(modules[f"fuschar.{mod_name}"], fn_name)
            replace[id(orig)] = (orig, self._span(f"{mod_name}.{fn_name}", orig))
        for mod_name, fn_name in OBSERVED:
            orig = getattr(modules[f"fuschar.{mod_name}"], fn_name)
            replace[id(orig)] = (orig, self._observe(orig))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        cyc = fuschar.cyclotomic.Cyclotomic
        for counter, methods in COUNTS.items():
            for meth in methods:
                setattr(cyc, meth, self._count(counter, getattr(cyc, meth)))
        for meth in METHOD_SPANS:
            setattr(cyc, meth, self._span(f"cyclotomic.{meth}", getattr(cyc, meth)))

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        depth = [0]
        t = self
        pre, post = _HOOKS.get(name, (None, None))
        names, starts, ends = t.span_name, t.span_start, t.span_end
        parents, items, nested, stack = t.span_parent, t.span_item, t.span_nested, t.stack

        def wrapped(*args, **kwargs):
            if not t.enabled:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(t.item)
            nested.append(depth[0] > 0)
            starts.append(0.0)
            ends.append(0.0)
            if pre is not None:
                pre(t, args)
            stack.append(sid)
            depth[0] += 1
            starts[sid] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                depth[0] -= 1
                stack.pop()
            if post is not None:
                post(t, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _count(self, counter: str, fn):
        cell = self.counts[counter]
        t = self

        def wrapped(*args, **kwargs):
            if t.enabled:
                cell[0] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def _observe(self, fn):
        t = self

        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            if t.enabled:
                t.size(group_order=result.order)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def size(self, **values) -> None:
        """Per-item sizes keep the largest value seen during the item."""
        rec = self.sizes.setdefault(self.item, {})
        for key, val in values.items():
            rec[key] = max(rec.get(key, 0), val)

    # -- results -----------------------------------------------------------

    def summary(self, n_items: int) -> dict:
        """Aggregate counts, inclusive seconds and self seconds per name."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        for sid, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[sid]
        per = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for sid in range(n):
            rec = per[self.names[self.span_name[sid]]]
            rec["calls"] += 1
            rec["self_s"] += dur[sid] - child[sid]
            if not self.span_nested[sid]:
                rec["s"] += dur[sid]
        for name, cell in self.counts.items():
            per[f"cyclotomic.{name}"] = {"calls": cell[0]}
        return {"layers": per, "items": n_items,
                "cache_hits": self.cache_hits, "gram_offdiag": self.gram_offdiag,
                "elements": self.elements,
                "sizes": {str(k): v for k, v in sorted(self.sizes.items())}}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent", "item"],
                       "name": self.span_name.tolist(),
                       "start": self.span_start.tolist(),
                       "end": self.span_end.tolist(),
                       "parent": self.span_parent.tolist(),
                       "item": self.span_item.tolist(),
                       "sizes": {str(k): v for k, v in sorted(self.sizes.items())}},
                      fh)


# -- hooks: per-layer ratios and per-item sizes, taken at the call -------------


def _conjugacy_pre(t: Tracer, args) -> None:
    if args[0]._classes is not None:
        t.cache_hits += 1


def _enumerate_post(t: Tracer, group) -> None:
    t.elements += group.order


def _gram_post(t: Tracer, result) -> None:
    if not result[1]:
        t.gram_offdiag += 1


def _basis_post(t: Tracer, lattice) -> None:
    bits = max((abs(x).bit_length() for row in lattice.basis for x in row), default=0)
    t.size(s_order=lattice.fusion.S.order, k=lattice.rank,
           conductor=lattice.irr_s.conductor, basis_bits=bits)


def _group_case_pre(t: Tracer, args) -> None:
    t.size(group_order=args[0].order)


def _context_post(t: Tracer, ctx) -> None:
    t.size(group_order=ctx.N.order)


# name -> (called with the arguments before the span, called with the result after it)
_HOOKS = {
    "groups.conjugacy_classes": (_conjugacy_pre, None),
    "groups.enumerate_group": (None, _enumerate_post),
    "verify.gram_determinant": (None, _gram_post),
    "stable.stable_character_basis": (None, _basis_post),
    "verify.verify_group_case": (_group_case_pre, None),
    "exotic.overgroup_context": (None, _context_post),
}
