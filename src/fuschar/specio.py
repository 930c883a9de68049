"""JSON interfaces: group specs, fusion specs with merge words, element-word
resolution, and report serialization.

Group spec:    {"kind": "permutation", "degree": n, "generators": [[...], ...],
                "names": {"z": "g0^2", ...}}
               {"kind": "matrix", "dim": d, "char": p, "generators": [[[...]]]}
Fusion spec:   {"group": <group spec>, "p": int, "S": [words] (optional),
                "merges": [["w1", "w2"], ...], "mode": "group"}
Big integers in reports are decimal strings.
"""

from __future__ import annotations

import json
import re

from .fusion import TableFusion, apply_merges, fusion_from_group
from .groups import FiniteGroup, FpMat, Perm, enumerate_group, sylow_subgroup
from .intlinalg import is_prime, spec_int


class SpecError(ValueError):
    pass


_WORD_TOKEN = re.compile(r"^(g(\d+)|[A-Za-z][A-Za-z0-9_+*()]*?)(\^(-?\d+))?$")


def resolve_word(word: str, group: FiniteGroup, field: str = "word"):
    """Evaluate a word like "g0*g1^-1" or a designated name like "z"; a
    value that is not a string is refused, naming `field` and the value."""
    if not isinstance(word, str):
        raise SpecError(f"{field} must be an element word, got {word!r}")
    word = word.strip()
    if not word:
        raise SpecError("empty element word")
    result = group.identity
    for token in word.split("*"):
        token = token.strip()
        m = _WORD_TOKEN.match(token)
        if not m:
            raise SpecError(f"cannot parse word token {token!r}")
        base_name, gen_idx, _, exp = m.groups()
        if gen_idx is not None:
            idx = int(gen_idx)
            if idx >= len(group.generators):
                raise SpecError(f"generator index {idx} out of range")
            base = group.generators[idx]
        elif base_name in group.designated:
            base = group.designated[base_name]
        else:
            raise SpecError(f"unknown element name {base_name!r}")
        power = int(exp) if exp else 1
        result = result * base ** power
    return result


def _positive_size(spec: dict, key: str) -> int:
    size = spec_int(spec[key], key)
    if size < 1:
        raise SpecError(f"{key} = {size} must be at least 1")
    return size


def _array(spec: dict, key: str) -> list:
    """An optional array field; a string is refused, not read letter by letter."""
    value = spec.get(key, [])
    if not isinstance(value, list):
        raise SpecError(f"{key} must be an array, got {type(value).__name__}")
    return value


def _integer_entries(i: int, entries) -> None:
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in entries):
        raise SpecError(f"generator {i} has a non-integer entry")


def group_from_spec(spec: dict) -> FiniteGroup:
    kind = spec.get("kind")
    gens = []
    if kind == "permutation":
        degree = _positive_size(spec, "degree")
        for i, images in enumerate(_array(spec, "generators")):
            if len(images) != degree:
                raise SpecError(f"generator {i} has length {len(images)}, "
                                f"expected {degree}")
            _integer_entries(i, images)
            perm = Perm(images)
            try:
                perm.validate()
            except ValueError as exc:
                raise SpecError(f"generator {i}: {exc}") from exc
            gens.append(perm)
    elif kind == "matrix":
        dim = _positive_size(spec, "dim")
        p = spec_int(spec["char"], "char")
        if not is_prime(p):
            raise SpecError(f"matrix field characteristic char = {p} is not prime")
        for i, rows in enumerate(_array(spec, "generators")):
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise SpecError(f"generator {i} is not {dim}x{dim}")
            _integer_entries(i, [x for row in rows for x in row])
            mat = FpMat.from_rows(p, rows)
            try:
                mat.validate()
            except ValueError as exc:
                raise SpecError(f"generator {i} is singular over F_{p}") from exc
            gens.append(mat)
    else:
        raise SpecError(f"unknown group kind {kind!r}")
    group = enumerate_group(gens)
    for name, word in spec.get("names", {}).items():
        group.designated[name] = resolve_word(word, group, f"names.{name}")
    return group


def fusion_from_spec(spec: dict):
    """A FusionData (mode "group") or TableFusion (mode "table")."""
    mode = spec.get("mode", "group")
    if mode == "table":  # a missing field raises KeyError, named as in group mode
        try:
            return TableFusion.from_json(spec["table"])
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad table-mode fusion spec: {exc}") from exc
    if mode != "group":
        raise SpecError(f"unknown fusion mode {mode!r}")
    group = group_from_spec(spec["group"])
    p = spec_int(spec["p"], "p")
    if "S" in spec:
        # "S": [] is the trivial subgroup, of G's own kind
        s_gens = [resolve_word(w, group, "S") for w in _array(spec, "S")] or [group.identity]
        s = enumerate_group(s_gens, max_order=group.order)
        s.designated.update(group.designated)
    else:
        s = sylow_subgroup(group, p)
    base = fusion_from_group(group, s, p)
    merges = []
    for pair in _array(spec, "merges"):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SpecError(f"merge entries need two words, got {pair!r}")
        a, b = (resolve_word(w, group, "merges") for w in pair)
        if a not in s or b not in s:
            raise SpecError(f"merge pair {pair!r} does not lie in S")
        merges.append((a, b))
    if merges:
        return apply_merges(base, merges)
    return base


def load_group(path: str) -> FiniteGroup:
    return _load(path, group_from_spec)


def load_fusion(path: str):
    return _load(path, fusion_from_spec)


def _load(path: str, parse):
    """Read and parse one spec file; every input fault becomes a SpecError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: malformed JSON at byte {exc.pos}: {exc.msg}") from exc
    if not isinstance(spec, dict):
        raise SpecError(f"{path}: a spec must be a JSON object")
    try:
        return parse(spec)
    except KeyError as exc:
        raise SpecError(f"{path}: missing field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise SpecError(f"{path}: ill-typed field: {exc}") from exc


def table_to_json(table) -> dict:
    from .chartable import CharacterTable

    if not isinstance(table, CharacterTable):
        raise AssertionError("table_to_json needs a CharacterTable")
    return {
        "conductor": table.conductor,
        "classes": [
            {"size": c.size, "rep_order": c.rep_order,
             "centralizer_order": c.centralizer_order, "rep": repr(c.rep)}
            for c in table.classes.classes
        ],
        "characters": [
            {"degree": chi.degree_int(),
             "values": [v.to_json() for v in chi.values]}
            for chi in table.chars
        ],
    }
