import argparse
import copy
import hashlib
import io
import json
import random
import re
import time
from pathlib import Path

import pytest

from fuschar.cli import build_parser, main
from fuschar.reftables import ITEMS
from fuschar.specio import (
    SpecError,
    fusion_from_spec,
    group_from_spec,
    resolve_word,
    table_to_json,
)

from oracles import report_round_trip

C8_SPEC = {"kind": "permutation", "degree": 8,
           "generators": [[1, 2, 3, 4, 5, 6, 7, 0]]}


def test_group_spec_parsing():
    g = group_from_spec(C8_SPEC)
    assert g.order == 8


def test_matrix_spec_parsing():
    g = group_from_spec({"kind": "matrix", "dim": 2, "char": 3,
                         "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]})
    assert g.order == 24  # SL_2(3)


def test_bad_generator_named():
    with pytest.raises(SpecError, match="generator 0"):
        group_from_spec({"kind": "permutation", "degree": 3,
                         "generators": [[0, 0, 1]]})
    with pytest.raises(SpecError, match="generator 1"):
        group_from_spec({"kind": "matrix", "dim": 2, "char": 3,
                         "generators": [[[1, 0], [0, 1]], [[1, 1], [2, 2]]]})
    with pytest.raises(SpecError, match="kind"):
        group_from_spec({"kind": "banana"})


@pytest.mark.parametrize("spec", [
    {"kind": "matrix", "dim": 2, "char": 3, "generators": [[[1, 1.5], [0, 1]]]},
    {"kind": "matrix", "dim": 2, "char": 3, "generators": [[[1, "1"], [0, 1]]]},
    {"kind": "matrix", "dim": 2, "char": 3, "generators": [[[True, 1], [0, 1]]]},
    {"kind": "permutation", "degree": 3, "generators": [[1, 2, 0.0]]},
])
def test_non_integer_generator_entries_are_rejected(spec):
    with pytest.raises(SpecError, match="generator 0 has a non-integer entry"):
        group_from_spec(spec)


@pytest.mark.parametrize("spec", [
    {"kind": "matrix", "dim": 0, "char": 3, "generators": []},
    {"kind": "matrix", "dim": -1, "char": 3, "generators": []},
    {"kind": "permutation", "degree": 0, "generators": []},
    {"kind": "permutation", "degree": -2, "generators": [[]]},
])
def test_empty_or_negative_sizes_are_rejected(spec):
    key = "dim" if spec["kind"] == "matrix" else "degree"
    with pytest.raises(SpecError, match=f"{key} = {spec[key]} must be at least 1"):
        group_from_spec(spec)


def test_word_resolution():
    g = group_from_spec(dict(C8_SPEC, names={"z": "g0^4"}))
    a = g.generators[0]
    assert resolve_word("g0^2", g) == a * a
    assert resolve_word("g0^-1", g) == a.inverse()
    assert resolve_word("z", g) == a ** 4
    assert resolve_word("g0*g0^-1", g) == g.identity
    with pytest.raises(SpecError, match="unknown element name"):
        resolve_word("w", g)
    with pytest.raises(SpecError, match="out of range"):
        resolve_word("g7", g)


@pytest.mark.parametrize("field, spec, bad", [
    ("merges", {"merges": [[True, "g0^6"]]}, "True"),
    ("merges", {"merges": [["g0^2", None]]}, "None"),
    ("S", {"S": [2]}, "2"),
    ("names.z", {"group": dict(C8_SPEC, names={"z": 4})}, "4"),
])
def test_non_string_words_name_their_field(field, spec, bad):
    spec = dict({"group": C8_SPEC, "p": 2, "mode": "group"}, **spec)
    with pytest.raises(SpecError, match=f"^{field} must be an element word, got {bad}$"):
        fusion_from_spec(spec)


def test_fusion_spec_example():
    fusion = fusion_from_spec({
        "group": C8_SPEC, "p": 2,
        "merges": [["g0^2", "g0^6"]], "mode": "group"})
    assert fusion.k == 7


def test_table_mode_fusion_spec_round_trips(tmp_path):
    import json as _json

    from fuschar.exotic import table_3492
    from fuschar.fusion import TableFusion

    tf = table_3492()
    data = {"mode": "table", "table": tf.to_json()}
    path = tmp_path / "table.json"
    path.write_text(_json.dumps(data))
    loaded = fusion_from_spec(_json.loads(path.read_text()))
    assert isinstance(loaded, TableFusion)
    assert loaded.basis_values == tf.basis_values
    assert main(["verify-fusion", "-f", str(path)]) == 0


def test_malformed_json_reports_offset(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": }')
    from fuschar.specio import load_group

    with pytest.raises(SpecError, match="byte"):
        load_group(str(path))


def test_report_round_trip():
    from fuschar.chartable import dixon_character_table
    from fuschar.fusion import fusion_of_self
    from fuschar.groups import cyclic_group
    from fuschar.verify import verify_conjecture

    c8 = cyclic_group(8)
    rep = verify_conjecture(fusion_of_self(c8, 2),
                            dixon_character_table(c8), "c8")
    data = rep.to_json()
    assert report_round_trip(data) == data
    assert isinstance(data["lhs_det"], str)  # decimal string encoding


def test_table_json():
    from fuschar.chartable import dixon_character_table
    from fuschar.groups import symmetric_group

    data = table_to_json(dixon_character_table(symmetric_group(3)))
    assert data["conductor"] == 6
    assert sorted(c["degree"] for c in data["characters"]) == [1, 1, 2]
    json.dumps(data)  # serialisable


@pytest.fixture
def c8_files(tmp_path):
    gpath = tmp_path / "c8.json"
    gpath.write_text(json.dumps(C8_SPEC))
    fpath = tmp_path / "c8_fusion.json"
    fpath.write_text(json.dumps({
        "group": C8_SPEC, "p": 2, "merges": [["g0^2", "g0^6"]],
        "mode": "group"}))
    return str(gpath), str(fpath)


def test_cli_exit_codes(c8_files, capsys):
    gpath, fpath = c8_files
    assert main(["paper", "--item", "example27"]) == 1
    out = capsys.readouterr().out
    assert "4194304" in out and "2097152" in out
    assert main(["paper", "--item", "table3", "--p", "5"]) == 0
    assert main(["verify-fusion", "-f", fpath]) == 1
    assert main(["verify-group", "-g", gpath, "-p", "2"]) == 0
    assert main(["char-table", "-g", gpath, "--restrict-to", "g0^4"]) == 0
    assert main(["paper", "--item", "nonsense"]) == 2
    assert main(["bogus-subcommand"]) == 2


def test_cli_json_format(c8_files, capsys):
    gpath, _ = c8_files
    assert main(["--format", "json", "verify-group", "-g", gpath, "-p", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "verified"
    assert data["lhs_det"] == data["rhs_product"]


def test_cli_directory_corpus(tmp_path, capsys):
    (tmp_path / "c6.json").write_text(json.dumps(
        {"kind": "permutation", "degree": 6,
         "generators": [[1, 2, 3, 4, 5, 0]]}))
    assert main(["corpus", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "verified 2 / 2" in out  # primes 2 and 3


def test_cli_directory_corpus_reports_a_trivial_group(tmp_path, capsys):
    (tmp_path / "c3.json").write_text(json.dumps(
        {"kind": "permutation", "degree": 3, "generators": [[1, 2, 0]]}))
    (tmp_path / "trivial.json").write_text(json.dumps(
        {"kind": "permutation", "degree": 3, "generators": []}))
    assert main(["corpus", "--dir", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "verified 1 / 2" in out  # every file has a report
    assert "FAILED trivial.json: error" in out
    assert "group order 1 has no prime divisor" in out


def test_cli_runs_p7_overgroups_without_a_flag(capsys):
    assert main(["paper", "--item", "table1", "--p", "7"]) == 0
    assert "table1@p=7: all matched" in capsys.readouterr().out
    assert main(["paper", "--item", "exotic:G_prune", "--p", "7"]) == 0
    assert "G_prune@p=7: verified" in capsys.readouterr().out


def test_cli_group_size_cap_is_the_guard_on_overgroup_size(monkeypatch, capsys):
    """The overgroup context of `table2 --p 7` never builds N_gamma (691,488
    elements); its largest closure is the linear parts Gamma (2,016), and the
    cap guards that closure."""
    import fuschar.groups
    from fuschar.constructions import gamma_group, linear_parts
    from fuschar.exotic import overgroup_context

    for cached in (overgroup_context, linear_parts, gamma_group):
        cached.cache_clear()
    monkeypatch.setattr(fuschar.groups, "DEFAULT_MAX_ORDER", 1000)
    assert main(["paper", "--item", "table2", "--p", "7"]) == 2
    assert "group too large: closure exceeded the cap of 1000 elements" in capsys.readouterr().err


def test_verify_fusion_at_a_prime_not_dividing_the_order(tmp_path, capsys):
    # S is the trivial subgroup of G's own kind, so the fusion verifies with k(F) = 1;
    # "S": [] names the same subgroup at a prime dividing |G|
    groups = {"s3": {"kind": "permutation", "degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]},
              "gl2_3": {"kind": "matrix", "dim": 2, "char": 3,
                        "generators": [[[1, 1], [0, 1]], [[0, 1], [2, 0]], [[2, 0], [0, 1]]]}}
    for name, group in groups.items():
        for spec in ({"group": group, "p": 5, "merges": []}, {"group": group, "p": 2, "S": []}):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(spec))
            assert main(["--format", "json", "verify-fusion", "-f", str(path)]) == 0, spec
            data = json.loads(capsys.readouterr().out)
            assert data["verdict"] == "verified" and data["k_F"] == 1
            assert data["checks"]["lattice_discriminant"] == "1"
            assert (data["lhs_det"], data["rhs_product"]) == ("1", "1")


def _readme_command_line_section() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("## Command line")
    end = text.find("\n## ", start)
    return text[start:end if end >= 0 else None]


def test_readme_commands_parse_with_the_cli_parser():
    block = _readme_command_line_section().split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].replace("[", "").replace("]", "").split()
                for line in block.splitlines()]
    commands = [words for words in commands if words]
    assert commands and all(words[0] == "fuschar" for words in commands)
    parser = build_parser()
    for words in commands:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(words)}")


def test_readme_names_only_options_the_parser_has():
    parser = build_parser()
    parsers = [parser] + [sub for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction)
                          for sub in action.choices.values()]
    known = {opt for p in parsers for action in p._actions for opt in action.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _readme_command_line_section()))
    assert named and named <= known, sorted(named - known)


def test_readme_lists_the_paper_items_of_the_table():
    section = _readme_command_line_section()
    listed = {m[1]: (int(m[2]), bool(m[3]))
              for m in re.finditer(r"^- `([^`]+)`: p = (\d+)( only)?$", section, re.M)}
    assert listed == {name: (item.p, item.fixed) for name, item in ITEMS.items()}
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w:])(?:(?:table|lemma|example)\d+(?!\w)"
                           r"|exotic:\w+(?::\w+)?)", text))
    assert named == set(ITEMS), sorted(named ^ set(ITEMS))


def test_cli_directory_corpus_isolates_bad_files(tmp_path, capsys):
    (tmp_path / "c6.json").write_text(json.dumps(
        {"kind": "permutation", "degree": 6,
         "generators": [[1, 2, 3, 4, 5, 0]]}))
    (tmp_path / "bad.json").write_text('{"kind": "banana"}')
    assert main(["corpus", "--dir", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "c6.json@p=2: verified" in out and "c6.json@p=3: verified" in out
    assert "verified 2 / 3" in out
    assert "FAILED bad.json: error" in out


def test_cli_corpus_exits_with_the_worst_verdict(monkeypatch, capsys):
    import fuschar.cli
    from fuschar.verify import VerificationReport

    def fake_corpus(verdicts):
        reports = [VerificationReport(f"x{i}@p=2", 2, 0, [], 0, 0, 0, v, False, {})
                   for i, v in enumerate(verdicts)]
        failures = [r for r in reports if r.verdict != "verified"]
        summary = {"total": len(reports), "verified": len(reports) - len(failures),
                   "failures": failures, "reports": reports}
        return lambda progress: summary

    for verdicts, code in ((["verified"], 0), (["counterexample", "verified"], 1),
                           (["counterexample", "error"], 2), (["error"], 2)):
        monkeypatch.setattr(fuschar.cli, "run_group_corpus", fake_corpus(verdicts))
        assert main(["corpus"]) == code, verdicts
    capsys.readouterr()


def test_cli_spec_boundary_errors_exit_2(tmp_path, capsys):
    assert main(["verify-group", "-g", str(tmp_path / "missing.json"), "-p", "2"]) == 2
    assert "missing.json" in capsys.readouterr().err
    no_p = tmp_path / "no_p.json"
    no_p.write_text(json.dumps({"group": C8_SPEC, "mode": "group"}))
    assert main(["verify-fusion", "-f", str(no_p)]) == 2
    assert "missing field 'p'" in capsys.readouterr().err
    # table mode names a missing field as group mode does
    from fuschar.exotic import table_3492
    table = table_3492().to_json()
    del table["group_order"]
    for missing, spec in (("group_order", {"mode": "table", "table": table}),
                          ("table", {"mode": "table"})):
        no_field = tmp_path / f"no_{missing}.json"
        no_field.write_text(json.dumps(spec))
        assert main(["verify-fusion", "-f", str(no_field)]) == 2
        assert capsys.readouterr().err == f"error: {no_field}: missing field '{missing}'\n"
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["verify-group", "-g", str(not_object), "-p", "2"]) == 2
    assert main(["corpus", "--dir", str(tmp_path / "no_such_dir")]) == 2
    capsys.readouterr()
    # a string where an array belongs is refused by name, not read letter by letter
    not_arrays = [({"group": {**C8_SPEC, "generators": "10"}, "p": 2}, "generators"),
                  ({"group": C8_SPEC, "p": 2, "S": "g0"}, "S"),
                  ({"group": C8_SPEC, "p": 2, "merges": "g0"}, "merges")]
    for i, (spec, field) in enumerate(not_arrays):
        path = tmp_path / f"not_array{i}.json"
        path.write_text(json.dumps(spec))
        assert main(["verify-fusion", "-f", str(path)]) == 2, spec
        err = capsys.readouterr().err
        assert err == f"error: {field} must be an array, got str\n", spec
    one_word = tmp_path / "one_word_merge.json"
    one_word.write_text(json.dumps({"group": C8_SPEC, "p": 2, "merges": ["g0"]}))
    assert main(["verify-fusion", "-f", str(one_word)]) == 2
    assert capsys.readouterr().err == "error: merge entries need two words, got 'g0'\n"
    for char in (0, 4):
        bad_char = tmp_path / f"char{char}.json"
        bad_char.write_text(json.dumps({"kind": "matrix", "dim": 2, "char": char,
                                        "generators": [[[1, 1], [0, 1]]]}))
        assert main(["verify-group", "-g", str(bad_char), "-p", "2"]) == 2
        assert f"char = {char} is not prime" in capsys.readouterr().err
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({"kind": "matrix", "dim": 2, "char": 3,
                                      "generators": [[[1, 1.5], [0, 1]]]}))
    assert main(["verify-group", "-g", str(fractional), "-p", "3"]) == 2
    assert "generator 0 has a non-integer entry" in capsys.readouterr().err
    # C2 at p = 2 with a centralizer order 6: bad class data, not a counterexample
    bad_table = tmp_path / "bad_table.json"
    bad_table.write_text(json.dumps({"mode": "table", "table": {
        "p": 2, "group_order": 2, "labels": ["1", "a"], "class_sizes": [1, 1],
        "centralizer_orders": [2, 6], "merge_groups": [],
        "basis_values": [[{"order": 1, "coeffs": [str(v)]} for v in row]
                         for row in ([1, 1], [1, -1])]}}))
    assert main(["verify-fusion", "-f", str(bad_table)]) == 2
    assert "centralizer order 6 is not a power of p = 2" in capsys.readouterr().err
    # a float, a bool or a non-decimal string is not read as an integer, and the
    # message names the field; decimal strings still read
    group_mode = {"group": C8_SPEC, "p": 2}
    matrix = {"kind": "matrix", "dim": 2, "char": 3, "generators": [[[1, 1], [0, 1]]]}
    c2_table = {"p": 2, "group_order": 2, "labels": ["1", "a"], "class_sizes": [1, 1],
                "centralizer_orders": [2, 2], "merge_groups": [],
                "basis_values": [[{"order": 1, "coeffs": [str(v)]} for v in row]
                                 for row in ([1, 1], [1, -1])]}
    inexact = [({**group_mode, "p": 2.5}, "p must be an integer"),
               ({**group_mode, "p": True}, "p must be an integer"),
               ({"group": {**C8_SPEC, "degree": 8.0}, "p": 2}, "degree must be an integer"),
               ({**group_mode, "p": "a"}, "p must be an integer, got 'a'"),
               ({"group": {**matrix, "dim": "g0"}, "p": 3}, "dim must be an integer, got 'g0'"),
               ({"group": {**matrix, "char": "x"}, "p": 3}, "char must be an integer, got 'x'"),
               ({"mode": "table", "table": {**table, "group_order": "q"}},
                "group_order must be an integer, got 'q'")]
    for key, value in (("p", 2.5), ("group_order", 2.0), ("class_sizes", [1, 1.0]),
                       ("centralizer_orders", [2.9, 2]), ("merge_groups", [[0, True]])):
        inexact.append(({"mode": "table", "table": {**c2_table, key: value}},
                        f"{key} must be an integer"))
    for field, value in (("coeffs", -1.7), ("order", 1.0)):
        bad_value = {"order": 1, "coeffs": ["1"], field: value if field == "order" else [value]}
        values = [[bad_value, c2_table["basis_values"][0][1]], c2_table["basis_values"][1]]
        inexact.append(({"mode": "table", "table": {**c2_table, "basis_values": values}},
                        f"{field} must be an integer"))
    for i, (spec, message) in enumerate(inexact):
        path = tmp_path / f"inexact{i}.json"
        path.write_text(json.dumps(spec))
        assert main(["verify-fusion", "-f", str(path)]) == 2, spec
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err, spec
    for i, spec in enumerate((group_mode, {"mode": "table", "table": c2_table})):
        path = tmp_path / f"exact{i}.json"
        path.write_text(json.dumps(spec))
        assert main(["verify-fusion", "-f", str(path)]) == 0, spec
    capsys.readouterr()


def test_table_mode_value_order_must_divide_twice_the_group_order(tmp_path, capsys):
    # an order-720720 value would build Phi_720720 before any check ran
    one = {"order": 1, "coeffs": ["1"]}
    path = tmp_path / "big_order.json"
    path.write_text(json.dumps({"mode": "table", "table": {
        "p": 2, "group_order": 2, "labels": ["1", "a"], "class_sizes": [1, 1],
        "centralizer_orders": [2, 2], "merge_groups": [],
        "basis_values": [[one, one], [one, {"order": 720720, "coeffs": ["-1"]}]]}}))
    start = time.perf_counter()
    assert main(["verify-fusion", "-f", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "value order 720720 does not divide" in capsys.readouterr().err


# the fields read as integers; a generator's entries are named by the generator
INTEGER_FIELDS = {"degree", "dim", "char", "p", "generators", "group_order", "class_sizes",
                  "centralizer_orders", "merge_groups", "order", "coeffs"}
_DROP = object()
# small replacements only, so no mutant builds a large group
REPLACEMENTS = [0, 1, -1, 2, "a", 2.5, True, None, [], {}, _DROP]


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)) and node:
        for key, val in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaf_paths(val, path + (key,))
    else:
        yield path


def _mutant(spec, rng):
    """spec with one or two leaves replaced or dropped, and what was done."""
    spec = copy.deepcopy(spec)
    done = []
    for _ in range(rng.choice((1, 2))):
        path = rng.choice(list(_leaf_paths(spec)))
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        new = rng.choice(REPLACEMENTS)
        if new is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(new)
        done.append((path, new))
    return spec, done


def _word_field(path):
    """The field name a word leaf is refused under, or None for no word leaf."""
    if (path[0], len(path)) in (("merges", 3), ("S", 2)):
        return path[0]
    if path[:2] == ("group", "names") and len(path) == 3:
        return f"names.{path[2]}"
    return None


def _integer_field_message(path, new):
    """What stderr must say when the leaf at path, an integer field, gets the
    non-integer new, or a word leaf gets a non-string; None when the leaf is
    neither or new is of the right type."""
    field = _word_field(path)
    if field is not None:
        if new is _DROP or isinstance(new, str):
            return None
        return f"{field} must be an element word, got {new!r}"
    keys = [k for k in path if isinstance(k, str)]
    if not keys or keys[-1] not in INTEGER_FIELDS or new is _DROP \
            or (isinstance(new, int) and not isinstance(new, bool)):
        return None
    if keys[-1] == "generators":
        return f"generator {path[path.index('generators') + 1]} has a non-integer entry"
    return f"{keys[-1]} must be an integer"


def test_spec_mutations_exit_0_1_or_2_and_name_bad_integer_fields(tmp_path, capsys):
    """Seeded one- and two-leaf mutations of four specs through the CLI: every
    run exits 0, 1 or 2, none crashes, and a non-integer in an integer field
    is named in stderr."""
    from fuschar.exotic import table_3492

    s4 = {"kind": "permutation", "degree": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]}
    matrix = {"kind": "matrix", "dim": 2, "char": 3,
              "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}
    specs = [
        ({"group": C8_SPEC, "p": 2, "merges": [["g0^2", "g0^6"]], "mode": "group"},
         ["verify-fusion", "-f"]),
        ({"mode": "table", "table": table_3492().to_json()}, ["verify-fusion", "-f"]),
        (matrix, ["verify-group", "-p", "3", "-g"]),
        (s4, ["verify-group", "-p", "2", "-g"]),
    ]
    codes, named = set(), 0
    for seed in range(200):
        rng = random.Random(seed)
        spec, argv = specs[seed % len(specs)]
        mutant, done = _mutant(spec, rng)
        path = tmp_path / f"mutant{seed}.json"
        path.write_text(json.dumps(mutant))
        code = main(argv + [str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (seed, done)
        assert "internal error" not in err, (seed, done, err)
        message = _integer_field_message(*done[0]) if len(done) == 1 else None
        if message is not None:
            assert code == 2 and message in err, (seed, done, err)
            named += 1
        codes.add(code)
    assert named >= 20 and 0 in codes


def test_paper_exotic_error_verdict_exits_2(monkeypatch, capsys):
    import fuschar.exotic
    from fuschar.cyclotomic import Cyclotomic
    from fuschar.fusion import TableFusion

    def singular():
        one, zero = Cyclotomic.one(), Cyclotomic.zero()
        return TableFusion(p=2, group_order=2, labels=["1", "z"], class_sizes=[1, 1],
                           centralizer_orders=[2, 2],
                           basis_values=[[one, one], [zero, zero]], merge_groups=[])

    monkeypatch.setattr(fuschar.exotic, "table_3492", singular)
    assert main(["paper", "--item", "exotic:F_3492"]) == 2
    assert ": error" in capsys.readouterr().out


def test_paper_exotic_checks_p_before_building_groups(monkeypatch, capsys):
    import fuschar.exotic

    built = []

    def record(*args):
        built.append(args)
        raise LookupError("stop")

    for name in ("table_3492", "overgroup_context", "chain_certificates", "build_exotic_fusion"):
        monkeypatch.setattr(fuschar.exotic, name, record)
    assert main(["paper", "--item", "exotic:F_3492", "--p", "5"]) == 2
    assert main(["paper", "--item", "exotic:F547_chain:psu", "--p", "3"]) == 2
    assert "specific to p = 5" in capsys.readouterr().err
    assert built == []
    # without --p the chains run at p = 5 and the other systems at p = 3
    for item in ("exotic:F547_chain:g", "exotic:F1"):
        assert main(["paper", "--item", item]) == 2
        assert "internal error: LookupError: stop" in capsys.readouterr().err
    assert built == [(5, "N_b"), ("F1", 3)]


@pytest.mark.parametrize("item", ["exotic:bogus", "exotic:F547_chain:x", "exotic:F547_chain"])
def test_paper_unknown_items_exit_2_before_building_groups(item, monkeypatch, capsys):
    import fuschar.exotic

    built = []
    for name in ("table_3492", "overgroup_context", "chain_certificates", "build_exotic_fusion"):
        monkeypatch.setattr(fuschar.exotic, name, lambda *args: built.append(args))
    assert main(["paper", "--item", item]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unknown item {item!r}" in err
    assert built == []


def _without_seconds(data):
    if isinstance(data, dict):
        return {key: _without_seconds(val) for key, val in data.items() if key != "seconds"}
    if isinstance(data, list):
        return [_without_seconds(val) for val in data]
    return data


# exit code, sha256 of the `--format json` output without `seconds`, and
# sha256 of the `--format text` output of each item at its default prime
PAPER_OUTPUT = {
    "table1": (
        0, "6d3a03bbd7c8965b9eb80b9494501db44a8b5ab050ced4e204e5102f4a81338b",
        "9d65d8e352880e91bbd62afecc0dcc2ec8b3672f8084ec4c2ea79f7675b62651"),
    "table2": (
        0, "373634871ab17a2ee40c3b046cec0c11700f882b74bd4d0ba118460053e59171",
        "16c9607f2c1738c9e8b3499584d3782921e4776379ab50da00be5a7ac526372e"),
    "table3": (
        0, "a83f7beb717b78e34e072195ef86a248973634d971b88f85156fb79e12c89548",
        "6c7d5d2c0ce1355dce4bdec373c54000270ccedfcbf21d9b5dae6e360521bbc7"),
    "table4": (
        0, "4ac0b8d7df6a90434f3b15569c1f533a357ace464708082026f311fba3b39297",
        "43513b8547e253279fc972b00968bcb6eac5997ffd0ec05a14cffc2eae5e8a01"),
    "table5": (
        0, "98631306d678f5688e06c999d46db2fdb1587e70bd2dc1aad3d0abf8e37feabb",
        "38a213f9022ac8f946af6a20951bd6bde4d305d36cbe4e7d0eb604d5dddbc520"),
    "table6": (
        0, "762ee389fbb676d1b587f5f5416a5de505d46cb0c7f8cbb14b1664730205fc14",
        "4b6e42d08bbdfe3a206d4fbcd05af4ddc2a82fe418ef60b1cdc60d897790e3be"),
    "lemma42": (
        0, "83310120065a238205391c0a67c234b6706b3cfe93108c2cb16fdae1ad2216ed",
        "77b4de530097e84afbbffd80a8bf90b7b2d2d2be1e83b9edb12f39d3fc190c41"),
    "lemma56": (
        0, "c447fc3a985d463a0165512e8b4b60a9f82b524014dd490bb15b925dde916e16",
        "a0d07472ad4b41e22181da1df04635561097833ca7a89a03001c8a0342792848"),
    "lemma58": (
        0, "e2de192029d339ff0cdaf2a928b87ab91032cb93f8ac2801120b4480056d1ed0",
        "df8264b0ab52a88ddb07f002829e9a7848aeeec29576ac72374c383b8b91364d"),
    "example27": (
        1, "dd13a79be9a5fbb1fdb2f86369aff32315b52dcaa6d1becc882e52acb0680290",
        "b8ea0002f68420bf055c41262e8e973f268c16fa2f7812626e67aba7e68b39bc"),
    "exotic:G_prune": (
        0, "cd1fa2949b30489c5c2f752c5d68b94ec056b30786937969663b5944ce43465e",
        "04b47010cd0de20fd4019e20d4b6ea3b31f2a3db72ddf01ca1960b38407e4854"),
    "exotic:F1": (
        0, "1010459bd7d004f0f6b092bbdd5958c959cd0df110d7c9f78e903549ae998be5",
        "14fb3294be6e0f0c9807afa481ca1f998003c44a20fc9086ce435a46b96fb522"),
    "exotic:Op_F1": (
        0, "aaabca2ee010bdeb795bb7ee057ba7200dc55c370add2b21c3d98429a01242a7",
        "27f4fa6384ed53f23f056953ef960dea8e21ea8f30b6a36551b5744ab619bb7a"),
    "exotic:F_3492": (
        0, "a6b84498c2b17dd1b752d8073a803cdca7299bf17a33ccbe07f8c91476ee98f1",
        "1f09ac47b5a9c4fc29824ff8c8b91e3a51df1eae7c970dab25397cffb431eefb"),
    "exotic:F547_chain:psu": (
        0, "a7de12e20de2c7ab96cabe33f982454b9ed3efb61479aca294bd63c3ac29396b",
        "cad715390733be2693f95c8e3a9667f26ea402d08b1474e8ca2232e78353ba5d"),
    "exotic:F547_chain:g": (
        0, "455a34c4c6c528c371e5bc2e3418f535beea335d3eaa24bf55acb2885c4da777",
        "a8f128f5e8470e6a94e66a88fc0542242129d58b6ed8a778bf3544274f9af268"),
}


def test_paper_output_is_pinned_for_every_item():
    assert list(PAPER_OUTPUT) == list(ITEMS)


@pytest.mark.parametrize("item", list(PAPER_OUTPUT))
def test_paper_item_output_is_unchanged(item, capsys):
    code, json_digest, text_digest = PAPER_OUTPUT[item]
    assert main(["--format", "json", "paper", "--item", item]) == code
    data = _without_seconds(json.loads(capsys.readouterr().out))
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == json_digest
    assert main(["--format", "text", "paper", "--item", item]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == text_digest


def test_broken_example27_reproduction_exits_2_naming_the_check(monkeypatch, capsys):
    """The merge undone, the data behind the counterexample no longer match:
    that is an error, exit 2, never the counterexample's exit 1."""
    import fuschar.reftables

    monkeypatch.setattr(fuschar.reftables, "apply_merges", lambda base, merges: base)
    assert main(["paper", "--item", "example27"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "example27: reproduction BROKEN" in err and "k_is_7" in err
    assert not err.startswith("internal error")


def test_paper_mismatch_and_failed_certificate_exit_1(monkeypatch, capsys):
    """A match report with discrepancies and a chain with a failed step print
    through the one report path and exit 1, the code of a mismatch."""
    from types import SimpleNamespace

    import fuschar.exotic
    import fuschar.reftables
    from fuschar.verify import CertificateReport

    monkeypatch.setattr(fuschar.reftables, "count_n_v_psi", lambda p, *key: -1)
    assert main(["paper", "--item", "table3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "table3@p=5: MISMATCH (0 matches, 9 discrepancies)"
    assert len(lines) == 10 and lines[1].startswith("  - {'item': 'n[")
    assert main(["--format", "json", "paper", "--item", "table3"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False

    failed = CertificateReport("step", {"eta_difference_pm_p": False, "b_n_basis": True}, False)
    monkeypatch.setattr(fuschar.exotic, "overgroup_context",
                        lambda p, which: SimpleNamespace(irr_s=None))
    monkeypatch.setattr(fuschar.exotic, "chain_certificates", lambda family, p: [])
    monkeypatch.setattr(fuschar.reftables, "check_certificate_chain",
                        lambda certs, irr_s: [failed])
    assert main(["paper", "--item", "exotic:F547_chain:g"]) == 1
    assert capsys.readouterr().out == "step: certificate FAILED ['eta_difference_pm_p']\n"
    assert main(["--format", "json", "paper", "--item", "exotic:F547_chain:g"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["input"] == "F547_chain:g@p=5" and data["certificates"] == [failed.to_json()]


@pytest.mark.parametrize("exc", [LookupError("no matching restriction"), KeyError("rho")])
def test_cli_crash_exits_2_not_the_counterexample_code(monkeypatch, capsys, exc):
    import fuschar.exotic

    def crash(*args):
        raise exc

    monkeypatch.setattr(fuschar.exotic, "overgroup_context", lambda p, which: None)
    monkeypatch.setattr(fuschar.exotic, "chain_certificates", crash)
    assert main(["paper", "--item", "exotic:F547_chain:psu"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: {type(exc).__name__}")
    assert "Traceback" in err


class _ClosedPipe:
    """A stdout whose reader has gone: writing, or only flushing, fails."""

    def __init__(self, fail_on: str) -> None:
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        raise io.UnsupportedOperation("fileno")


@pytest.mark.parametrize("fail_on", ["write", "flush"])
def test_cli_closed_stdout_ends_the_output(monkeypatch, capsys, c8_files, fail_on):
    gpath, _ = c8_files
    monkeypatch.setattr("sys.stdout", _ClosedPipe(fail_on))
    assert main(["--format", "json", "verify-group", "-g", gpath, "-p", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_lets_keyboard_interrupt_through(monkeypatch):
    import fuschar.exotic

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(fuschar.exotic, "table_3492", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["paper", "--item", "exotic:F_3492"])


@pytest.mark.parametrize("item", ["table3", "table5", "lemma42", "exotic:F_3492"])
def test_paper_p_0_is_rejected_not_defaulted(item, capsys):
    assert main(["paper", "--item", item, "--p", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and ("p = " in err or "prime, got 0" in err)


def test_paper_p_specific_items_reject_other_primes(monkeypatch, capsys):
    import fuschar.reftables
    from fuschar.reftables import reproduce

    built = []

    def record(*args):
        built.append(args)
        raise LookupError("stop")

    for name in ("reproduce_table5", "reproduce_table6", "reproduce_example27"):
        monkeypatch.setattr(fuschar.reftables, name, record)
    for item, wrong in (("table5", 3), ("table6", 5), ("example27", 3)):
        assert main(["paper", "--item", item, "--p", str(wrong)]) == 2
        assert "specific to p = " in capsys.readouterr().err
        with pytest.raises(SpecError, match="specific to p = "):
            reproduce(item, wrong)
    assert built == []
    # the item's own prime, or none, runs the suite
    for argv in (["--item", "table5", "--p", "5"], ["--item", "table6", "--p", "3"],
                 ["--item", "example27", "--p", "2"], ["--item", "table6"]):
        assert main(["paper"] + argv) == 2
        assert "internal error: LookupError: stop" in capsys.readouterr().err
    assert len(built) == 4
