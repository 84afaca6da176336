import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import pytest
from conftest import X1

from bhht.cli import main
from bhht.diaggroups import DEFAULT_GROUP_BOUND, CharacterPairing, DiagonalGroup, Subgroup
from bhht.errors import MembershipError, ParseError
from bhht.fixtures import (
    DATA_DIR,
    format_group_key,
    format_group_subgroup,
    load_catalogue,
    load_fixture,
    parse_fixture,
    parse_group_element,
    serialize_fixture,
)
from bhht.intmat import hermite_key, hermite_order
from bhht.polynomials import parse_polynomial


@pytest.fixture(scope="module")
def catalogue():
    return load_catalogue()


def run_cli(*args):
    from io import StringIO

    out = StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(list(args))
    finally:
        sys.stdout = old
    return code, out.getvalue()


# -- fixture grammar ----------------------------------------------------------------


def test_catalogue_loads(catalogue):
    assert len(catalogue) >= 50
    assert "x1_z2" in catalogue and "table1_r2" in catalogue


def test_fixture_round_trip(catalogue):
    for fx in catalogue.values():
        text = serialize_fixture(fx)
        again = parse_fixture(text, name=fx.name)
        assert serialize_fixture(again) == text


def test_fixture_grammar_errors():
    with pytest.raises(ParseError):
        parse_fixture("[polynomial]\nx1^2\n[bogus]\n")
    with pytest.raises(ParseError):
        parse_fixture("x1^2\n")
    with pytest.raises(ParseError):
        parse_fixture("[polynomial]\nx1^2\n[expect]\nnonsense\n")
    with pytest.raises(ParseError, match="exactly one"):
        parse_fixture("[polynomial]\nx1^2\nx1^3\n")
    with pytest.raises(ParseError, match="bad meta line"):
        parse_fixture("[polynomial]\nx1^2\n[meta]\nnonsense\n")


@pytest.mark.parametrize("text", ["3/2*x1^2+x2^3", "-2*x1^3+x2^3"])
def test_a_fixture_with_a_coefficient_round_trips(text):
    # no bundled fixture has a coefficient other than 1
    fx = parse_fixture("[polynomial]\n%s\n" % text)
    assert fx.polynomial_text == text
    serialized = serialize_fixture(fx)
    assert text in serialized.splitlines()
    again = parse_fixture(serialized)
    assert again.matrix == fx.matrix == parse_polynomial(text)
    assert serialize_fixture(again) == serialized


def test_group_element_grammar(catalogue):
    fx = catalogue["table1_r80"]
    group = DiagonalGroup(fx.matrix.anchored())
    gen = parse_group_element("1/41(1,-4,16,18,10)", group)
    assert gen in group
    j = parse_group_element("J", group)
    assert j == parse_group_element("1/5(1,1,1,1,1)", group)
    with pytest.raises(ParseError):
        parse_group_element("5(1,2)", group)


@pytest.mark.parametrize("polynomial, line, expected", [
    (X1, "1/5(1,0,0,0,0)", (1, 0, 0, 0, 0)),
    (X1, "1/10(2,4,6,8,0)", (1, 2, 3, 4, 0)),  # not reduced
    (X1, "1/5(-1,6,-5,0,-14)", (4, 1, 0, 0, 1)),  # taken mod 1
    (X1, "1/-5(1,0,0,0,0)", (4, 0, 0, 0, 0)),
    (X1, "1/0(1,0,0,0,0)", ParseError),
    (X1, "1/5(1,x,0,0,0)", ParseError),
    (X1, "1/2(1,0,0,0,0)", MembershipError),  # 2 does not divide L = 5
    (X1, "1/5(1,0,0,0)", MembershipError),  # four entries for five variables
    ("x1^2*x2+x2^3", "1/6(1,0)", MembershipError),  # L = 6, but 2/6 + 0 is no integer
    ("x1^2*x2+x2^3", "1/6(2,2)", (2, 2)),
    ("x1^2*x2+x2^3", "J", (2, 2)),  # weights 1/3 and 1/3
])
def test_group_element_lines(polynomial, line, expected):
    # the entries are the rationals a/m mod 1, in units of 1/L
    group = DiagonalGroup(parse_polynomial(polynomial))
    if isinstance(expected, tuple):
        assert parse_group_element(line, group) == expected
    else:
        with pytest.raises(expected):
            parse_group_element(line, group)


def test_g_subgroup_orders(catalogue):
    for name, order in (("table1_r2", 5), ("table1_r83", 625),
                        ("table1_r80", 205), ("x1_z2", 3125)):  # x1_z2: full
        fx = catalogue[name]
        assert len(frozenset(fx.g_subgroup(DiagonalGroup(fx.matrix.anchored())))) == order


# -- CLI verbs ----------------------------------------------------------------------


def test_cmd_validate_reports_blocks():
    code, out = run_cli("validate", "x1_z2", "x14_z2a")
    assert code == 0
    assert "chain" in out and "loop" in out


def test_cmd_validate_flip_fixture_expected_error():
    code, out = run_cli("validate", "flip_loop")
    assert code == 0
    assert "DegenerateLoopError" in out and "as expected" in out


def test_cmd_validate_bad_polynomial(tmp_path):
    bad = tmp_path / "bad.fix"
    bad.write_text("[polynomial]\nx1^2+x1*x2+x2^3\n\n[S]\n")
    code, _out = run_cli("validate", str(bad))
    assert code == 2


@pytest.mark.parametrize("verb, polynomial, g_line, s_line", [
    ("pc", "x1^2+x2^2+x3^2+x4^2", "full", "(12) (34)"),
    ("pc", "x1^2+x2^2+x3^2+x4^2", "full", "(1,x)"),
    ("pc", "x1^2+x2^2+x3^2+x4^2", "full", "((12))"),
    ("validate", "1/0*x1^3", "full", ""),
    ("dual", "x1^2+x2^2", "1/0(1,1)", ""),
], ids=["cycle-spaced", "cycle-letter", "cycle-nested", "coefficient-over-zero",
        "g-over-zero"])
def test_malformed_text_is_an_input_error(tmp_path, verb, polynomial, g_line, s_line):
    fx = tmp_path / "bad.fix"
    fx.write_text("[polynomial]\n%s\n\n[G]\n%s\n\n[S]\n%s\n" % (polynomial, g_line, s_line))
    code, _out = run_cli(verb, str(fx))
    assert code == 2


# a chain ending in its variable alone, a chain starting with exponent 1,
# which f^T ends in its variable alone, and even loops with exponent 1 at
# every other variable
WEIGHTS_OUTSIDE_THE_UNIT_INTERVAL = [
    "x1*x2+x2", "x1^2*x2+x2*x3+x3", "x1*x2+x2^3*x1", "x1*x2+x2^3",
    "x1*x2+x2^2*x3+x3*x4+x4*x1", "x1*x2+x2^3*x3+x3*x4+x4^3*x1"]


def refused_with(tmp_path, verb, polynomial, as_json):
    """Run a verb on a fixture holding the polynomial; an input error, with
    nothing on stdout."""
    fx = tmp_path / "linear.fix"
    fx.write_text("[polynomial]\n%s\n\n[S]\n" % polynomial)
    assert run_cli(verb, *(["--json"] if as_json else []), str(fx)) == (2, "")


@pytest.mark.parametrize("polynomial", WEIGHTS_OUTSIDE_THE_UNIT_INTERVAL)
@pytest.mark.parametrize("as_json", [False, True])
def test_cmd_verify_refuses_an_f_without_weights_in_the_unit_interval(
        tmp_path, capsys, polynomial, as_json):
    refused_with(tmp_path, "verify", polynomial, as_json)
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("polynomial", WEIGHTS_OUTSIDE_THE_UNIT_INTERVAL)
@pytest.mark.parametrize("as_json", [False, True])
def test_cmd_validate_refuses_an_f_without_weights_in_the_unit_interval(
        tmp_path, capsys, polynomial, as_json):
    refused_with(tmp_path, "validate", polynomial, as_json)
    assert capsys.readouterr().err.startswith("linear: NotInvertibleError: ")


@pytest.mark.parametrize("s_lines", [["(12)", "(12)"], ["(12)", "()", "(12)"]],
                         ids=["repeated", "with-identity"])
def test_cmd_pc_witness_names_each_generator_once(tmp_path, s_lines):
    # S = <(12)> is its own least violating subgroup, so the witness is S
    # itself, printed by its generators: the repeated line and the identity
    # are not among them
    fx = tmp_path / "twice.fix"
    fx.write_text("[polynomial]\nx1^3+x2^3\n\n[S]\n%s\n" % "\n".join(s_lines))
    code, out = run_cli("pc", "--json", str(fx))
    assert code == 0
    assert json.loads(out)["witness"] == ["(12)"]


def test_cmd_pc_five_example_groups():
    code, out = run_cli("pc", "pc_a3", "pc_a4", "pc_z2x2", "pc_d10", "pc_a5")
    assert code == 0
    verdicts = [line.split("pc = ")[1].split()[0] for line in out.splitlines()]
    assert verdicts == ["True", "False", "False", "True", "False"]


def test_cmd_pc_table1_non_pc_rows():
    code, out = run_cli("pc", "table1_r7", "table1_r25", "table1_r62", "table1_r26")
    assert code == 0
    assert out.count("pc = False") == 4


def test_cmd_pc_json():
    code, out = run_cli("pc", "--json", "pc_a3")
    assert code == 0
    rec = json.loads(out)
    assert rec["pc"] is True and rec["expected_met"] is True


def test_cmd_pc_mismatch_exit_code(tmp_path):
    fx = tmp_path / "wrong.fix"
    fx.write_text("[polynomial]\nx1^3+x2^3+x3^3\n\n[S]\n(123)\n\n[expect]\npc = false\n")
    code, _out = run_cli("pc", str(fx))
    assert code == 1


def test_cmd_dual_is_involutive(tmp_path):
    first = tmp_path / "dual1.fix"
    second = tmp_path / "dual2.fix"
    code, _ = run_cli("dual", "table1_r2", "-o", str(first))
    assert code == 0
    code, _ = run_cli("dual", str(first), "-o", str(second))
    assert code == 0
    original = load_fixture(DATA_DIR / "table1_r2.fix")
    twice = load_fixture(second)
    assert twice.matrix == original.matrix.anchored()
    group = DiagonalGroup(original.matrix.anchored())
    assert twice.g_subgroup(group) == original.g_subgroup(group)


def test_cmd_dual_writes_the_whole_group_as_full(tmp_path):
    # the dual of the whole group is the trivial one, written as its zero
    # element, and the dual of that is the whole group, written as the word
    text = "[polynomial]\nx1^2*x2+x2^3\n\n[G]\n%s\n\n[S]\n"
    for g_line, dual_line in (("full", "1/1(0,0)"), ("1/1(0,0)", "full")):
        path = tmp_path / "g.fix"
        path.write_text(text % g_line)
        code, out = run_cli("dual", str(path))
        assert (code, parse_fixture(out).g_lines) == (0, [dual_line]), g_line


def test_cmd_dual_output_validates(tmp_path, catalogue):
    # f^T of a valid f is valid: the fixture bhht dual writes, with its G
    # and S, passes bhht validate for every catalogue fixture that validates
    # (test_polynomials checks the dual's polynomial text on seeded sums)
    for name, fx in sorted(catalogue.items()):
        if "error" not in fx.expect:
            dual = tmp_path / (name + ".fix")
            assert run_cli("dual", name, "-o", str(dual))[0] == 0, name
            assert run_cli("validate", str(dual))[0] == 0, name


def test_cmd_dual_matches_listed_dual_group(catalogue):
    # (X1, <J>, Z2) dualizes to the index-five subgroup of row 83
    code, out = run_cli("dual", "table1_r2")
    assert code == 0
    dual = parse_fixture(out)
    pairing = CharacterPairing(catalogue["table1_r2"].matrix.anchored())
    expected = catalogue["table1_r83"].g_subgroup(pairing.right)
    assert dual.g_subgroup(pairing.right) == expected


def test_the_mirror_pair_is_built_from_keys(monkeypatch, catalogue):
    # g_subgroup and annihilator hand out Subgroups, which format_group_subgroup
    # reads by their keys: on every Table 1 row the dual G comes out as
    # bhht dual writes it with the walk refused, and on x1^9+...+x5^9 with G
    # full (|G| = 9^5) the path holds no listing
    def refuse(_subgroup):
        raise AssertionError("a subgroup was walked")

    monkeypatch.setattr(Subgroup, "__iter__", refuse)
    rows = sorted(name for name in catalogue if name.startswith("table1_"))
    assert len(rows) == 30
    for name in rows:
        fx = catalogue[name]
        pairing = CharacterPairing(fx.matrix)
        left, right = pairing.left, pairing.right
        dual = pairing.annihilator(fx.g_subgroup(left))
        assert format_group_subgroup(right, dual) \
            == format_group_key(right, pairing.dual_kernel(fx.g_key(left))), name
    fermat = parse_fixture("[polynomial]\n%s\n" % "+".join("x%d^9" % i for i in range(1, 6)))
    pairing = CharacterPairing(fermat.matrix)
    tracemalloc.start()
    try:
        lines = format_group_subgroup(
            pairing.right, pairing.annihilator(fermat.g_subgroup(pairing.left)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines == [pairing.right.format_element(pairing.right.zero)]
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("g_section", ["[G]\n1/3(0,0)\n\n", ""], ids=["trivial_g", "no_g"])
def test_cmd_dual_rejects_s_that_does_not_preserve_f(tmp_path, capsys, g_section):
    # (12) swaps x1^3 and x2^4, so there is no dual pair to emit
    fx = tmp_path / "swap.fix"
    fx.write_text("[polynomial]\nx1^3+x2^4\n\n%s[S]\n(12)\n" % g_section)
    code, out = run_cli("dual", str(fx))
    assert (code, out) == (2, "")
    assert "permutation (12) does not preserve the polynomial" in capsys.readouterr().err


@pytest.mark.parametrize("verb, options", [
    ("validate", ()),
    ("pc", ()),
    # skipping an input for its size must not skip the check
    ("euler", ("--max-group-order", "1")),
    ("verify", ("--max-group-order", "1")),
    ("table1", ("--max-group-order", "1")),
], ids=["validate", "pc", "euler", "verify", "table1"])
def test_cmd_rejects_s_that_does_not_preserve_f(tmp_path, capsys, verb, options):
    fx = tmp_path / "table1_swap.fix"
    fx.write_text("[polynomial]\nx1^3+x2^4\n\n[S]\n(12)\n")
    files = ["--fixtures", str(tmp_path)] if verb == "table1" else [str(fx)]
    code, out = run_cli(verb, *options, *files)
    assert (code, out) == (2, "")
    assert "permutation (12) does not preserve the polynomial" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("dual", "--json", "table1_r2"),
    ("selftest", "--json"),
    ("validate", "--max-group-order", "5", "x1_z2"),
    ("pc", "--oracle", "pc_a3"),
])
def test_options_only_on_verbs_that_read_them(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("verb, files", [
    ("euler", ("x1_z2",)),
    ("verify", ("x1_z2",)),
    ("table1", ()),
])
@pytest.mark.parametrize("bound", ["-5", "0"])
def test_max_group_order_must_be_positive(verb, files, bound, capsys):
    # a bound below 1 would skip every input and still exit 0
    with pytest.raises(SystemExit) as exc:
        main([verb, *files, "--max-group-order", bound])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-group-order: '%s' is not a positive integer" % bound in captured.err


def test_cmd_euler_golden_byte_stable():
    code1, out1 = run_cli("euler", "counterexample_m3")
    code2, out2 = run_cli("euler", "counterexample_m3")
    assert code1 == code2 == 0
    assert out1 == out2
    golden = (DATA_DIR / "counterexample_m3.golden.jsonl").read_text()
    assert out1 == golden


def test_cmd_euler_all_goldens():
    for name in ("x1_z2", "x15_z5"):
        code, out = run_cli("euler", name)
        assert code == 0
        assert out == (DATA_DIR / ("%s.golden.jsonl" % name)).read_text()


def test_cmd_euler_write_golden_and_a_golden_mismatch(tmp_path, capsys):
    # on a copy of the fixtures: a stale golden is a mismatch (exit 1),
    # --write-golden rewrites it, and the rewritten one matches
    fixtures = tmp_path / "fixtures"
    shutil.copytree(DATA_DIR, fixtures)
    golden = fixtures / "counterexample_m3.golden.jsonl"
    expected = golden.read_text()
    golden.write_text("stale\n")
    code, out = run_cli("euler", "--fixtures", str(fixtures), "counterexample_m3")
    assert (code, out) == (1, expected)
    assert capsys.readouterr().err == ("counterexample_m3: output differs from golden "
                                       "counterexample_m3.golden.jsonl\n")
    code, out = run_cli("euler", "--fixtures", str(fixtures), "--write-golden",
                        "counterexample_m3")
    assert (code, out) == (0, expected)
    assert capsys.readouterr().err == "# wrote counterexample_m3.golden.jsonl\n"
    assert golden.read_text() == expected
    code, out = run_cli("euler", "--fixtures", str(fixtures), "counterexample_m3")
    assert (code, out) == (0, expected)
    assert capsys.readouterr().err == "# golden match: counterexample_m3.golden.jsonl\n"
    assert (DATA_DIR / "counterexample_m3.golden.jsonl").read_text() == expected


def test_cmd_euler_golden_of_a_fixture_given_by_path_lies_next_to_it(tmp_path, capsys):
    # a copy of a bundled fixture elsewhere, its polynomial changed: its
    # golden is written and then matched next to the copy, and the bundled
    # golden stays as it was
    bundled = DATA_DIR / "counterexample_m3.golden.jsonl"
    before = bundled.read_bytes()
    copy = tmp_path / "counterexample_m3.fix"
    copy.write_text((DATA_DIR / "counterexample_m3.fix").read_text()
                    .replace("x1^3+x2^3+x3^3+x4^3", "x1^5+x2^5+x3^5+x4^5"))
    code, out = run_cli("euler", "--write-golden", str(copy))
    assert code == 0 and out != before.decode()
    assert capsys.readouterr().err == "# wrote counterexample_m3.golden.jsonl\n"
    assert (tmp_path / "counterexample_m3.golden.jsonl").read_text() == out
    assert run_cli("euler", str(copy)) == (0, out)
    assert capsys.readouterr().err == "# golden match: counterexample_m3.golden.jsonl\n"
    assert bundled.read_bytes() == before
    assert run_cli("euler", "counterexample_m3") == (0, before.decode())


def test_cmd_euler_oracle_flag(capsys):
    code, _out = run_cli("euler", "--oracle", "pc_a3")
    assert code == 0
    assert "# oracle: pc_a3: 16 fixed-point classes consistent, |G x| S| = 81\n" \
        in capsys.readouterr().err


def test_cmd_verify_oracle_skips_groups_above_the_cap(capsys):
    # |G x| S| = 6,250 for x1_z2: the consistency sweep is skipped, not failed,
    # and says so on stderr; stdout is that of a run without --oracle
    from bhht.oracles import CONSISTENCY_ORDER_BOUND

    assert CONSISTENCY_ORDER_BOUND < 6250
    code, plain = run_cli("verify", "x1_z2", "pc_a3")
    capsys.readouterr()
    code, out = run_cli("verify", "--oracle", "x1_z2", "pc_a3")
    assert code == 0 and out == plain
    assert capsys.readouterr().err.splitlines() == [
        "# oracle: x1_z2: sweep skipped above %d, |G x| S| = 6250"
        % CONSISTENCY_ORDER_BOUND,
        "# oracle: pc_a3: 16 fixed-point classes consistent, |G x| S| = 81",
    ]


def test_cmd_verify_expected_outcomes():
    code, out = run_cli("verify", "x1_z2", "x14_z2a", "x14_abelian",
                        "counterexample_m3")
    assert code == 0
    assert out.count("duality HOLDS") == 3
    assert out.count("duality FAILS") == 1


def test_cmd_verify_json():
    code, out = run_cli("verify", "--json", "chain23_abelian")
    assert code == 0
    rec = json.loads(out)
    assert rec["equal"] is True and rec["diff"] == []


def test_cmd_verify_json_carries_the_lemma_checks():
    code, out = run_cli("verify", "--json", "--lemmas", "pc_a3", "counterexample_m3")
    assert code == 0
    pc_a3, m3 = map(json.loads, out.splitlines())
    assert [(rec["passed"], rec["detail"]) for rec in pc_a3["lemmas"]] == [(True, "")] * 5
    assert all(rec["name"] for rec in pc_a3["lemmas"])
    assert m3["fixture"] == "counterexample_m3" and "lemmas" not in m3


def test_cmd_verify_detects_wrong_expectation(tmp_path):
    fx = tmp_path / "wrong.fix"
    fx.write_text("[polynomial]\nx1^4+x2^4+x3^4+x4^4\n\n[S]\n(12)(34)\n(13)(24)\n"
                  "\n[expect]\nduality_equal = true\n")
    code, _out = run_cli("verify", str(fx))
    assert code == 1


def test_cmd_table1_skips_large_groups():
    code, out = run_cli("table1", "--max-group-order", "20000")
    assert code == 0
    lines = out.splitlines()
    skipped = [l for l in lines if " skip" in l]
    # the alternating-group rows and everything bigger than the cap are skipped
    assert any("62" in l.split()[0] for l in skipped)
    pc_true = [l for l in lines[1:] if " True " in l]
    assert len(pc_true) == 22  # 9 dual pairs plus the two extra pairs


def test_cmd_table1_labels_cached_rows_and_sorts_row_ids_numerically():
    code, out = run_cli("table1", "--max-group-order", "3000")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    ids = [r[0] for r in rows]
    assert ids.index("2") < ids.index("11") < ids.index("80") < ids.index("80d")
    times = {r[0]: r[-1] for r in rows}
    # row 12 repeats the (f, S) of row 11, so its verdict is reused
    assert times["11"].endswith("s") and times["12"] == "cached"
    code, out = run_cli("table1", "--max-group-order", "3000", "--json")
    records = {str(rec["row"]): rec for rec in json.loads(out)}
    assert records["11"]["cached"] is False and records["11"]["seconds"] >= 0
    assert records["12"]["cached"] is True and records["12"]["seconds"] is None


def test_cmd_table1_times_in_milliseconds_and_skipped_rows_show_a_dash():
    code, out = run_cli("table1", "--max-group-order", "3000")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    timed = [r[-1] for r in rows if r[-2] in ("equal", "differs") and r[-1] != "cached"]
    assert timed and all(t.endswith("ms") and float(t[:-2]) > 0 for t in timed)
    assert all(r[-1] == "-" for r in rows if r[-2] == "skip")
    assert any(r[-2] == "skip" for r in rows)


def test_output_over_the_listing_bound_lists_nothing(tmp_path, monkeypatch):
    # |G| = 11^6 is over DEFAULT_GROUP_BOUND, which bounds listing only: the
    # JSON and euler output print the H of every class, and the failed
    # verdict under (12) its differences, by Hermite rows, so each completes
    # without listing a subgroup, and the printed generators of each H span
    # a group of its printed order
    poly = "+".join("x%d^11" % i for i in range(1, 7))
    text = "[polynomial]\n%s\n\n[S]\n%%s\n" % poly
    for name, s_line in (("big", "(123)(456)"), ("swap", "(12)")):
        (tmp_path / (name + ".fix")).write_text(text % s_line)
    big, swap = str(tmp_path / "big.fix"), str(tmp_path / "swap.fix")
    listings = []
    listed = DiagonalGroup.kernel_elements

    def counted(group, key):
        listings.append(key)
        return listed(group, key)

    monkeypatch.setattr(DiagonalGroup, "kernel_elements", counted)
    group = DiagonalGroup(parse_polynomial(poly))  # f^T = f
    printed = []
    for args in (("verify", big, "--json"), ("euler", big), ("verify", swap),
                 ("verify", swap, "--json")):
        code, out = run_cli(*args, "--max-group-order", "100000000")
        assert (code, listings) == (0, []), args
        if args[0] == "euler":
            printed += [rec for rec in map(json.loads, out.splitlines())
                        if rec["type"] == "class"]
        elif "--json" in args:
            payload = json.loads(out)
            printed += payload["lhs"] + payload["rhs"]
            printed += [d["class"] for d in payload["diff"]]
    assert len(printed) > 200
    for rec in printed:
        gens = [parse_group_element(line, group) for line in rec["H"]]
        key = hermite_key(gens, group.n, group.exponent)
        assert hermite_order(key, group.exponent) == rec["Horder"], rec
    code, out = run_cli("verify", big, "--lemmas", "--max-group-order", "100000000")
    assert code == 0 and "duality HOLDS" in out
    assert sum(line.endswith(" ok") for line in out.splitlines()) == 5


def test_listing_bound_does_not_depend_on_how_g_is_written(tmp_path):
    # 8^7 elements, over DEFAULT_GROUP_BOUND, as the word full or as
    # generators: the dual goes key to key and lists nothing, so no bound
    # applies, and G's annihilator is the trivial group either way
    assert 8 ** 7 > DEFAULT_GROUP_BOUND
    text = "[polynomial]\n%s\n\n[G]\n%s\n\n[S]\n"
    poly = "+".join("x%d^8" % i for i in range(1, 8))
    units = ["1/8(%s)" % ",".join(str(int(i == j)) for j in range(7)) for i in range(7)]
    for name, g_lines in (("full", ["full"]), ("units", units)):
        fx = tmp_path / (name + ".fix")
        fx.write_text(text % (poly, "\n".join(g_lines)))
        code, out = run_cli("dual", str(fx))
        assert code == 0, name
        assert parse_fixture(out).g_lines == ["1/1(0,0,0,0,0,0,0)"], name


def test_cmd_dual_rejects_g_that_s_does_not_preserve(tmp_path, capsys):
    # (12) moves 1/3(1,0) out of <1/3(1,0)> but keeps <1/3(1,2)>
    for g_line, expected in (("1/3(1,0)", 2), ("1/3(1,2)", 0)):
        fx = tmp_path / "g.fix"
        fx.write_text("[polynomial]\nx1^3+x2^3\n\n[G]\n%s\n\n[S]\n(12)\n" % g_line)
        code, out = run_cli("dual", str(fx))
        assert code == expected, g_line
        err = capsys.readouterr().err
        assert ("G is not invariant under S; no dual pair" in err) == (code == 2)
    assert parse_fixture(out).g_lines == ["1/3(1,1)"]  # the annihilator


def test_structural_failure_is_a_mathematical_error(monkeypatch):
    import bhht.cli
    from bhht.errors import StructuralAssumptionViolated

    def fail(*_args):
        raise StructuralAssumptionViolated("marks residual 1 on stratum (1,)")

    monkeypatch.setattr(bhht.cli, "verify_duality", fail)
    code, _out = run_cli("verify", "x1_z2")
    assert code == 3


def test_fixture_dir_env_override(tmp_path, monkeypatch):
    fx = tmp_path / "only.fix"
    fx.write_text("[polynomial]\nx1^3+x2^3+x3^3\n\n[S]\n(123)\n\n[expect]\npc = true\n")
    monkeypatch.setenv("SAITO_FIXTURES", str(tmp_path))
    code, out = run_cli("pc", "only")
    assert code == 0 and "only" in out


def test_fixtures_flag_beats_the_env_directory(tmp_path, monkeypatch):
    # one fixture name in two directories, expected to hold in the flag's
    # and to fail in SAITO_FIXTURES': the flag's is read when both are set
    text = "[polynomial]\nx1^3+x2^3+x3^3\n\n[S]\n(123)\n\n[expect]\npc = %s\n"
    flag, env = tmp_path / "flag", tmp_path / "env"
    for directory, pc in ((flag, "true"), (env, "false")):
        directory.mkdir()
        (directory / "only.fix").write_text(text % pc)
    monkeypatch.setenv("SAITO_FIXTURES", str(env))
    assert run_cli("pc", "only", "--fixtures", str(flag))[0] == 0
    assert run_cli("pc", "only")[0] == 1


def test_missing_fixture_is_input_error():
    code, _ = run_cli("pc", "no_such_fixture_anywhere")
    assert code == 2


def run_python(*args):
    """A fresh interpreter that imports the package from the same source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(DATA_DIR.parents[1]), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def test_import_leaves_numpy_out():
    proc = run_python("-c", "import sys, bhht.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_dataclasses_inspect_and_oracles_out():
    # only what the import itself loads counts: the interpreter's start-up may
    # have loaded some of these already
    proc = run_python("-c", "import sys; before = set(sys.modules); "
                      "import bhht.cli, bhht.euler; "
                      "print(sorted({'dataclasses', 'inspect', 'bhht.oracles'} "
                      "& (set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fixture_parses_its_polynomial_once(monkeypatch):
    from bhht import fixtures

    path = DATA_DIR / "table1_r2.fix"
    text = serialize_fixture(load_fixture(path))
    calls = []

    def counted(polynomial_text):
        calls.append(polynomial_text)
        return parse_polynomial(polynomial_text)

    monkeypatch.setattr(fixtures, "parse_polynomial", counted)
    fx = load_fixture(path)
    assert fx.matrix is fx.matrix
    assert fx.nvars == fx.matrix.n == fx.perm_group().n
    assert serialize_fixture(fx) == text
    assert calls == [fx.polynomial_text]


def test_console_script_entry_point():
    proc = run_python("-m", "bhht.cli", "selftest")
    assert proc.returncode == 0
    assert "0 failure(s)" in proc.stdout
