import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from bhht.cli import main
from bhht.diaggroups import CharacterPairing
from bhht.errors import ParseError
from bhht.fixtures import (
    DATA_DIR,
    load_catalogue,
    load_fixture,
    parse_fixture,
    parse_group_element,
    serialize_fixture,
)


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


def test_group_element_grammar(catalogue):
    fx = catalogue["table1_r80"]
    group = fx.diagonal_group()
    gen = parse_group_element("1/41(1,-4,16,18,10)", group)
    assert gen in group
    j = parse_group_element("J", group)
    assert j == group.from_fractions([Fraction(1, 5)] * 5)
    with pytest.raises(ParseError):
        parse_group_element("5(1,2)", group)


def test_g_subgroup_orders(catalogue):
    assert len(catalogue["table1_r2"].g_subgroup()) == 5
    assert len(catalogue["table1_r83"].g_subgroup()) == 625
    assert len(catalogue["table1_r80"].g_subgroup()) == 205
    assert len(catalogue["x1_z2"].g_subgroup()) == 3125  # full


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
    group = original.diagonal_group()
    assert twice.g_subgroup(group) == original.g_subgroup(group)


def test_cmd_dual_matches_listed_dual_group(catalogue):
    # (X1, <J>, Z2) dualizes to the index-five subgroup of row 83
    code, out = run_cli("dual", "table1_r2")
    assert code == 0
    dual = parse_fixture(out)
    pairing = CharacterPairing(catalogue["table1_r2"].matrix.anchored())
    expected = catalogue["table1_r83"].g_subgroup(pairing.right)
    assert dual.g_subgroup(pairing.right) == expected


@pytest.mark.parametrize("g_section", ["[G]\n1/3(0,0)\n\n", ""], ids=["trivial_g", "no_g"])
def test_cmd_dual_rejects_s_that_does_not_preserve_f(tmp_path, capsys, g_section):
    # (12) swaps x1^3 and x2^4, so there is no dual pair to emit
    fx = tmp_path / "swap.fix"
    fx.write_text("[polynomial]\nx1^3+x2^4\n\n%s[S]\n(12)\n" % g_section)
    code, out = run_cli("dual", str(fx))
    assert (code, out) == (2, "")
    assert "permutation (12) does not preserve the polynomial" in capsys.readouterr().err


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


def test_cmd_euler_oracle_flag():
    code, _out = run_cli("euler", "--oracle", "pc_a3")
    assert code == 0


def test_cmd_verify_oracle_skips_groups_above_the_cap():
    # |G x| S| = 6,250 for x1_z2: the consistency sweep is skipped, not failed
    from bhht.oracles import CONSISTENCY_ORDER_BOUND

    assert CONSISTENCY_ORDER_BOUND < 6250
    code, _out = run_cli("verify", "--oracle", "x1_z2")
    assert code == 0


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


def test_size_bound_is_a_resource_error(tmp_path):
    fx = tmp_path / "big.fix"
    fx.write_text("[polynomial]\n%s\n\n[S]\n" % "+".join(
        "x%d^4" % i for i in range(1, 12)))
    code, _out = run_cli("verify", str(fx), "--max-group-order", "100000000")
    assert code == 4


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


def test_console_script_entry_point():
    proc = run_python("-m", "bhht.cli", "selftest")
    assert proc.returncode == 0
    assert "0 failure(s)" in proc.stdout
