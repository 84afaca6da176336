"""Every catalogue verdict pinned by hash.

For each distinct (anchored f, S) among the bundled fixtures with
|G_f x| S| <= 10,000, the euler JSONL of f and of f^T, the verify record
and, on PC pairs, the lemma report must hash to the values in
``data/catalogue_pins.json``; so must ``pc --json`` and ``dual`` of every
Table 1 row.  A refactor that keeps results byte-identical passes unchanged.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bhht.cli import _euler_jsonl, main
from bhht.euler import lemma_level_checks, verify_duality
from bhht.fixtures import load_catalogue
from bhht.oracles import determinant

PINS = json.loads((Path(__file__).parent / "data" / "catalogue_pins.json").read_text())
MAX_ORDER = 10000
CATALOGUE = load_catalogue()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def verdict_pairs():
    """The first fixture naming each distinct (anchored f, S) within MAX_ORDER."""
    out = {}
    for name, fx in CATALOGUE.items():
        if "error" in fx.expect:
            continue
        matrix = fx.matrix.anchored()
        S = fx.perm_group()
        if abs(determinant(matrix.rows)) * S.order > MAX_ORDER:
            continue
        out.setdefault((matrix.rows, S.element_set), name)
    return sorted(out.values())


def verdict_outputs(name):
    fx = CATALOGUE[name]
    S = fx.perm_group()
    report = verify_duality(fx.matrix, S)
    out = {
        "euler_f": _euler_jsonl(report.lhs_analysis),
        "euler_fT": _euler_jsonl(report.rhs_analysis),
        "verify": json.dumps(report.to_records(), sort_keys=True),
    }
    if report.pc.satisfies:
        checks = lemma_level_checks(fx.matrix, S).checks
        out["lemmas"] = json.dumps([[c.name, c.passed, c.detail] for c in checks])
    return out


def table1_outputs(name, capsys):
    out = {}
    for verb, args in (("pc", ["pc", "--json", name]), ("dual", ["dual", name])):
        assert main(args) == 0
        out[verb] = capsys.readouterr().out
    return out


def test_pinned_pairs_are_the_catalogue_pairs():
    assert verdict_pairs() == sorted(PINS["verdicts"])
    rows = sorted(name for name in CATALOGUE if name.startswith("table1_"))
    assert rows == sorted(PINS["table1"])


@pytest.mark.parametrize("name", sorted(PINS["verdicts"]))
def test_verdict_outputs_match_pins(name):
    got = {key: _sha(text) for key, text in verdict_outputs(name).items()}
    for key, want in PINS["verdicts"][name].items():
        assert got.get(key) == want, "%s: %s output differs from its pin" % (name, key)
    assert set(got) == set(PINS["verdicts"][name]), name


@pytest.mark.parametrize("name", sorted(PINS["table1"]))
def test_table1_outputs_match_pins(name, capsys):
    got = {key: _sha(text) for key, text in table1_outputs(name, capsys).items()}
    for key, want in PINS["table1"][name].items():
        assert got[key] == want, "%s: %s output differs from its pin" % (name, key)
