"""Tests of the benchmark's own parts: each output check rejects a corrupted
result, the lattice arithmetic agrees with brute force, inputs repeat for a
seed, and the tracer counts the same work twice and restores what it wrapped.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import inputs  # noqa: E402
import workload  # noqa: E402
from tracer import Tracer  # noqa: E402

from bhht.euler import euler_analysis, verify_duality  # noqa: E402
from bhht.fixtures import parse_fixture  # noqa: E402


def run_one(name, item):
    return workload.Workload(name, [item]).run(0)


def item_named(items, name):
    return next(i for i in items if i.name == name)


# -- checks reject corrupted results ----------------------------------------------------


def test_milnor_orlik_rejects_a_coefficient_off_by_one():
    item = inputs.Input("t", "x1^3+x2^3+x3^3", ["(123)"])
    spec = parse_fixture(item.fixture_text())
    analysis = euler_analysis(spec.matrix, spec.perm_group())
    terms = [(c, cls.h_order, cls.t_order) for cls, c in analysis.element.coefficients.items()]
    rows = checks.anchored_rows(checks.parse_polynomial(item.polynomial))
    assert checks.check_milnor_orlik(rows, 3, terms) == []
    c, h, t = terms[0]
    assert checks.check_milnor_orlik(rows, 3, [(c + 1, h, t)] + terms[1:])


def test_catalogue_checks_reject_a_flipped_verdict():
    item = item_named(inputs.catalogue_inputs(ROOT), "counterexample_m3")
    data = run_one("catalogue", item)
    assert workload.check("catalogue", item, data) == []
    flipped = dict(data, equal=not data["equal"])
    assert workload.check("catalogue", item, flipped)
    assert checks.check_theorem(True, False)
    wrong_pc = dict(data, pc=not data["pc"], witness=None)
    assert workload.check("catalogue", item, wrong_pc)


def test_generated_checks_reject_a_failed_lemma_and_a_bad_coefficient():
    item = inputs.generated_inputs(3, copies=1)[1]
    data = run_one("generated", item)
    assert data["pc"] and workload.check("generated", item, data) == []
    assert workload.check("generated", item, dict(data, lemmas=data["lemmas"][:-1] + [False]))
    assert workload.check("generated", item, dict(data, lemmas=[]))
    (c, h, t), *rest = data["rhs_terms"]
    assert workload.check("generated", item, dict(data, rhs_terms=[(c - 1, h, t)] + rest))


def test_mirror_checks_reject_a_wrong_dual_group():
    item = item_named(inputs.table1_inputs(ROOT), "table1_r11")
    data = run_one("mirror", item)
    assert workload.check("mirror", item, data) == []
    g_lines = [line for line in data["text"].splitlines() if line.startswith("1/")]
    wrong = data["text"].replace(g_lines[0], "1/15(1,2,0,0,0)")
    assert workload.check("mirror", item, dict(data, text=wrong))
    full = data["text"].replace("\n".join(g_lines), "full")
    assert workload.check("mirror", item, dict(data, text=full))
    assert workload.check("mirror", item, dict(data, dual_order=data["dual_order"] + 1))
    not_transposed = data["text"].replace("x5^5", "x5^6")
    assert not_transposed != data["text"]
    assert workload.check("mirror", item, dict(data, text=not_transposed))


def test_seeded_mirror_input_passes_its_checks():
    item = inputs.mirror_inputs(ROOT, 5)[-1]
    data = run_one("mirror", item)
    assert workload.check("mirror", item, data) == []


def test_parity_checks_reject_wrong_claims():
    n = 4
    klein = checks.parse_perm_lines(["Z2x2"], n)
    assert checks.check_parity(n, klein, False, [list(g) for g in klein]) == []
    assert checks.check_parity(n, klein, True, None)
    assert checks.check_parity(n, klein, False, None)
    assert checks.check_parity(n, klein, False, [list(klein[0])])
    double = [checks.parse_perm("(12)(34)", n)]
    assert checks.check_parity(n, double, True, None) == []


# -- exact arithmetic -------------------------------------------------------------------


def test_subgroup_order_matches_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 3)
        d = rng.choice([4, 6, 9, 12])
        gens = [tuple(Fraction(rng.randrange(d), d) for _ in range(n))
                for _ in range(rng.randint(1, 3))]
        elements = {tuple(Fraction(0) for _ in range(n))}
        frontier = list(elements)
        while frontier:
            frontier = [s for e in frontier for g in gens
                        for s in [tuple((a + b) % 1 for a, b in zip(e, g))]
                        if s not in elements and not elements.add(s)]
        assert checks.subgroup_order(gens) == len(elements)


def test_milnor_euler_of_a_fermat_curve():
    # x^5 + y^5: mu = 16, so the Milnor fibre has Euler characteristic 1 - 16
    assert checks.milnor_euler([[5, 0], [0, 5]]) == -15


# -- inputs and tracing ---------------------------------------------------------------


def test_inputs_repeat_for_a_seed_and_change_with_it():
    first = [i.fixture_text() for i in inputs.generated_inputs(11, copies=1)]
    assert first == [i.fixture_text() for i in inputs.generated_inputs(11, copies=1)]
    assert first != [i.fixture_text() for i in inputs.generated_inputs(12, copies=1)]
    assert len(inputs.catalogue_inputs(ROOT)) == 17


def test_tracer_counts_repeat_and_wrappers_come_off():
    import bhht.burnside
    import bhht.euler

    original = bhht.euler.mark
    summaries = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert bhht.euler.mark is not original and bhht.burnside.mark is bhht.euler.mark
            item = inputs.Input("t", "x1^3+x2^3+x3^3", ["(123)"])
            spec = parse_fixture(item.fixture_text())
            verify_duality(spec.matrix, spec.perm_group())
        finally:
            tracer.uninstall()
        summaries.append({k: v for k, v in tracer.summary().items() if not k.endswith("_s")})
    assert bhht.euler.mark is original
    assert summaries[0] == summaries[1]
    assert summaries[0]["euler.euler_analysis.calls"] == 2
    assert summaries[0]["euler.euler_analysis.useful_ratio"] == 0.5
    assert summaries[0]["burnside.mark.calls"] > 0
