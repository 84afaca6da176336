"""Command-line front end.

Verbs: validate, pc, dual, euler, verify, table1, selftest.
Exit codes:

    0  all expectations met
    1  mathematical mismatch: a result differs from its expectation or golden
    2  input error: bad fixture, polynomial or group text, missing file
    3  mathematical failure: a structural self-check failed
       (StructuralAssumptionViolated, DegeneratePairingError)
    4  resource bound: a listing exceeded its size bound (SizeBoundError);
       no verdict and no printed class lists a diagonal subgroup
"""

import argparse
import json
import re
import sys
import time
from itertools import combinations_with_replacement
from pathlib import Path

from .diaggroups import DEFAULT_GROUP_BOUND, CharacterPairing, perm_act
from .errors import (
    BhhtError,
    DegeneratePairingError,
    SizeBoundError,
    StructuralAssumptionViolated,
)
from .euler import euler_analysis, lemma_level_checks, verify_duality
from .fixtures import (
    FixtureSpec,
    fixtures_dir,
    format_group_key,
    load_catalogue,
    load_fixture,
    serialize_fixture,
)
from .intmat import hermite_generators, in_hermite
from .permgroups import cycle_notation, pc_check
from .polynomials import check_invariance, serialize_polynomial, transpose

OK, MISMATCH, INPUT_ERROR, MATH_FAILURE, RESOURCE_BOUND = 0, 1, 2, 3, 4


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StructuralAssumptionViolated, DegeneratePairingError) as exc:
        print("error: mathematical failure: %s" % exc, file=sys.stderr)
        return MATH_FAILURE
    except SizeBoundError as exc:
        print("error: resource bound: %s" % exc, file=sys.stderr)
        return RESOURCE_BOUND
    except BhhtError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return INPUT_ERROR
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return INPUT_ERROR


def _option(*args, **kwargs):
    """A parent parser holding one option, for the verbs that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def _positive_int(text):
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("%r is not a positive integer" % text)
    return value


def _build_parser():
    fixtures = _option("--fixtures", metavar="DIR", default=None,
                       help="fixture directory (this flag, else env "
                            "SAITO_FIXTURES, else the bundled fixtures)")
    as_json = _option("--json", action="store_true", help="JSON output")
    oracle = _option("--oracle", action="store_true",
                     help="run slow brute-force cross-checks on small fixtures")
    bound = _option("--max-group-order", type=_positive_int, metavar="N",
                    default=DEFAULT_GROUP_BOUND,
                    help="skip computations whose semidirect product exceeds N")
    parser = argparse.ArgumentParser(
        prog="bhht",
        description="Equivariant Euler characteristics of Milnor fibres of "
                    "invertible polynomials and their Saito duality.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *options, **kwargs):
        return sub.add_parser(name, parents=[fixtures, *options], **kwargs)

    p = add("validate", as_json, help="chain/loop decomposition report")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_validate)

    p = add("pc", as_json, help="parity-condition report")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_pc)

    p = add("dual", help="emit the dual fixture (transpose, dual group)")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_dual)

    p = add("euler", oracle, bound, help="reduced equivariant Euler characteristic")
    p.add_argument("files", nargs="+")
    p.add_argument("--write-golden", action="store_true",
                   help="write golden files instead of comparing")
    p.set_defaults(func=cmd_euler)

    p = add("verify", as_json, oracle, bound, help="check the duality identity")
    p.add_argument("files", nargs="+")
    p.add_argument("--lemmas", action="store_true",
                   help="also run the per-stratum lemma checks (PC fixtures)")
    p.set_defaults(func=cmd_verify)

    p = add("table1", as_json, bound,
            help="summary over the bundled dual-pair table")
    p.set_defaults(func=cmd_table1)

    p = add("selftest", help="quick internal consistency battery")
    p.set_defaults(func=cmd_selftest)
    return parser


def _load(args, name_or_path):
    path = Path(name_or_path)
    if path.exists():
        return load_fixture(path)
    candidate = fixtures_dir(args.fixtures) / (name_or_path + ".fix")
    if candidate.exists():
        return load_fixture(candidate)
    raise BhhtError("no such fixture: %s" % name_or_path)


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args):
    status = OK
    for name in args.files:
        fx = _load(args, name)
        expected_error = fx.expect.get("error")
        try:
            blocks = fx.matrix.validate()
            check_invariance(fx.matrix, fx.perm_group())
        except BhhtError as exc:
            kind = type(exc).__name__
            if expected_error:
                ok = kind == expected_error
                status = max(status, OK if ok else MISMATCH)
                _emit(args, {"fixture": fx.name, "error": kind, "expected": ok},
                      ["%s: %s (%s)" % (fx.name, kind,
                                        "as expected" if ok else "UNEXPECTED")])
            else:
                print("%s: %s: %s" % (fx.name, type(exc).__name__, exc),
                      file=sys.stderr)
                status = max(status, INPUT_ERROR)
            continue
        if expected_error:
            status = max(status, MISMATCH)
            _emit(args, {"fixture": fx.name, "expected_error_missing": True},
                  ["%s: expected %s but validation passed" % (fx.name, expected_error)])
            continue
        payload = {
            "fixture": fx.name,
            "n": fx.nvars,
            "determinant": fx.matrix.determinant(),
            "blocks": [
                {"kind": b.kind,
                 "variables": [v + 1 for v in b.variables],
                 "exponents": list(b.exponents)}
                for b in blocks
            ],
        }
        lines = ["%s: %d variables, determinant %d"
                 % (fx.name, fx.nvars, payload["determinant"])]
        for b in blocks:
            lines.append("  %-5s vars %s exponents %s"
                         % (b.kind, [v + 1 for v in b.variables], list(b.exponents)))
        _emit(args, payload, lines)
    return status


def cmd_pc(args):
    status = OK
    for name in args.files:
        fx = _load(args, name)
        S = fx.perm_group()
        check_invariance(fx.matrix, S)
        result = pc_check(S)
        expected = fx.expect.get("pc")
        ok = expected is None or expected == result.satisfies
        status = max(status, OK if ok else MISMATCH)
        payload = {"fixture": fx.name, "order": S.order, "pc": result.satisfies,
                   "expected_met": ok}
        line = "%s: |S| = %d, pc = %s" % (fx.name, S.order, result.satisfies)
        if result.witness is not None:
            payload["witness"] = [cycle_notation(g)
                                  for g in result.witness.generators] or ["()"]
            line += "  (violated by <%s>, order %d)" % (
                ",".join(payload["witness"]), result.witness.order)
        if not ok:
            line += "  EXPECTED %s" % expected
        _emit(args, payload, [line])
    return status


def cmd_dual(args):
    fx = _load(args, args.file)
    matrix = fx.matrix.anchored()
    pairing = CharacterPairing(matrix)
    S = fx.perm_group()
    check_invariance(matrix, S)
    # the configured subgroup must itself be S-invariant for the dual pair:
    # each generator of S carries each generator of G into G
    key = fx.g_key(pairing.left)
    if not all(in_hermite(key, perm_act(s, g)) for s in S.generators
               for g in hermite_generators(key, pairing.left.exponent)):
        raise BhhtError("G is not invariant under S; no dual pair")
    dual = FixtureSpec(
        name=fx.name + "_dual",
        polynomial_text=serialize_polynomial(transpose(matrix)),
        g_lines=format_group_key(pairing.right, pairing.dual_kernel(key)),
        s_lines=fx.s_lines,
        meta={"dual_of": fx.name},
    )
    text = serialize_fixture(dual)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return OK


def _euler_jsonl(analysis):
    lines = []
    for s in analysis.strata:
        rec = s.to_record()
        rec["type"] = "stratum"
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    for rec in analysis.reduced.records():
        rec["type"] = "class"
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _over_bound(args, fx, S):
    """Whether |G_f x| S| exceeds --max-group-order, once S is known to preserve f."""
    check_invariance(fx.matrix, S)
    return abs(fx.matrix.determinant()) * S.order > args.max_group_order


def _oracle_sweep(fx, *analyses):
    """Run the fixed-point consistency sweep if the ambient is small; say so."""
    from .oracles import CONSISTENCY_ORDER_BOUND, check_fixed_point_consistency

    order = analyses[0].ambient.order
    if order > CONSISTENCY_ORDER_BOUND:
        done = "sweep skipped above %d" % CONSISTENCY_ORDER_BOUND
    else:
        distinct = {id(a): a for a in analyses}.values()  # f^T = f: one analysis
        done = "%d fixed-point classes consistent" % sum(
            check_fixed_point_consistency(a) for a in distinct)
    print("# oracle: %s: %s, |G x| S| = %d" % (fx.name, done, order),
          file=sys.stderr)


def cmd_euler(args):
    status = OK
    for name in args.files:
        fx = _load(args, name)
        S = fx.perm_group()
        if _over_bound(args, fx, S):
            print("%s: skipped (group order over %d)" % (fx.name, args.max_group_order))
            continue
        analysis = euler_analysis(fx.matrix, S)
        if args.oracle:
            _oracle_sweep(fx, analysis)
        out = _euler_jsonl(analysis)
        golden_name = fx.expect.get("golden_euler")
        if golden_name and not args.write_golden:
            golden_path = fixtures_dir(args.fixtures) / golden_name
            if golden_path.read_bytes() != out.encode():
                print("%s: output differs from golden %s" % (fx.name, golden_name),
                      file=sys.stderr)
                status = max(status, MISMATCH)
            else:
                print("# golden match: %s" % golden_name, file=sys.stderr)
        elif golden_name and args.write_golden:
            (fixtures_dir(args.fixtures) / golden_name).write_text(out)
            print("# wrote %s" % golden_name, file=sys.stderr)
        sys.stdout.write(out)
    return status


def cmd_verify(args):
    status = OK
    for name in args.files:
        fx = _load(args, name)
        S = fx.perm_group()
        if _over_bound(args, fx, S):
            print("%s: skipped (group order over %d)" % (fx.name, args.max_group_order))
            continue
        report = verify_duality(fx.matrix, S)
        if args.oracle:
            _oracle_sweep(fx, report.lhs_analysis, report.rhs_analysis)
        expected = fx.expect.get("duality_equal")
        ok = expected is None or expected == report.equal
        pc_expected = fx.expect.get("pc")
        pc_ok = pc_expected is None or pc_expected == report.pc.satisfies
        status = max(status, OK if ok and pc_ok else MISMATCH)
        lemmas = []
        if args.lemmas and report.pc.satisfies:
            lemmas = lemma_level_checks(fx.matrix, S).checks
            if not all(check.passed for check in lemmas):
                status = max(status, MISMATCH)
        if args.json:
            payload = report.to_records()
            payload["fixture"] = fx.name
            payload["expected_met"] = ok and pc_ok
            if lemmas:
                payload["lemmas"] = [vars(check) for check in lemmas]
            print(json.dumps(payload, sort_keys=True))
        else:
            print("%s: pc = %s, duality %s%s"
                  % (fx.name, report.pc.satisfies,
                     "HOLDS" if report.equal else "FAILS",
                     "" if ok and pc_ok else "  (EXPECTATION NOT MET)"))
            for cls, lc, rc in report.diff:
                print("    %r: lhs %d, rhs %d" % (cls, lc, rc))
            for check in lemmas:
                print("    lemma: %-60s %s" % (check.name,
                                               "ok" if check.passed else "FAIL"))
    return status


def _row_key(fx):
    """Numeric order of row ids such as 2, 11, 80d; ids without digits last."""
    row = str(fx.meta.get("row", fx.name))
    digits = re.match(r"\d*", row).group()
    return (not digits, int(digits or 0), row)


def cmd_table1(args):
    catalogue = load_catalogue(args.fixtures)
    rows = sorted((fx for name, fx in catalogue.items()
                   if name.startswith("table1_")), key=_row_key)
    status = OK
    cache = {}
    lines = ["%-6s %-4s %-22s %-6s %-8s %s"
             % ("row", "f", "S", "pc", "duality", "time")]
    payload = []
    for fx in rows:
        S = fx.perm_group()
        result = pc_check(S)
        expected = fx.expect.get("pc")
        if expected is not None and expected != result.satisfies:
            status = max(status, MISMATCH)
        key = (fx.polynomial_text, tuple(sorted(S.elements)))
        cached = False
        if _over_bound(args, fx, S):
            verdict, elapsed, shown = "skip", 0.0, "-"
        elif key in cache:
            verdict, elapsed, cached, shown = cache[key], None, True, "cached"
        else:
            t0 = time.perf_counter()
            verdict = "equal" if verify_duality(fx.matrix, S).equal else "differs"
            elapsed = time.perf_counter() - t0
            cache[key] = verdict
            shown = "%.1fms" % (elapsed * 1000)
        lines.append("%-6s %-4s %-22s %-6s %-8s %s"
                     % (fx.meta.get("row"), fx.meta.get("f"),
                        ",".join(fx.s_lines), result.satisfies, verdict, shown))
        payload.append({"row": fx.meta.get("row"), "f": fx.meta.get("f"),
                        "S": fx.s_lines, "pc": result.satisfies,
                        "duality": verdict, "cached": cached,
                        "seconds": None if cached else round(elapsed, 3)})
    _emit(args, payload, lines)
    return status


def cmd_selftest(args):
    from .burnside import SemidirectAmbient, mark, stratum_class
    from .oracles import (brute_subgroups, check_hermite_keys, conjugators_by_scan,
                          group_elements, key_class, key_of_elements, naive_marks,
                          split_subgroup_pairs)
    from .permgroups import group_from_generators
    from .polynomials import parse_polynomial
    from .diaggroups import DiagonalGroup

    failures = []

    def step(label, fn):
        try:
            fn()
            print("  ok   %s" % label)
        except Exception as exc:  # pragma: no cover - reported, not raised
            failures.append(label)
            print("  FAIL %s: %s" % (label, exc))

    E = parse_polynomial("x1^3+x2^3+x3^3")
    S = group_from_generators(3, ["(123)"])

    step("fixtures parse and round-trip", lambda: _selftest_fixtures(args))
    step("pairing non-degeneracy", lambda: CharacterPairing(E.anchored())
         .verify_nondegenerate())
    step("duality on a small cyclic example",
         lambda: _expect(verify_duality(E, S).equal, "duality failed"))
    step("lemma checks on a small cyclic example",
         lambda: _expect(lemma_level_checks(E, S).all_passed, "lemma check failed"))

    def marks_battery():
        # S3, not S: over an abelian S every s^-1 T s is T, and a carrier
        # turned the wrong way would go unseen
        S3 = group_from_generators(3, ["(12)", "(123)"])
        analysis = euler_analysis(E, S3)
        G = analysis.group
        classes = {key_class(analysis.ambient, key_of_elements(G, h), t)
                   for h, t in split_subgroup_pairs(G, S3)}
        # chi's classes against every split class, as the oracle sweep pairs them
        for a in analysis.element.coefficients:
            fixed = naive_marks(a)
            for b in classes:
                if mark(a, b) != fixed(b):
                    raise AssertionError("mark mismatch on %r / %r" % (a, b))
        # the classes of each stratum, by the class formula and by a scan of S_I
        for stratum in analysis.strata:
            amb = SemidirectAmbient(G, stratum.stabilizer)
            classes = [stratum_class(amb, stratum.subset, key) for key in stratum.class_keys]
            for a in classes:
                for b in classes:
                    if mark(a, b) * a.order != conjugators_by_scan(a, b):
                        raise AssertionError("class mark mismatch on %r / %r" % (a, b))
    step("marks against the naive oracle", marks_battery)

    def hermite_battery():
        G = DiagonalGroup(E.anchored())
        check_hermite_keys(G, combinations_with_replacement(group_elements(G), 2))
    step("Hermite keys match listed subgroups", hermite_battery)

    def lattice_battery():
        lattice = group_from_generators(4, ["(12)", "(1234)"]).lattice
        _expect(set(lattice.subgroups) == brute_subgroups(lattice.group),
                "lattice differs from the brute-force oracle")
        _expect((len(lattice.subgroups), len(lattice.classes)) == (30, 11),
                "S4 should have 30 subgroups in 11 classes")
    step("subgroup lattice of S4 matches the brute-force oracle", lattice_battery)

    print("selftest: %d failure(s)" % len(failures))
    return OK if not failures else MISMATCH


def _selftest_fixtures(args):
    from .fixtures import parse_fixture
    catalogue = load_catalogue(args.fixtures)
    if not catalogue:
        raise AssertionError("no fixtures found")
    for fx in catalogue.values():
        again = parse_fixture(serialize_fixture(fx), name=fx.name)
        if serialize_fixture(again) != serialize_fixture(fx):
            raise AssertionError("round-trip failed for %s" % fx.name)


def _expect(cond, message):
    if not cond:
        raise AssertionError(message)


if __name__ == "__main__":
    sys.exit(main())
