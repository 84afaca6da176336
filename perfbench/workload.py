"""One pass of a workload in one process: set up, run every operation once, check.

Started by run.py, several times per run (and once per extra set-up
sample).  Prints one JSON object as its last line of output: the set-up
time, each operation's time, peak RSS, the failures and, when traced, the
per-layer metrics.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# Time of speed_probe() on this 2-core box at its usual full speed.
REFERENCE_S = 0.028
PROBES = 9


def build_inputs(workload, seed, seconds):
    """The benchmark's own description of the inputs (no program code runs)."""
    import inputs

    if workload == "catalogue":
        return inputs.catalogue_inputs(ROOT)
    copies = max(1, round(seconds / 30))
    if workload == "generated":
        return inputs.generated_inputs(seed, copies)
    return inputs.mirror_inputs(ROOT, seed, copies)


class Workload:
    """Program objects for every input, built during set-up."""

    def __init__(self, workload, items):
        from bhht.fixtures import load_catalogue, parse_fixture
        from bhht.polynomials import check_invariance

        self.workload = workload
        self.prepared = []
        if workload == "catalogue":
            catalogue = load_catalogue(ROOT / "src" / "bhht" / "fixtures_data")
            specs = [catalogue[item.name] for item in items]
        else:
            specs = [parse_fixture(item.fixture_text(), name=item.name) for item in items]
        for spec in specs:
            matrix = spec.matrix.anchored()
            perms = spec.perm_group()
            if workload != "catalogue":
                check_invariance(matrix, perms)
            self.prepared.append((spec, matrix, perms))

    def run(self, index):
        """One operation; returns the plain data the checks need."""
        spec, matrix, perms = self.prepared[index]
        if self.workload == "mirror":
            return mirror(spec, matrix, perms)
        from bhht.euler import lemma_level_checks, verify_duality

        report = verify_duality(matrix, perms)
        out = verdict_data(report)
        if self.workload == "generated" and report.pc.satisfies:
            out["lemmas"] = [c.passed for c in lemma_level_checks(matrix, perms).checks]
        return out


def mirror(spec, matrix, perms):
    """Takahashi's dual pair as ``bhht dual`` emits it, plus the PC verdict of S."""
    from bhht.diaggroups import CharacterPairing, perm_act
    from bhht.fixtures import FixtureSpec, format_group_subgroup, serialize_fixture
    from bhht.permgroups import pc_check
    from bhht.polynomials import serialize_polynomial, transpose

    pairing = CharacterPairing(matrix)
    subgroup = spec.g_subgroup(pairing.left)
    for s in perms.generators:
        if frozenset(perm_act(s, h) for h in subgroup) != subgroup:
            raise ValueError("G is not invariant under S")
    dual_group = pairing.annihilator(subgroup)
    dual = FixtureSpec(
        name=spec.name + "_dual",
        polynomial_text=serialize_polynomial(transpose(matrix)),
        g_lines=format_group_subgroup(pairing.right, dual_group),
        s_lines=spec.s_lines,
        meta={"dual_of": spec.name},
    )
    pc = pc_check(perms)
    return {"text": serialize_fixture(dual), "dual_order": len(dual_group),
            "pc": pc.satisfies, "witness": _witness(pc)}


def verdict_data(report):
    def terms(analysis):
        return [(c, cls.h_order, cls.t_order)
                for cls, c in analysis.element.coefficients.items()]

    return {"pc": report.pc.satisfies, "equal": report.equal, "witness": _witness(report.pc),
            "lhs_terms": terms(report.lhs_analysis), "rhs_terms": terms(report.rhs_analysis)}


def _witness(pc):
    return None if pc.witness is None else [list(g) for g in pc.witness.generators]


def check(workload, item, data):
    """Failure messages for one operation's output, from the independent checks."""
    import checks

    rows = checks.anchored_rows(checks.parse_polynomial(item.polynomial))
    n = len(rows)
    s_gens = checks.parse_perm_lines(item.s_lines, n)
    out = checks.check_parity(n, s_gens, data["pc"], data["witness"])
    if workload == "mirror":
        return out + checks.check_mirror(rows, item.g_lines, item.s_lines,
                                         data["text"], data["dual_order"])
    s_order = len(checks.closure(s_gens, n))
    out += checks.check_milnor_orlik(rows, s_order, data["lhs_terms"])
    out += checks.check_milnor_orlik(checks.transpose_rows(rows), s_order, data["rhs_terms"])
    out += checks.check_theorem(data["pc"], data["equal"])
    if workload == "catalogue":
        out += checks.check_verdict(item.expect, data["pc"], data["equal"])
    else:
        out += checks.check_lemmas(data["pc"], data.get("lemmas", []))
    return out


def speed_probe():
    """Time of a fixed computation shaped like the program's hot path.

    It builds the 6250 elements of (Z/5)^5 x| Z2 as (vector, permutation)
    tuples, indexes them and maps every element to its coset of a subgroup
    of order 2, the way marks enumerate cosets.  It is the benchmark's own
    code, so no change to the program moves it; its time moves with the
    speed of the machine.  The collector is off while it runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    try:
        vectors = [tuple((i // 5 ** k) % 5 for k in range(5)) for i in range(3125)]
        perms = [(0, 1, 2, 3, 4), (1, 0, 3, 2, 4)]
        elements = sorted((v, s) for v in vectors for s in perms)
        index = {g: i for i, g in enumerate(elements)}
        members = [((0,) * 5, perms[0]), ((0,) * 5, perms[1])]
        coset = [-1] * len(elements)
        for i, (v, s) in enumerate(elements):
            if coset[i] >= 0:
                continue
            for w, t in members:
                moved = [0] * 5
                for a, b in enumerate(s):
                    moved[b] = w[a]
                product = (tuple((x + y) % 5 for x, y in zip(v, moved)),
                           tuple(s[t[a]] for a in range(5)))
                coset[index[product]] = i
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=["catalogue", "generated", "mirror"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # The benchmark's own input generator is not the program's set-up: its
    # time is taken out of setup_s.
    start = perf_counter()
    items = build_inputs(args.workload, args.seed, args.seconds)
    generator_s = perf_counter() - start
    work = Workload(args.workload, items)
    setup_raw_s = perf_counter() - STARTED - generator_s
    setup_probe_s = sorted(speed_probe() for _ in range(3))[1]
    setup_s = setup_raw_s * REFERENCE_S / setup_probe_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s,
                          "generator_s": generator_s}))
        return 0

    op_s = []
    results = []
    errors = []
    probes = [setup_probe_s]
    every = max(1, len(items) // (PROBES - 1))
    for index, item in enumerate(items):
        if tracer:
            tracer.operation = item.name
        gc.collect()
        start = perf_counter()
        try:
            data = work.run(index)
        except Exception:  # a failed operation is counted, reported and skipped
            data = None
            errors.append("%s: %s" % (item.name, traceback.format_exc(limit=3)))
        op_s.append(perf_counter() - start)
        results.append(data)
        if (index + 1) % every == 0:
            probes.append(speed_probe())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for item, data in zip(items, results):
        if data is not None:
            failures += ["%s: %s" % (item.name, m) for m in check(args.workload, item, data)]
    speed = REFERENCE_S / statistics.median(probes)
    out = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "generator_s": generator_s,
           "op_s": [t * speed for t in op_s], "op_raw_s": op_s, "probe_s": probes,
           "peak_rss_mib": peak_rss_mib, "attempted": len(items), "failed": len(errors),
           "errors": errors, "check_failures": failures}
    if tracer:
        tracer.uninstall()
        out["trace"] = {k: v * speed if k.endswith("_s") else v
                        for k, v in tracer.summary().items()}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write(path)
        out["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
