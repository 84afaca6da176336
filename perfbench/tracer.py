"""Spans and counters around the public entry points of every bhht module.

The tracer is installed from the benchmark's side: it replaces each traced
function, method or cached property by a wrapper that records a span, and
rebinds every module-level alias of a wrapped function (``from .burnside
import mark`` in ``euler`` and ``oracles``, for instance).  The inner
arithmetic (``add``, ``mul``, ``compose``, ``perm_act``) runs millions of
times and stays unwrapped; its time is part of the self time of the nearest
traced caller.

Spans are kept in memory as tuples and written out once, at the end.
"""

import json
import sys
from collections import Counter, defaultdict
from functools import cached_property
from time import perf_counter

# (module, attribute, span name).  A dotted attribute is a class member.
FUNCTIONS = [
    ("bhht.intmat", "determinant", "intmat.determinant"),
    ("bhht.intmat", "smith_normal_form", "intmat.smith_normal_form"),
    ("bhht.polynomials", "restrict", "polynomials.restrict"),
    ("bhht.polynomials", "diagonal_restrict", "polynomials.diagonal_restrict"),
    ("bhht.polynomials", "check_invariance", "polynomials.check_invariance"),
    ("bhht.polynomials", "transpose", "polynomials.transpose"),
    ("bhht.diaggroups", "subgroup_generated", "diaggroups.subgroup_generated"),
    ("bhht.diaggroups", "isotropy_on_stratum", "diaggroups.isotropy_on_stratum"),
    ("bhht.diaggroups", "CharacterPairing.__init__", "diaggroups.pairing"),
    ("bhht.diaggroups", "CharacterPairing.annihilator", "diaggroups.annihilator"),
    ("bhht.permgroups", "SubgroupLattice.is_subconjugate", "permgroups.is_subconjugate"),
    ("bhht.permgroups", "pc_check", "permgroups.pc_check"),
    ("bhht.permgroups", "orbits_on_subsets", "permgroups.orbits_on_subsets"),
    ("bhht.burnside", "mark", "burnside.mark"),
    ("bhht.burnside", "SemidirectAmbient.repmap", "burnside.repmap"),
    ("bhht.burnside", "HTClass.__init__", "burnside.htclass"),
    ("bhht.burnside", "induction", "burnside.induction"),
    ("bhht.burnside", "saito_dual", "burnside.saito_dual"),
    ("bhht.euler", "euler_analysis", "euler.euler_analysis"),
    ("bhht.euler", "stratum_chi_fixed", "euler.stratum_chi_fixed"),
    ("bhht.euler", "lemma_level_checks", "euler.lemma_level_checks"),
    ("bhht.euler", "verify_duality", "euler.verify_duality"),
    ("bhht.fixtures", "parse_fixture", "fixtures.parse_fixture"),
    ("bhht.fixtures", "serialize_fixture", "fixtures.serialize_fixture"),
]


def _count_group(counts, _args, elements):
    counts["diaggroups.elements"] += len(elements)


def _count_ambient(counts, _args, elements):
    counts["burnside.ambient.elements"] += len(elements)


def _count_lattice(counts, _args, lattice):
    counts["permgroups.lattice.builds"] += 1
    counts["permgroups.lattice.subgroups"] += len(lattice.subgroups)


# (module, class, cached property, span name, hook counting what it built).
CACHED = [
    ("bhht.diaggroups", "DiagonalGroup", "elements", "diaggroups.elements", _count_group),
    ("bhht.burnside", "SemidirectAmbient", "elements", "burnside.ambient", _count_ambient),
    ("bhht.permgroups", "PermGroup", "lattice", "permgroups.lattice", _count_lattice),
]

# Per-layer metrics read from the spans: (metric, span name, statistic).
SPAN_METRICS = [
    ("burnside.mark.calls", "burnside.mark", "calls"),
    ("burnside.mark.self_s", "burnside.mark", "self"),
    ("burnside.repmap.calls", "burnside.repmap", "calls"),
    ("burnside.repmap.self_s", "burnside.repmap", "self"),
    ("burnside.htclass.calls", "burnside.htclass", "calls"),
    ("burnside.htclass.self_s", "burnside.htclass", "self"),
    ("burnside.induction.self_s", "burnside.induction", "self"),
    ("burnside.saito_dual.self_s", "burnside.saito_dual", "self"),
    ("diaggroups.subgroup_generated.calls", "diaggroups.subgroup_generated", "calls"),
    ("diaggroups.subgroup_generated.self_s", "diaggroups.subgroup_generated", "self"),
    ("diaggroups.pairing.self_s", "diaggroups.pairing", "self"),
    ("diaggroups.annihilator.calls", "diaggroups.annihilator", "calls"),
    ("diaggroups.annihilator.self_s", "diaggroups.annihilator", "self"),
    ("diaggroups.isotropy_on_stratum.self_s", "diaggroups.isotropy_on_stratum", "self"),
    ("permgroups.lattice.self_s", "permgroups.lattice", "self"),
    ("permgroups.pc_check.self_s", "permgroups.pc_check", "self"),
    ("permgroups.orbits_on_subsets.self_s", "permgroups.orbits_on_subsets", "self"),
    ("permgroups.is_subconjugate.calls", "permgroups.is_subconjugate", "calls"),
    ("polynomials.restrict.calls", "polynomials.restrict", "calls"),
    ("polynomials.diagonal_restrict.self_s", "polynomials.diagonal_restrict", "self"),
    ("polynomials.check_invariance.self_s", "polynomials.check_invariance", "self"),
    ("polynomials.transpose.self_s", "polynomials.transpose", "self"),
    ("intmat.determinant.self_s", "intmat.determinant", "self"),
    ("intmat.smith_normal_form.calls", "intmat.smith_normal_form", "calls"),
    ("intmat.smith_normal_form.self_s", "intmat.smith_normal_form", "self"),
    ("euler.euler_analysis.calls", "euler.euler_analysis", "calls"),
    ("euler.euler_analysis.self_s", "euler.euler_analysis", "self"),
    ("euler.stratum_chi_fixed.self_s", "euler.stratum_chi_fixed", "self"),
    ("euler.lemma_level_checks.self_s", "euler.lemma_level_checks", "self"),
    ("euler.verify_duality.self_s", "euler.verify_duality", "self"),
    ("fixtures.parse_fixture.calls", "fixtures.parse_fixture", "calls"),
    ("fixtures.parse_fixture.self_s", "fixtures.parse_fixture", "self"),
    ("fixtures.serialize_fixture.self_s", "fixtures.serialize_fixture", "self"),
]

# Counters kept by the hooks, reported as they are.
COUNTERS = [
    "burnside.ambient.elements",
    "diaggroups.elements",
    "permgroups.lattice.builds",
    "permgroups.lattice.subgroups",
    "euler.euler_analysis.distinct",
    "euler.strata",
    "euler.classes",
]

RATIOS = [
    ("burnside.repmap.hit_ratio", "burnside.repmap.hits", "burnside.repmap.calls"),
    ("euler.euler_analysis.useful_ratio", "euler.euler_analysis.distinct",
     "euler.euler_analysis.calls"),
]


class Tracer:
    """Span recorder.  One span is (id, parent id, operation, name, start, end, self)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.operation = "setup"
        self._stack = []
        self._analyses = set()
        self._restore = []

    def wrap(self, name, fn, hook=None):
        spans = self.spans
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            frame = [len(spans) + len(stack), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((frame[0], parent, self.operation, name, start, end,
                              duration - frame[1]))
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every traced entry point and rebind its aliases."""
        import bhht.burnside
        import bhht.diaggroups
        import bhht.euler
        import bhht.fixtures
        import bhht.intmat
        import bhht.oracles
        import bhht.permgroups
        import bhht.polynomials  # noqa: F401  (every alias must be loaded to be rebound)

        modules = [m for k, m in sys.modules.items() if k == "bhht" or k.startswith("bhht.")]
        # An entry point the program no longer has is skipped; its metrics read 0.
        for modname, attr, name in FUNCTIONS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            if attr not in vars(owner or object):
                continue
            original = vars(owner)[attr]
            hook = self._count_analysis if name == "euler.euler_analysis" else None
            wrapped = self.wrap(name, original, hook)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        for modname, cls_name, attr, name, hook in CACHED:
            cls = getattr(sys.modules[modname], cls_name, None)
            if not isinstance(vars(cls or object).get(attr), cached_property):
                continue
            new = cached_property(self.wrap(name, vars(cls)[attr].func, hook))
            new.__set_name__(cls, attr)
            self._set(cls, attr, new)
        self._trace_repmap_hits(getattr(bhht.burnside, "SemidirectAmbient", None))
        self._trace_class_solve(getattr(bhht.permgroups, "SubgroupLattice", None))

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _set(self, owner, key, value):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _trace_repmap_hits(self, cls):
        """Count repmap calls whose coset map was already cached."""
        traced = vars(cls or object).get("repmap")
        if traced is None:
            return
        counts = self.counts

        def repmap(ambient, ht):
            if ht.tag in getattr(ambient, "_repmaps", ()):
                counts["burnside.repmap.hits"] += 1
            return traced(ambient, ht)

        self._set(cls, "repmap", repmap)

    def _trace_class_solve(self, cls):
        """Span the conjugacy-class computation, not every cached read of it."""
        prop = vars(cls or object).get("conjugacy_classes")
        if not isinstance(prop, property):
            return
        getter = prop.fget
        traced = self.wrap("permgroups.lattice", getter)

        def conjugacy_classes(lattice):
            if getattr(lattice, "_classes", None) is not None:
                return getter(lattice)
            return traced(lattice)

        self._set(cls, "conjugacy_classes", property(conjugacy_classes))

    def _count_analysis(self, counts, args, result):
        matrix, perms = args[0], args[1]
        self._analyses.add((matrix.n, matrix.rows, matrix.coefficients, perms.element_set))
        counts["euler.euler_analysis.distinct"] = len(self._analyses)
        counts["euler.strata"] += len(result.strata)
        counts["euler.classes"] += sum(len(s.class_keys) for s in result.strata)

    # -- results --------------------------------------------------------------------

    def summary(self):
        calls = Counter()
        self_time = defaultdict(float)
        for _sid, _parent, _op, name, _start, _end, own in self.spans:
            calls[name] += 1
            self_time[name] += own
        out = {}
        for metric, name, stat in SPAN_METRICS:
            out[metric] = calls[name] if stat == "calls" else self_time[name]
        for metric in COUNTERS:
            out[metric] = self.counts[metric]
        base = dict(self.counts, **{m: out[m] for m in out})
        for metric, num, den in RATIOS:
            out[metric] = base.get(num, 0) / base[den] if base.get(den) else 0.0
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

