"""Subset orbits walked on demand, and the full subsets the verdict walks.

``PermGroup.subset_orbit`` walks one orbit the first time a member is asked
for.  On every one of the 2^n subsets it must give the representative that
``oracles.brute_subset_representative`` finds by a scan of the group, the
stabilizer a scan finds, and an orbit size that counts the subsets with
that representative, whichever member an orbit is first met at.  The
verdict walks only the orbits of subsets on which f^I is full
(``ExponentMatrix.full_subsets``), which S maps to full subsets.
"""

import random
import sys
from collections import Counter, deque
from pathlib import Path

import pytest
from conftest import all_subsets, is_full, random_invertible
from hypothesis import given
from hypothesis import strategies as st
from test_stratum_naming import CATALOGUE, catalogue_pairs, doubled, symmetries

from bhht import euler
from bhht.euler import lemma_level_checks, verify_duality
from bhht.fixtures import parse_fixture
from bhht.oracles import brute_subset_representative
from bhht.permgroups import PermGroup, group_from_generators
from bhht.polynomials import parse_polynomial, transpose

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def generated_groups():
    """The S of every generated benchmark template, at seed 1."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import inputs
    return [parse_fixture(item.fixture_text(), item.name).perm_group()
            for item in inputs.generated_inputs(1)]


def groups():
    """Each distinct S of the catalogue, S5, a trivial group and the
    generated templates' S, every one fresh, with no orbit walked yet;
    catalogue groups with the same elements are one."""
    catalogue = {}
    for name in catalogue_pairs():
        group = CATALOGUE[name].perm_group()
        catalogue.setdefault((group.n, group.element_set), group)
    return (list(catalogue.values())
            + [group_from_generators(5, ["(12345)", "(12)"]), PermGroup(4, ())]
            + generated_groups())


@pytest.mark.parametrize("group", groups(), ids=repr)
def test_subset_orbit_matches_the_all_subsets_walk(group):
    # every subset, asked for from the last mask down so that an orbit is
    # mostly walked from another member than its least, against a scan of
    # the group: the least image under any element, the subgroup of the
    # elements that fix it, and as many subsets with that least image as
    # the stabilizer's index
    sizes = Counter()
    stabilizers = {}
    for subset in reversed(all_subsets(group.n)):
        rep, s, stab = group.subset_orbit(subset)
        assert rep == brute_subset_representative(group, subset), subset
        inside = set(rep)
        assert stab is group.subgroup([p for p in group.elements
                                       if {p[i] for i in rep} == inside]), subset
        assert s in group
        assert tuple(sorted(s[i] for i in subset)) == rep, subset
        sizes[rep] += 1
        stabilizers[rep] = stab
    listed = [(rep, stab, group.order // stab.order) for rep, stab in stabilizers.items()]
    assert all(size == sizes[rep] for rep, _stab, size in listed)
    # a fixed subset's stabilizer is the group, and an orbit of |S| subsets'
    # the trivial subgroup, each the one object of its element set
    assert stabilizers[()] is group
    trivial = group.subgroup([tuple(range(group.n))])
    assert all(stab is trivial for _rep, stab, size in listed if size == group.order)
    assert group.orbits_of(all_subsets(group.n)) == sorted(
        listed, key=lambda item: (len(item[0]), item[0]))


def assert_full_subsets(matrix, perms):
    full = matrix.full_subsets()
    assert full == sorted(s for s in all_subsets(matrix.n) if is_full(matrix, s))
    for subset in full:
        for g in perms.generators:
            assert tuple(sorted(g[i] for i in subset)) in full, (subset, g)


def test_full_subsets_are_the_full_ones_on_the_catalogue():
    for name in catalogue_pairs():
        fx = CATALOGUE[name]
        perms = fx.perm_group()
        assert_full_subsets(fx.matrix, perms)
        assert_full_subsets(transpose(fx.matrix), perms)


@given(seed=st.integers(0, 2 ** 32 - 1))
def test_full_subsets_are_the_full_ones_on_random_inputs(seed):
    rng = random.Random(seed)
    matrix = random_invertible(rng, max_vars=rng.randint(1, 5))
    if seed % 2:
        matrix = doubled(random_invertible(rng, max_vars=2))
    perms = symmetries(matrix)
    assert_full_subsets(matrix, perms)
    assert_full_subsets(transpose(matrix), perms)


def test_a_verdict_walks_only_full_subsets(monkeypatch):
    # two 3-loops turned in place together: 4 of the 64 subsets are full
    f = parse_polynomial("x1^3*x2+x2^3*x3+x3^3*x1+x4^3*x5+x5^3*x6+x6^3*x4")
    perms = group_from_generators(6, ["(123)(456)"])
    monkeypatch.setattr(euler, "_RECENT", deque(maxlen=2))
    assert verify_duality(f, perms).equal
    assert lemma_level_checks(f, perms).all_passed
    allowed = set(f.full_subsets()) | set(transpose(f).full_subsets())
    assert len(allowed) == 4
    walked = {g: set(g._walked) for g in perms._subgroups.values() if g._walked}
    assert set(walked) == {perms}
    assert walked[perms] <= allowed
