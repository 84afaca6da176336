"""Subset orbits walked on demand, and the full subsets the verdict walks.

``PermGroup.subset_orbit`` walks one orbit the first time a member is asked
for; ``oracles.subset_orbits`` walks all 2^n subsets and scans the group for
every stabilizer.  The two must give every subset the same representative,
stabilizer and orbit size, whichever member an orbit is first met at.  The
verdict walks only the orbits of subsets on which f^I is full
(``ExponentMatrix.full_subsets``), which S maps to full subsets.
"""

import random
import sys
from collections import deque
from pathlib import Path

import pytest
from conftest import random_invertible
from hypothesis import given
from hypothesis import strategies as st
from test_stratum_naming import CATALOGUE, catalogue_pairs, doubled, symmetries

from bhht import euler
from bhht.euler import lemma_level_checks, verify_duality
from bhht.fixtures import parse_fixture
from bhht.oracles import subset_orbits
from bhht.permgroups import PermGroup, group_from_generators
from bhht.polynomials import parse_polynomial, transpose

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def all_subsets(n):
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


def generated_groups():
    """The S of every generated benchmark template, at seed 1."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import inputs
    return [parse_fixture(item.fixture_text(), item.name).perm_group()
            for item in inputs.generated_inputs(1)]


def groups():
    """Each distinct S of the catalogue, S5, a trivial group and the
    generated templates' S, every one fresh, with no orbit walked yet."""
    catalogue = dict.fromkeys(CATALOGUE[name].perm_group() for name in catalogue_pairs())
    return (list(catalogue)
            + [group_from_generators(5, ["(12345)", "(12)"]), PermGroup(4, ())]
            + generated_groups())


@pytest.mark.parametrize("group", groups(), ids=repr)
def test_subset_orbit_matches_the_all_subsets_walk(group):
    # subsets are asked for from the last mask down, so an orbit is mostly
    # walked from another member than the one the reference starts at
    listed, transversal = subset_orbits(group)
    sizes = {rep: size for rep, _stab, size in listed}
    for subset in reversed(all_subsets(group.n)):
        rep, s, stab = group.subset_orbit(subset)
        ref_rep, _ref_s, ref_stab = transversal[subset]
        assert rep == ref_rep, subset
        assert stab is ref_stab, subset
        assert group.order // stab.order == sizes[rep], subset
        assert s in group
        assert tuple(sorted(s[i] for i in subset)) == rep, subset
    assert group.orbits_of(all_subsets(group.n)) == listed


def assert_full_subsets(matrix, perms):
    full = matrix.full_subsets()
    assert full == sorted(s for s in all_subsets(matrix.n) if matrix.full_on(s))
    for subset in full:
        for g in perms.generators:
            assert matrix.full_on(sorted(g[i] for i in subset)), (subset, g)


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
