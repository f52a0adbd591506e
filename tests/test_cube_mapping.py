import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from woodelf.cube_mapping import (
    DictionaryCache,
    canonical_path,
    collapse_map,
    map_patterns_to_cube,
)
from woodelf.formula_core import Cube
from woodelf.patterns import calc_decision_patterns
from woodelf.synth import random_ensemble, random_data


def test_two_feature_path_worked_entry():
    d = map_patterns_to_cube((0, 1))
    cube = d.entries[(0b10, 0b01)]
    assert cube.positive == (0,)
    assert cube.negative == (1,)
    assert cube.weight == 1.0


def test_two_feature_path_has_nine_entries():
    assert len(map_patterns_to_cube((0, 1)).entries) == 9


@pytest.mark.parametrize("length", range(1, 6))
def test_entry_count_triples_per_level(length):
    d = map_patterns_to_cube(tuple(range(length)))
    assert len(d.entries) == 3 ** length
    assert d.depth == length


def test_empty_path_single_empty_cube():
    d = map_patterns_to_cube(())
    assert set(d.entries) == {(0, 0)}
    cube = d.entries[(0, 0)]
    assert cube.size == 0 and cube.weight == 1.0


def test_both_miss_keys_never_inserted():
    for length in range(1, 6):
        d = map_patterns_to_cube(tuple(range(length)))
        full = (1 << length) - 1
        for pc, pb in d.entries:
            assert pc | pb == full


def test_repeated_feature_collapses_or_contradicts():
    d = map_patterns_to_cube((0, 1, 0))
    assert len(d.entries) == 27
    # Same polarity twice: feature 0 enters positively at both occurrences
    # and collapses to a single literal.
    same = d.entries[(0b111, 0b000)]
    assert same.positive == (0, 1) and same.negative == ()
    collapsed = d.entries[(0b111, 0b010)]  # middle position copies (f1 absent)
    assert collapsed.positive == (0,) and collapsed.negative == ()
    # Opposite polarities: the entry survives but is flagged contradictory.
    mixed = d.entries[(0b110, 0b011)]
    assert mixed.contradictory
    assert any(c.contradictory for c in d.entries.values())


def test_canonical_path_examples():
    assert canonical_path((0, 1, 0)) == ((0, 1, 0), (0, 1))
    assert canonical_path((3, 4, 3)) == ((0, 1, 0), (3, 4))
    assert canonical_path(()) == ((), ())


def test_cache_shares_identical_paths():
    cache = DictionaryCache()
    a = cache.get((2, 5, 7))
    b = cache.get((2, 5, 7))
    assert a.dictionary is b.dictionary
    assert a.rename == (2, 5, 7)
    assert len(cache) == 1


def test_cache_shares_unique_feature_paths_of_equal_length():
    cache = DictionaryCache()
    a = cache.get((0, 1, 2, 3, 4, 5))
    b = cache.get((9, 4, 11, 0, 7, 2))
    assert a.dictionary is b.dictionary
    assert a.rename == (0, 1, 2, 3, 4, 5)
    assert b.rename == (9, 4, 11, 0, 7, 2)
    assert len(cache) == 1


def test_cache_distinguishes_repeat_structure():
    cache = DictionaryCache()
    a = cache.get((0, 1, 0))
    b = cache.get((0, 1, 2))
    assert a.dictionary is not b.dictionary
    assert len(cache) == 2


def test_cache_keys_dictionary_by_unique_feature_count():
    cache = DictionaryCache()
    a = cache.get((3, 4, 3))
    b = cache.get((5, 5, 2, 2))
    c = cache.get((9, 1))
    assert a.dictionary is b.dictionary is c.dictionary
    assert a.dictionary.path_features == (0, 1)
    assert (a.rename, b.rename, c.rename) == ((3, 4), (5, 2), (9, 1))
    assert c.collapse is None
    assert len(a.collapse) == 8 and len(b.collapse) == 16
    assert cache.get((4, 7, 4)).collapse is a.collapse  # same repeat structure
    assert len(cache) == 1
    assert not any(cube.contradictory for cube in a.dictionary.entries.values())


def test_collapse_map_ands_repeated_feature_bits():
    collapse = collapse_map(canonical_path((3, 4, 3))[0])
    assert collapse[0b101] == 0b10
    assert collapse[0b111] == 0b11
    assert collapse[0b110] == 0b01
    assert collapse_map((0, 1, 2)) is None
    assert collapse_map(()) is None


def test_collapse_map_matches_positional_dictionary():
    # Collapsing a positional key pair gives the unique-feature key of the
    # same cube; contradictory positional keys are the ones with no
    # unique-feature key at all.
    for path in [(3, 4, 3), (7, 7), (5, 2, 9, 2), (1, 1, 0, 1)]:
        canon, rename = canonical_path(path)
        collapse = collapse_map(canon)
        unique = map_patterns_to_cube(tuple(range(len(rename))))
        for (pc, pb), cube in map_patterns_to_cube(path).entries.items():
            key = (int(collapse[pc]), int(collapse[pb]))
            if cube.contradictory:
                assert key not in unique.entries
            else:
                renamed = _rename_cube(unique.entries[key], rename)
                assert set(renamed.positive) == set(cube.positive)
                assert set(renamed.negative) == set(cube.negative)


def _rename_cube(cube: Cube, rename) -> Cube:
    return Cube(tuple(rename[v] for v in cube.positive),
                tuple(rename[v] for v in cube.negative), cube.weight)


@pytest.mark.parametrize("path", [(3, 4, 3), (7, 7), (5, 2, 9, 2)])
def test_canonical_dictionary_expands_to_direct_dictionary(path):
    direct = map_patterns_to_cube(path)
    canon, rename = canonical_path(path)
    shared = map_patterns_to_cube(canon)
    assert set(direct.entries) == set(shared.entries)
    for key, cube in shared.entries.items():
        assert _rename_cube(cube, rename) == direct.entries[key]


def test_cache_is_thread_safe_single_object():
    cache = DictionaryCache()
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: cache.get((0, 1, 2)).dictionary,
                                range(32)))
    assert all(r is results[0] for r in results)
    assert len(cache) == 1


def test_cache_concurrent_gets_share_dictionary_and_collapse_map():
    cache = DictionaryCache()
    paths = [(0, 1, 2), (5, 6, 5), (7, 8, 7), (2, 2, 3, 4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda k: cache.get(paths[k % 4]), range(64)))
    finally:
        sys.setswitchinterval(interval)
    for k, got in enumerate(results):
        first = results[k % 4]
        assert got.dictionary is first.dictionary and got.collapse is first.collapse
    assert results[1].dictionary is results[2].dictionary
    assert results[1].collapse is results[2].collapse   # same repeat structure
    assert len(cache) == 2                               # u = 3 and u = 2


# ---------------------------------------------------------------------------
# semantic invariant: cube satisfaction == path replay

def _replay_reaches_leaf(tree, leaf_index, consumer, baseline, participating):
    path = tree.path_to(leaf_index)
    for pos in range(len(path) - 1):
        node = tree.nodes[path[pos]]
        value = consumer[node.feature] if node.feature in participating \
            else baseline[node.feature]
        nxt = node.left if value < node.threshold else node.right
        if nxt != path[pos + 1]:
            return False
    return True


def _cube_satisfied(cube: Cube, participating) -> bool:
    if cube.contradictory:
        return False
    return all(v in participating for v in cube.positive) and \
        not any(v in participating for v in cube.negative)


def test_cube_satisfaction_equals_path_replay():
    rng = np.random.default_rng(10)
    for _ in range(6):
        ens = random_ensemble(rng, 1, 3, max_depth=3)
        tree = ens.trees[0]
        consumer, baseline = random_data(rng, 2, 3)
        table = calc_decision_patterns(tree, np.vstack([consumer, baseline]))
        for lf in table.patterns:
            d = map_patterns_to_cube(tree.path_features(lf))
            key = (int(table.patterns[lf][0]), int(table.patterns[lf][1]))
            cube = d.entries.get(key)
            for size in range(4):
                for subset in itertools.combinations(range(3), size):
                    participating = set(subset)
                    reaches = _replay_reaches_leaf(tree, lf, consumer, baseline,
                                                   participating)
                    satisfied = cube is not None and \
                        _cube_satisfied(cube, participating)
                    assert reaches == satisfied
