from dataclasses import dataclass

import numpy as np
import pytest

from woodelf.cli import (  # noqa: F401 (re-exported to the tests)
    GOLDEN_BANZHAF,
    GOLDEN_CUBES,
    GOLDEN_EQUIVALENT,
    GOLDEN_SHAPLEY,
)
from woodelf.formula_core import (
    Cube,
    cube_banzhaf_iv,
    cube_shapley_iv,
    pair_count,
    pair_index,
)
from woodelf.oracle import CharacteristicFunction
from woodelf.tree_model import Tree, TreeEnsemble, inner, leaf


@pytest.fixture
def two_split_tree():
    """Feature 0 ("age") at the root, feature 1 ("sugar") on the left path.

    Node 3 is the age-and-sugar leaf with weight 4; rows (30, 20) and (70, 5)
    give the worked consumer/baseline patterns 2 and 1 there.
    """
    nodes = (
        inner(0, 50.0, 1, 2, cover=100.0),
        inner(1, 10.0, 3, 4, cover=50.0),
        leaf(0.0, cover=50.0),
        leaf(4.0, cover=25.0),
        leaf(1.0, cover=25.0),
    )
    return Tree(nodes, 0)


@pytest.fixture
def two_split_ensemble(two_split_tree):
    return TreeEnsemble((two_split_tree,), 2, ("age", "sugar"))


@pytest.fixture
def consumer_row():
    return np.array([30.0, 20.0])


@pytest.fixture
def baseline_row():
    return np.array([70.0, 5.0])


@pytest.fixture
def three_leaf_tree():
    """Root splits f0 < 4; its left child splits f1 < 3 into leaves 1 and 2;
    the right child is a leaf with weight 3."""
    nodes = (
        inner(0, 4.0, 1, 2, cover=10.0),
        inner(1, 3.0, 3, 4, cover=6.0),
        leaf(3.0, cover=4.0),
        leaf(1.0, cover=3.0),
        leaf(2.0, cover=3.0),
    )
    return Tree(nodes, 0)


@pytest.fixture
def three_leaf_ensemble(three_leaf_tree):
    return TreeEnsemble((three_leaf_tree,), 2, ("f0", "f1"))


def cf_from_table(table: np.ndarray, num_players: int) -> CharacteristicFunction:
    """A characteristic function backed directly by a payoff table."""
    table = np.asarray(table, dtype=np.float64)

    def evaluator(subset):
        mask = 0
        for i in subset:
            mask |= 1 << i
        return float(table[mask])

    return CharacteristicFunction(evaluator, num_players)


# ---------------------------------------------------------------------------
# Cube lists: the game of a weighted sum of cubes, and a ``cube_*`` rule
# summed over one, which the exact oracles check the rules against.

def cube_game(cubes, h: int) -> CharacteristicFunction:
    """The game over players 0..h-1 whose payoff is the total weight of the
    cubes with every positive variable playing and every negated one not."""
    terms = [(sum(1 << i for i in c.positive), sum(1 << i for i in c.negative), c.weight)
             for c in cubes]

    def evaluator(subset):
        mask = sum(1 << i for i in subset)
        return sum(w for pos, neg, w in terms if mask & pos == pos and not mask & neg)

    def table_fn():
        masks = np.arange(1 << h, dtype=np.int64)
        total = np.zeros(1 << h)
        for pos, neg, w in terms:
            total += np.where(((masks & pos) == pos) & ((masks & neg) == 0), w, 0.0)
        return total

    return CharacteristicFunction(evaluator, h, table_fn)


def cube_values(rule, cubes, h: int) -> np.ndarray:
    """``rule`` summed over the cubes: h per-variable values, or for the
    pairwise rules the pairs in ``pair_index``'s packed layout."""
    pairwise = rule in (cube_shapley_iv, cube_banzhaf_iv)
    out = np.zeros(pair_count(h) if pairwise else h)
    for cube in cubes:
        for key, value in rule(cube):
            out[pair_index(*key, h) if pairwise else key] += value
    return out


def random_cubes(rng: np.random.Generator, h: int, max_cubes: int) -> list[Cube]:
    """1..max_cubes cubes over variables 0..h-1, weights of either sign;
    about one in five mentions a variable in both polarities."""
    cubes = []
    for _ in range(int(rng.integers(1, max_cubes + 1))):
        ids = rng.permutation(h)[:int(rng.integers(0, h + 1))].tolist()
        cut = int(rng.integers(0, len(ids) + 1))
        pos, neg = ids[:cut], ids[cut:]
        if ids and rng.random() < 0.2:
            pos.append(ids[-1])
            neg.append(ids[-1])
        weight = float(rng.uniform(0.5, 5.0)) * float(rng.choice((-1.0, 1.0)))
        cubes.append(Cube(tuple(pos), tuple(neg), weight))
    return cubes


# ---------------------------------------------------------------------------
# Per-row decision patterns: the definition the batch routines are checked
# against.

@dataclass(frozen=True)
class DecisionPattern:
    """One packed agreement bit-sequence: ``length`` bits stored in ``bits``."""

    bits: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.length if self.length else 1):
            raise ValueError(f"bits {self.bits} do not fit in {self.length} bits")

    def bit(self, i: int) -> int:
        """Agreement bit of path position i (0 = root's edge)."""
        return self.bits >> (self.length - 1 - i) & 1


def decision_pattern_single(tree: Tree, leaf_index: int, row) -> DecisionPattern:
    """Pattern of one row at one leaf by walking the path directly: bit i,
    most significant first, says whether the row follows the path's edge out
    of its i-th node."""
    path = tree.path_to(leaf_index)
    bits = 0
    for position in range(len(path) - 1):
        node = tree.nodes[path[position]]
        goes_left = row[node.feature] < node.threshold
        on_path = (node.left == path[position + 1] and goes_left) or \
                  (node.right == path[position + 1] and not goes_left)
        bits = (bits << 1) | int(on_path)
    return DecisionPattern(bits, len(path) - 1)
