"""C4.5-style decision-tree synopsis builder (extension baseline).

Not one of the paper's four learners, but the standard WEKA-era
comparison point (J48) its contemporaries report against — included as
an extension baseline.  The tree makes binary splits on continuous
attributes chosen by *gain ratio* (information gain normalized by split
entropy, Quinlan's correction against many-valued bias), grows to a
depth/leaf-size bound, and prunes bottom-up whenever a subtree fails to
beat its parent's majority-leaf pessimistic error.  The default gain
threshold is zero — XOR-shaped interactions have no first-split gain,
so any positive cutoff would reduce the tree to a stump on exactly the
problems that motivate nonlinear learners; pruning handles the noise
splits instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .base import SynopsisLearner, register_learner

__all__ = ["DecisionTreeSynopsis"]


@dataclass
class _Node:
    """One tree node: a split or a leaf holding P(overload)."""

    proba: float
    n: int
    attribute: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"proba": self.proba, "n": self.n}
        if not self.is_leaf:
            payload.update(
                attribute=self.attribute,
                threshold=self.threshold,
                left=self.left.to_dict(),
                right=self.right.to_dict(),
            )
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "_Node":
        node = cls(proba=float(payload["proba"]), n=int(payload["n"]))
        if "attribute" in payload:
            node.attribute = int(payload["attribute"])
            node.threshold = float(payload["threshold"])
            node.left = cls.from_dict(payload["left"])
            node.right = cls.from_dict(payload["right"])
        return node


def _entropy(y: np.ndarray) -> float:
    if y.size == 0:
        return 0.0
    p = y.mean()
    if p in (0.0, 1.0):
        return 0.0
    return float(-(p * np.log2(p) + (1 - p) * np.log2(1 - p)))


@register_learner("tree")
class DecisionTreeSynopsis(SynopsisLearner):
    """Binary classification tree with gain-ratio splits and pruning."""

    def __init__(
        self,
        *,
        max_depth: int = 8,
        min_leaf: int = 3,
        min_gain_ratio: float = 0.0,
        prune: bool = True,
    ):
        super().__init__()
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.min_gain_ratio = min_gain_ratio
        self.prune = prune
        self.root_: Optional[_Node] = None

    # ------------------------------------------------------------------
    def _best_split(self, X: np.ndarray, y: np.ndarray):
        """(attribute, threshold, gain_ratio) of the best binary split.

        C4.5's actual rule: rank by gain *ratio*, but only among
        candidates whose raw gain is at least the average positive gain.
        Naively maximizing the ratio alone would reward extreme cuts
        (tiny split-info denominators) and nibble useless slivers off
        the data.
        """
        n, p = X.shape
        base = _entropy(y)
        candidates = []  # (gain, ratio, attribute, threshold)
        for j in range(p):
            order = np.argsort(X[:, j], kind="stable")
            values = X[order, j]
            labels = y[order]
            # candidate thresholds wherever the value changes
            change = np.nonzero(np.diff(values) > 0)[0]
            for idx in change:
                left_n = idx + 1
                right_n = n - left_n
                if left_n < self.min_leaf or right_n < self.min_leaf:
                    continue
                gain = base - (
                    left_n * _entropy(labels[:left_n])
                    + right_n * _entropy(labels[left_n:])
                ) / n
                if gain <= 0:
                    continue
                frac = left_n / n
                split_info = -(
                    frac * np.log2(frac) + (1 - frac) * np.log2(1 - frac)
                )
                ratio = gain / split_info if split_info > 0 else 0.0
                threshold = (values[idx] + values[idx + 1]) / 2.0
                candidates.append((gain, ratio, j, threshold))
        if not candidates:
            return None, 0.0, 0.0
        # the float mean of tied gains can round above all of them
        # (sum([0.1] * 3) / 3 > 0.1): the top gain always qualifies
        mean_gain = min(
            sum(c[0] for c in candidates) / len(candidates),
            max(c[0] for c in candidates),
        )
        eligible = [c for c in candidates if c[0] >= mean_gain]
        gain, ratio, attribute, threshold = max(
            eligible, key=lambda c: c[1]
        )
        if ratio <= self.min_gain_ratio:
            return None, 0.0, 0.0
        return attribute, threshold, ratio

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(proba=float(y.mean()), n=y.size)
        if (
            depth >= self.max_depth
            or y.size < 2 * self.min_leaf
            or node.proba in (0.0, 1.0)
        ):
            return node
        attribute, threshold, _ = self._best_split(X, y)
        if attribute is None:
            return node
        mask = X[:, attribute] <= threshold
        node.attribute = attribute
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    @staticmethod
    def _pessimistic_errors(node: _Node) -> float:
        """Quinlan's continuity-corrected error count for a leaf."""
        p = max(node.proba, 1.0 - node.proba)
        return node.n * (1.0 - p) + 0.5

    def _prune(self, node: _Node) -> float:
        """Bottom-up: collapse subtrees that don't beat the leaf error."""
        if node.is_leaf:
            return self._pessimistic_errors(node)
        subtree_errors = self._prune(node.left) + self._prune(node.right)
        leaf_errors = self._pessimistic_errors(node)
        if leaf_errors <= subtree_errors:
            node.attribute = None
            node.left = None
            node.right = None
            return leaf_errors
        return subtree_errors

    # ------------------------------------------------------------------
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.root_ = self._grow(X, y.astype(float), depth=0)
        if self.prune:
            self._prune(self.root_)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self.root_
            while not node.is_leaf:
                node = node.left if row[node.attribute] <= node.threshold else node.right
            out[i] = node.proba
        return out

    # ------------------------------------------------------------------
    def n_leaves(self) -> int:
        """Leaf count of the fitted tree."""
        if self.root_ is None:
            return 0

        def count(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)

        return count(self.root_)

    def _get_params(self):
        return {
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "min_gain_ratio": self.min_gain_ratio,
            "prune": self.prune,
        }

    def _get_state(self):
        return {"root": self.root_.to_dict()}

    def _set_state(self, state):
        self.root_ = _Node.from_dict(state["root"])
