"""Output checks that share no code with the program under test.

Every oracle here works on plain numpy arrays (coordinates, labels,
weights, anchors) and re-derives its property from the definitions in the
paper, so a defect in ``repro`` cannot hide by being repeated here.  The
unit tests in ``perfbench/tests`` hold these oracles against the program's
own exhaustive search and exact solver on small inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Tuple

import numpy as np


def monotone_violation(coords: np.ndarray, assignment: np.ndarray,
                       block: int = 256) -> bool:
    """Whether some point predicted 0 weakly dominates a point predicted 1.

    That pair is exactly what a monotone classifier forbids.  Checked in
    row blocks so memory stays at ``block * n`` booleans.
    """
    coords = np.asarray(coords, dtype=float)
    assignment = np.asarray(assignment)
    zeros = coords[assignment == 0]
    ones = coords[assignment == 1]
    if len(zeros) == 0 or len(ones) == 0:
        return False
    for start in range(0, len(zeros), block):
        rows = zeros[start:start + block]
        dominates = np.ones((len(rows), len(ones)), dtype=bool)
        for k in range(coords.shape[1]):
            dominates &= rows[:, None, k] >= ones[None, :, k]
        if dominates.any():
            return True
    return False


def weighted_error(labels: np.ndarray, assignment: np.ndarray,
                   weights: np.ndarray) -> float:
    """Total weight of the points whose prediction differs from the label."""
    wrong = np.asarray(assignment) != np.asarray(labels)
    return math.fsum(np.asarray(weights, dtype=float)[wrong].tolist())


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def upset_labels(anchors: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Label 1 exactly on points weakly dominating at least one anchor."""
    coords = np.asarray(coords, dtype=float)
    out = np.zeros(len(coords), dtype=bool)
    for anchor in np.asarray(anchors, dtype=float):
        out |= (coords >= anchor).all(axis=1)
    return out.astype(np.int8)


def artifact_anchors(path: Path) -> np.ndarray:
    """The anchors stored in an artifact file, read straight from its JSON."""
    body = json.loads(Path(path).read_text())["body"]
    classifier = body["classifier"]
    if classifier.get("kind") != "upset":
        raise ValueError(f"{path}: expected an upset classifier")
    anchors = np.asarray(classifier["anchors"], dtype=float)
    return anchors.reshape(-1, int(classifier["dim"]))


def incomparable_chain_optimum(coords: np.ndarray, labels: np.ndarray,
                               weights: np.ndarray) -> float:
    """Exact optimal weighted error of a 2-D set made of incomparable chains.

    The chains are the groups of equal ``x - y``.  The function checks
    that each group is a chain (strictly increasing in both coordinates
    once sorted) and that no two groups are comparable: ordered by
    ``x - y``, each group lies strictly right of and strictly below the
    previous one.  No monotone constraint then links two chains, so the
    optimum is the sum of per-chain optima, and on a chain a monotone
    assignment is a threshold: predict 0 below it and 1 from it on.
    Raises ``ValueError`` when the input is not of this shape.
    """
    coords = np.asarray(coords, dtype=float)
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError("incomparable_chain_optimum needs 2-D points")
    keys, group = np.unique(coords[:, 0] - coords[:, 1], return_inverse=True)
    group = group.reshape(-1)
    total = 0.0
    previous: Tuple[float, float] = (-math.inf, math.inf)  # (max x, min y)
    for g in range(len(keys)):
        members = np.flatnonzero(group == g)
        members = members[np.argsort(coords[members, 0], kind="stable")]
        xs, ys = coords[members, 0], coords[members, 1]
        if len(members) > 1 and not (np.all(np.diff(xs) > 0)
                                     and np.all(np.diff(ys) > 0)):
            raise ValueError(f"group {g} is not a strict chain")
        if not (xs[0] > previous[0] and ys.max() < previous[1]):
            raise ValueError(f"group {g} is comparable with the group before")
        previous = (float(xs[-1]), float(ys.min()))
        lab = labels[members]
        wts = weights[members]
        # Threshold k: positions < k predicted 0, positions >= k predicted 1.
        ones_below = np.concatenate([[0.0], np.cumsum(np.where(lab == 1, wts, 0.0))])
        zeros_above = np.concatenate(
            [np.cumsum(np.where(lab == 0, wts, 0.0)[::-1])[::-1], [0.0]])
        total += float((ones_below + zeros_above).min())
    return total
