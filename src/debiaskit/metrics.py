"""Per-epoch metrics and the conflicting-sample weight share."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import BlockWorkspace, MlpParams, logit_blocks
from .data import LabeledDataset


@dataclass
class MetricsRow:
    epoch: int
    train_loss: float
    test_acc: float
    test_acc_ba: float
    test_acc_bc: float
    beta: float
    seconds: float

    # seconds stays out of the CSV so repeated runs are byte-identical
    CSV_FIELDS = ("epoch", "train_loss", "test_acc", "test_acc_ba",
                  "test_acc_bc", "beta")

    def csv_values(self) -> list:
        return [getattr(self, f) for f in self.CSV_FIELDS]


def debias_bc_ratio(weights: np.ndarray, aligned: np.ndarray) -> float:
    """mean_BC(w) / (mean_BC(w) + mean_BA(w)); 0.5 when weights are uniform."""
    weights = np.asarray(weights, dtype=np.float64)
    aligned = np.asarray(aligned, dtype=bool)
    if weights.shape != aligned.shape:
        raise ValueError("weights/aligned length mismatch")
    n_bc = int((~aligned).sum())
    n_ba = int(aligned.sum())
    if n_bc == 0 or n_ba == 0:
        raise ValueError("need at least one aligned and one conflicting sample")
    mean_bc = weights[~aligned].mean()
    mean_ba = weights[aligned].mean()
    return float(mean_bc / (mean_bc + mean_ba))


def evaluate_accuracy(params: MlpParams, ds: LabeledDataset, ws: BlockWorkspace | None = None):
    """(overall, aligned-subset, conflicting-subset) test accuracies. The
    pass runs by ``logit_blocks`` through ``ws`` (made here when None) and
    marks each block's correct argmax."""
    ws = BlockWorkspace(params, len(ds)) if ws is None else ws
    correct = np.empty(len(ds), dtype=bool)
    for rows, logits in logit_blocks(params, ds.features, ws):
        np.equal(logits.argmax(axis=1), ds.labels[rows], out=correct[rows])
    overall = float(correct.mean())
    if ds.aligned is None:
        return overall, float("nan"), float("nan")
    ba = float(correct[ds.aligned].mean()) if ds.aligned.any() else float("nan")
    bc = float(correct[~ds.aligned].mean()) if (~ds.aligned).any() else float("nan")
    return overall, ba, bc
