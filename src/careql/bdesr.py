"""Behavioral-discrepancy estimated survival rate.

Scores each episode by how far the policy's recommended dose levels deviate
from the clinician's logged levels (mean absolute level gap per drug,
combined with weights alpha + beta = 1), splits episodes into the low- and
high-discrepancy extremes of the score distribution, and compares survival
rates between the two cohorts. A policy trained in a beneficial direction
shows a higher survival rate in the low-discrepancy cohort.

The policy is duck-typed: ``greedy_rows(store)`` returns one flat array of
recommended flat action indices for a dataset's ``EpisodeStore``, one per
transition in store order. A learned policy answers for a whole store in
one batched forward, and each episode's gaps are summed from that array
and the store's logged actions. Scores and cohorts are arrays over the
store's episodes (``discrepancy``, ``cohort_split``), and the report reads
each cohort's survival flags and ids off the store.
"""

from __future__ import annotations

import warnings

import numpy as np

from .dataset import N_ACTIONS, N_DOSE_LEVELS, DatasetError, EpisodeStore, OfflineDataset

Array = np.ndarray


class BdesrError(ValueError):
    pass


def discrepancy(store: EpisodeStore, policy, alpha: float = 0.5,
                beta: float = 0.5) -> tuple[Array, Array, Array]:
    """Mean absolute per-drug level gap between policy and clinician in each
    episode of the store: (m_iv, m_vaso, m = alpha m_iv + beta m_vaso), each
    of shape (n,)."""
    if alpha < 0 or beta < 0 or abs(alpha + beta - 1.0) > 1e-9:
        raise BdesrError(f"weights must be nonnegative with alpha + beta = 1, "
                         f"got alpha={alpha}, beta={beta}")
    if not store.lengths.size:
        return (np.zeros(0),) * 3
    logged = store.action
    rec = np.asarray(policy.greedy_rows(store), dtype=np.int64)
    if rec.shape != logged.shape:
        raise BdesrError(f"policy returned actions of shape {rec.shape} for "
                         f"{logged.shape[0]} decisions")
    out_of_range = (rec < 0) | (rec >= N_ACTIONS)
    if out_of_range.any():
        raise DatasetError(f"flat action must be in [0, {N_ACTIONS - 1}], "
                           f"got {rec[out_of_range][0]}")
    # per-drug level gaps summed per episode; integer sums are exact
    iv_gap = np.add.reduceat(np.abs(rec // N_DOSE_LEVELS - logged // N_DOSE_LEVELS),
                             store.offsets)
    vaso_gap = np.add.reduceat(np.abs(rec % N_DOSE_LEVELS - logged % N_DOSE_LEVELS),
                               store.offsets)
    m_iv, m_vaso = iv_gap / store.lengths, vaso_gap / store.lengths
    return m_iv, m_vaso, alpha * m_iv + beta * m_vaso


def cohort_split(m: Array, p: float = 20.0) -> tuple[Array, Array, float, float]:
    """Extreme cohorts of the discrepancy scores ``m``: (low mask, high mask,
    q_low, q_high).

    Low = scores at or below the p-th percentile, high = scores at or above
    the (100 - p)-th (linear-interpolation percentiles, ties included on
    both sides). Identical scores put every episode in both cohorts, with a
    warning.
    """
    m = np.asarray(m, dtype=np.float64)
    if not m.size:
        raise BdesrError("no discrepancy scores to split")
    if not (0.0 < p < 50.0):
        raise BdesrError(f"p must be in (0, 50), got {p}")
    q_low = float(np.percentile(m, p))
    q_high = float(np.percentile(m, 100.0 - p))
    if m.min() == m.max():
        warnings.warn("all discrepancy scores identical; low and high "
                      "cohorts both contain every episode", stacklevel=2)
    return m <= q_low, m >= q_high, q_low, q_high


def bdesr_report(dataset: OfflineDataset, policy, alpha: float = 0.5,
                 beta: float = 0.5, p: float = 20.0) -> dict:
    """Per-episode scores, cohort membership, and the two survival rates of
    a dataset, typically one split (``OfflineDataset.split``)."""
    store = dataset.store
    m_iv, m_vaso, m = discrepancy(store, policy, alpha, beta)
    low, high, q_low, q_high = cohort_split(m, p)
    return {
        "alpha": alpha,
        "beta": beta,
        "p": p,
        "thresholds": {"q_low": q_low, "q_high": q_high},
        "low_bdesr": float(store.survived[low].mean()),
        "high_bdesr": float(store.survived[high].mean()),
        "cohorts": {"low": store.episode_id[low].tolist(),
                    "high": store.episode_id[high].tolist()},
        "scores": [
            {"episode_id": episode_id, "m_iv": iv, "m_vaso": vaso, "m": score}
            for episode_id, iv, vaso, score in zip(store.episode_id, m_iv.tolist(),
                                                   m_vaso.tolist(), m.tolist())
        ],
    }
