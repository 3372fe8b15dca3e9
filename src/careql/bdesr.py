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
and the store's logged actions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import (N_ACTIONS, N_DOSE_LEVELS, DatasetError, Episode, EpisodeStore,
                      OfflineDataset, store_of)

Array = np.ndarray


class BdesrError(ValueError):
    pass


@dataclass(frozen=True)
class DiscrepancyScore:
    episode_id: str
    m_iv: float
    m_vaso: float
    m: float


@dataclass(frozen=True)
class CohortSplit:
    low_ids: tuple[str, ...]
    high_ids: tuple[str, ...]
    p: float
    q_low: float
    q_high: float


def episode_discrepancy(episode: Episode, policy, alpha: float = 0.5,
                        beta: float = 0.5) -> DiscrepancyScore:
    """Mean absolute per-drug level gap between policy and clinician."""
    return _score(store_of([episode]), policy, alpha, beta)[0]


def _check_weights(alpha: float, beta: float) -> None:
    if alpha < 0 or beta < 0 or abs(alpha + beta - 1.0) > 1e-9:
        raise BdesrError(f"weights must be nonnegative with alpha + beta = 1, "
                         f"got alpha={alpha}, beta={beta}")


def _score(store: EpisodeStore, policy, alpha: float,
           beta: float) -> list[DiscrepancyScore]:
    _check_weights(alpha, beta)
    if not store.lengths.size:
        return []
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
    scores = []
    for episode_id, iv, vaso, T in zip(store.episode_id, iv_gap, vaso_gap, store.lengths):
        m_iv, m_vaso = float(iv / T), float(vaso / T)
        scores.append(DiscrepancyScore(episode_id=episode_id, m_iv=m_iv,
                                       m_vaso=m_vaso, m=alpha * m_iv + beta * m_vaso))
    return scores


def cohort_split(scores: Sequence[DiscrepancyScore], p: float = 20.0) -> CohortSplit:
    """Extreme cohorts of the discrepancy distribution.

    Low = scores at or below the p-th percentile, high = scores at or above
    the (100 - p)-th (linear-interpolation percentiles, ties included on
    both sides). Identical scores put every episode in both cohorts, with a
    warning.
    """
    if not scores:
        raise BdesrError("no discrepancy scores to split")
    if not (0.0 < p < 50.0):
        raise BdesrError(f"p must be in (0, 50), got {p}")
    values = np.array([s.m for s in scores])
    q_low = float(np.percentile(values, p))
    q_high = float(np.percentile(values, 100.0 - p))
    if values.min() == values.max():
        warnings.warn("all discrepancy scores identical; low and high "
                      "cohorts both contain every episode", stacklevel=2)
    low = tuple(s.episode_id for s in scores if s.m <= q_low)
    high = tuple(s.episode_id for s in scores if s.m >= q_high)
    return CohortSplit(low_ids=low, high_ids=high, p=p, q_low=q_low, q_high=q_high)


def bdesr_rates(split: CohortSplit, survival: Mapping[str, bool]) -> tuple[float, float]:
    """(low-cohort survival rate, high-cohort survival rate)."""
    if not split.low_ids or not split.high_ids:
        raise BdesrError("both cohorts must be nonempty")

    def rate(ids: tuple[str, ...]) -> float:
        flags = []
        for ep_id in ids:
            flag = survival.get(ep_id)
            if flag is None:
                raise BdesrError(f"no survival label for episode {ep_id!r}")
            flags.append(bool(flag))
        return float(np.mean(flags))

    return rate(split.low_ids), rate(split.high_ids)


def bdesr_report(dataset: OfflineDataset, policy, alpha: float = 0.5,
                 beta: float = 0.5, p: float = 20.0) -> dict:
    """Per-episode scores, cohort membership, and the two survival rates of
    a dataset, typically one split (``OfflineDataset.split``)."""
    scores = _score(dataset.store, policy, alpha, beta)
    split = cohort_split(scores, p)
    low_rate, high_rate = bdesr_rates(split, dataset.survival())
    return {
        "alpha": alpha,
        "beta": beta,
        "p": p,
        "thresholds": {"q_low": split.q_low, "q_high": split.q_high},
        "low_bdesr": low_rate,
        "high_bdesr": high_rate,
        "cohorts": {"low": list(split.low_ids), "high": list(split.high_ids)},
        "scores": [
            {"episode_id": s.episode_id, "m_iv": s.m_iv, "m_vaso": s.m_vaso,
             "m": s.m}
            for s in scores
        ],
    }
