"""Confidence intervals over multi-seed runs.

The paper uses the SimFlex sampling methodology and reports 95 % confidence
intervals on its speedup results.  The analogue here is running each
(configuration, workload) pair with several generator seeds and reporting
the mean and a Student-t confidence interval over the per-seed results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ConfidenceInterval:
    """Mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    samples: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.3f} ± {self.half_width:.3f} ({self.confidence:.0%})"


def mean_confidence_interval(samples: Sequence[float],
                             confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval of the mean of ``samples``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise ValueError("need at least one sample")
    mean = float(values.mean())
    if values.size == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0,
                                  confidence=confidence, samples=1)
    # scipy is imported only here: single-seed runs never pay for it.
    from scipy import stats as scipy_stats

    sem = float(values.std(ddof=1) / np.sqrt(values.size))
    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=values.size - 1))
    return ConfidenceInterval(mean=mean, half_width=t_crit * sem,
                              confidence=confidence, samples=int(values.size))
