"""Experiment drivers: one per table/figure of the paper's evaluation."""

from .factorial import FactorialResult, main_effects, run_full_factorial
from .throughput import ThroughputPlan, ThroughputStudy, throughput_study
from .figures import (
    ALL_FIGURES,
    FigureResult,
    extrapolation,
    fast_ethernet_comparison,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    grid_outlook,
)

__all__ = [
    "ALL_FIGURES",
    "extrapolation",
    "fast_ethernet_comparison",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "FigureResult",
    "grid_outlook",
    "FactorialResult",
    "main_effects",
    "run_full_factorial",
    "ThroughputPlan",
    "ThroughputStudy",
    "throughput_study",
]
