#!/usr/bin/env python
"""Scaling study: the paper's reference case (Figures 3 and 4).

Runs the 3552-atom myoglobin benchmark for 10 MD steps on the simulated
reference platform — MPICH over TCP/IP on Gigabit Ethernet, uni-processor
nodes — at 1, 2, 4 and 8 processors, and prints the wall-clock series and
the computation/communication/synchronization breakdowns.

Run:  python examples/scaling_study.py        (~1 minute)
"""

from repro.core import breakdown_table, time_series_table
from repro.campaign import CampaignEngine
from repro.experiments import figure3, figure4
from repro.parallel import MDRunConfig


def main() -> None:
    print("Building the 3552-atom benchmark system (myoglobin + CO + SO4 + 337 waters)...")
    engine = CampaignEngine(config=MDRunConfig(n_steps=10))

    print("Simulating the reference platform at p = 1, 2, 4, 8...\n")
    fig3 = figure3(engine)
    print(fig3.report)

    speedups = [fig3.series["total"][0] / t for t in fig3.series["total"]]
    print("\nSpeedups:", "  ".join(f"p={p}: {s:.2f}x" for p, s in zip(fig3.series["p"], speedups)))

    fig4 = figure4(engine)
    print()
    print(fig4.report)

    print(
        "\nReading: the classic (cutoff) part still scales at p=2 (<10% overhead)\n"
        "but the PME part is already communication-bound — exactly the paper's\n"
        "answer to 'is there any easy parallelism in CHARMM?': some, but not in PME."
    )


if __name__ == "__main__":
    main()
