#!/usr/bin/env python
"""Network comparison: TCP/IP vs SCore vs Myrinet (Figures 5-7).

Same workload, same MPI calls — only the interconnect and its driver
software change.  Shows the paper's central finding: the software
infrastructure matters more than the raw wire.

Run:  python examples/network_comparison.py        (~2 minutes)
"""

from repro.campaign import CampaignEngine
from repro.experiments import figure5, figure7
from repro.parallel import MDRunConfig


def main() -> None:
    engine = CampaignEngine(config=MDRunConfig(n_steps=10))

    print("Simulating the three interconnects at p = 1, 2, 4, 8...\n")
    fig5 = figure5(engine)
    print(fig5.report)

    print()
    fig7 = figure7(engine)
    print(fig7.report)

    tcp8 = fig5.series["tcp-gige"][3]
    score8 = fig5.series["score-gige"][3]
    myri8 = fig5.series["myrinet"][3]
    print(
        f"\nAt 8 processors: SCore is {tcp8 / score8:.1f}x faster than TCP/IP on the"
        f"\nSAME Gigabit Ethernet wire; Myrinet adds another {score8 / myri8:.2f}x on top."
        "\nBetter communication software buys most of the win at no hardware cost."
    )


if __name__ == "__main__":
    main()
