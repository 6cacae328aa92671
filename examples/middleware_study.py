#!/usr/bin/env python
"""Middleware study: raw MPI vs CHARMM's CMPI layer (Figure 8).

The same physics, the same network — only the communication style
changes: standard MPI collectives versus CMPI's split non-blocking calls
with neighbour-ring synchronization (p-1 one-byte rounds).

Run:  python examples/middleware_study.py        (~2 minutes)
"""

from repro.campaign import CampaignEngine
from repro.experiments import figure8
from repro.parallel import MDRunConfig


def main() -> None:
    engine = CampaignEngine(config=MDRunConfig(n_steps=10))

    print("Simulating MPI vs CMPI middleware on TCP/IP (uni-processor)...\n")
    fig8 = figure8(engine)
    print(fig8.report)

    mpi = fig8.series["mpi"]
    cmpi = fig8.series["cmpi"]
    print(
        f"\nAt p=8: MPI total {mpi['total'][3]:.2f} s vs CMPI {cmpi['total'][3]:.2f} s;"
        f"\nCMPI synchronization alone costs {cmpi['sync'][3]:.2f} s (MPI: {mpi['sync'][3]:.2f} s)."
        "\nPortable-looking middleware can silently forfeit all scalability on"
        "\nper-packet-overhead networks — the paper's warning in Sec. 4.2."
    )


if __name__ == "__main__":
    main()
