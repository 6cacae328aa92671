"""Child-process entry points of the benchmark.

Every measurement runs in a fresh interpreter started by ``run.py``; this
file is that interpreter's main program.  Usage::

    python perfbench/child.py MODE OUT.json PARAMS [ARGV...]

``MODE`` is one of ``reference``, ``setup``, ``measure``, ``trace-md``
and ``cli``; ``PARAMS`` is a JSON object given on the command line
(workload, strategy, seed, ...); the child writes its findings to
``OUT.json``.  Times that start before
the interpreter does (``ready``, ``imported``) are ``time.monotonic()``
stamps, a clock shared by every process of the host, so the parent
subtracts its own stamp from just before the spawn.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

import layers
from tracer import LayerTracer

N_STEPS = 10
N_RANKS = 8
#: relative tolerance of the parallel run against serial_reference_run
ORACLE_RTOL = 1e-9


def _write(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc))


# ----------------------------------------------------------------------
# MD workloads


def _spec_and_options(params: dict):
    from repro import MDRunConfig, RunOptions
    from repro.core.factors import FOCAL_POINT

    seed = params["seed"]
    spec = FOCAL_POINT.cluster_spec(N_RANKS, seed=seed)
    options = RunOptions(
        middleware=FOCAL_POINT.middleware,
        config=MDRunConfig(n_steps=N_STEPS, velocity_seed=seed),
        strategy=params["strategy"],
    )
    return spec, options


def signature(result):
    """(energies, final positions, virtual timelines) of one run as arrays."""
    import numpy as np
    from repro.parallel.pmd import energy_to_vector

    energies = np.array([energy_to_vector(e) for e in result.energies])
    virtual = np.array([
        [getattr(tl.phases[name], c) for name in sorted(tl.phases) for c in ("comp", "comm", "sync")]
        for tl in result.timelines
    ])
    return energies, np.asarray(result.final_positions), virtual


def _same(a, b) -> bool:
    import numpy as np

    return all(np.array_equal(x, y) for x, y in zip(a, b))


def mode_reference(params: dict) -> dict:
    """A fixed interpreter + numpy workload that uses no ``repro`` code.

    Its wall time tracks how fast the host runs right now; ``run.py``
    scales every end-to-end timing by it.  Changing this workload
    changes every scaled metric, so it stays fixed.
    """
    import numpy as np

    rng = np.random.default_rng(1)
    mesh = rng.standard_normal((48, 48, 48))
    points = rng.standard_normal((20000, 3))
    table: dict[int, float] = {}
    for _ in range(4):
        for i in range(60000):
            table[i % 4099] = table.get(i % 4099, 0.0) + i
        np.fft.ifftn(np.fft.fftn(mesh))
        pairs = rng.integers(0, len(points), size=(200000, 2))
        dr = points[pairs[:, 0]] - points[pairs[:, 1]]
        np.einsum("ij,ij->i", dr, dr).sum()
        np.sort(rng.standard_normal(200000))
    return {}


def mode_setup(params: dict) -> dict:
    from repro import build_workload

    build_workload(params["workload"])
    return {"ready": time.monotonic()}


def mode_measure(params: dict) -> dict:
    """Warm-up run, back-to-back timed runs for ``seconds``, then the oracle."""
    from repro import build_workload, run_parallel_md

    system, positions = build_workload(params["workload"])
    ready = time.monotonic()
    spec, options = _spec_and_options(params)

    first = run_parallel_md(system, positions, spec, options)  # untimed warm-up
    ref = signature(first)

    times, mismatches = [], 0
    deadline = time.perf_counter() + params["seconds"]
    while len(times) < params["min_runs"] or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        result = run_parallel_md(system, positions, spec, options)
        times.append(time.perf_counter() - t0)
        mismatches += not _same(signature(result), ref)

    classic, pme = first.component("classic"), first.component("pme")
    doc = {
        "ready": ready,
        "times": times,
        "mismatches": mismatches,
        "virtual": {
            "classic_comp": classic.comp, "classic_comm": classic.comm,
            "classic_sync": classic.sync, "pme_comp": pme.comp,
            "pme_comm": pme.comm, "pme_sync": pme.sync,
        },
        "final_total_energy": first.energies[-1].total,
    }
    if params["oracle"]:
        doc["oracle_ok"] = _oracle_agrees(params, system, positions, spec, options, ref)
    return doc


def _oracle_agrees(params, system, positions, spec, options, ref) -> bool:
    """Check the first run against an independent result, untimed.

    ``serial``: :func:`serial_reference_run` on a private copy of the
    system, to 1e-9 relative; ``replicated``: one replicated-data run at
    the same rank count, bit for bit (the spatial strategy promises
    identical physics).
    """
    import numpy as np

    energies, positions_out = ref[0], ref[1]
    if params["oracle"] == "serial":
        from repro.md.integrator import maxwell_boltzmann_velocities
        from repro.parallel.pmd import energy_to_vector, serial_reference_run
        from repro.parallel.run import rank_system_clone

        config = options.config
        rng = np.random.default_rng(config.velocity_seed)
        velocities = maxwell_boltzmann_velocities(system.masses, config.temperature, rng)
        serial_e, serial_x = serial_reference_run(
            rank_system_clone(system), config, positions, velocities
        )
        serial_e = np.array([energy_to_vector(e) for e in serial_e])
        return bool(
            np.allclose(energies, serial_e, rtol=ORACLE_RTOL, atol=0.0)
            and np.allclose(positions_out, serial_x, rtol=ORACLE_RTOL, atol=0.0)
        )
    from repro import run_parallel_md

    replicated = options.replace(strategy="replicated")
    other = signature(run_parallel_md(system, positions, spec, replicated))
    return _same(other[:2], ref[:2])


def _install_tracer() -> LayerTracer:
    """Import the traced modules and patch them; returns the tracer."""
    import repro.cli  # noqa: F401  (its import cost is cli.import_s)

    tracer = LayerTracer()
    layers.install(tracer)
    return tracer


def mode_trace_md(params: dict) -> dict:
    """Interleaved untraced / traced runs (ABAB...) after one warm-up."""
    tracer = _install_tracer()
    imported = time.monotonic()
    import repro.campaign.workloads as cworkloads
    import repro.parallel.run as prun

    system, positions = cworkloads.build_workload(params["workload"])
    build_s = tracer.self_s["workloads.build"]
    tracer.uninstall()
    spec, options = _spec_and_options(params)
    # called through the module attribute, so the traced runs go through
    # the wrapper that counts their steps
    ref = signature(prun.run_parallel_md(system, positions, spec, options))

    untraced, traced, mismatches = [], [], 0
    self_s, counts = Counter(), Counter()
    deadline = time.perf_counter() + params["seconds"]
    while len(traced) < params["min_runs"] or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        result = prun.run_parallel_md(system, positions, spec, options)
        untraced.append(time.perf_counter() - t0)
        mismatches += not _same(signature(result), ref)

        layers.install(tracer)
        tracer.reset()
        t0 = time.perf_counter()
        result = prun.run_parallel_md(system, positions, spec, options)
        traced.append(time.perf_counter() - t0)
        tracer.uninstall()
        mismatches += not _same(signature(result), ref)
        self_s.update(tracer.self_s)
        counts.update(tracer.counts)
    return {
        "imported": imported,
        "build_s": build_s,
        "untraced": untraced,
        "traced": traced,
        "mismatches": mismatches,
        "self_s": self_s,
        "counts": counts,
    }


# ----------------------------------------------------------------------
# CLI under the tracer (the traced legs of the campaign workload)


def mode_cli(out: str, argv: list[str]) -> int:
    tracer = _install_tracer()
    imported = time.monotonic()
    import repro.cli
    from repro.instrument.counters import FORCE_EVALUATIONS

    evals0 = FORCE_EVALUATIONS.snapshot()
    code = repro.cli.main(argv)
    tracer.uninstall()
    _write(out, {
        "imported": imported,
        "code": code,
        "force_evals": FORCE_EVALUATIONS.delta(evals0),
        "self_s": dict(tracer.self_s),
        "counts": dict(tracer.counts),
    })
    return code


MODES = {
    "reference": mode_reference,
    "setup": mode_setup,
    "measure": mode_measure,
    "trace-md": mode_trace_md,
}


def main(argv: list[str]) -> int:
    mode, out, params = argv[0], argv[1], json.loads(argv[2])
    if mode == "cli":
        return mode_cli(out, argv[3:])
    _write(out, MODES[mode](params))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
