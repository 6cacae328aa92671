"""Wall-clock layer tracer: wraps functions and charges their self time.

A :class:`LayerTracer` replaces an attribute (a module-level function or
a method on a class) with a wrapper that times each call and charges it
to a named *bucket*.  A bucket's **self time** is its wrapped time minus
the wrapped time of the calls nested inside it, so self times of all
buckets add up to the time spent inside the outermost wrapped calls.

Generator functions (the simulated MPI layer, the distributed FFT, the
PME phase) are timed over their resumptions only: the clock runs while
the generator body executes after a ``send`` and stops when it yields
an effect back to the simulator.  A collective that waits a virtual
second therefore costs the wall clock nothing while suspended.

The tracer touches no program state: wrappers return exactly what the
wrapped function returns, so a traced run is bit-identical to an
untraced one.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["LayerTracer"]


class LayerTracer:
    """Self-time and count accounting for wrapped call sites."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: bucket -> self seconds
        self.self_s: dict[str, float] = defaultdict(float)
        #: counter name -> accumulated count
        self.counts: dict[str, float] = defaultdict(float)
        # one accumulator of nested wrapped time per open wrapped call;
        # the bottom entry collects the time of the outermost calls
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    @property
    def covered_s(self) -> float:
        """Wall seconds spent inside outermost wrapped calls."""
        return self._stack[0]

    def reset(self) -> None:
        """Zero every bucket and counter (the patches stay installed)."""
        if len(self._stack) != 1:
            raise RuntimeError("reset() inside a wrapped call")
        self.self_s.clear()
        self.counts.clear()
        self._stack[0] = 0.0

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    # ------------------------------------------------------------------
    def wrap_function(
        self, fn: Callable, bucket: str, after: Callable | None = None
    ) -> Callable:
        """A timed stand-in for the plain function ``fn``.

        ``after(args, kwargs, result)``, when given, runs once the call
        returns (outside the timed interval) to record counts.
        """
        stack = self._stack
        self_s = self.self_s
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[bucket] += dt - stack.pop()
                stack[-1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(
        self, fn: Callable, bucket: str, after: Callable | None = None
    ) -> Callable:
        """A stand-in for the generator function ``fn``, timed per resumption."""
        drive = self._drive

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return drive(fn(*args, **kwargs), bucket, after, args, kwargs)

        return wrapper

    def _drive(self, gen, bucket: str, after, args, kwargs):
        stack = self._stack
        self_s = self.self_s
        clock = self.clock
        value: Any = None
        error: BaseException | None = None
        while True:
            stack.append(0.0)
            t0 = clock()
            try:
                if error is None:
                    effect = gen.send(value)
                else:
                    effect = gen.throw(error)
            except StopIteration as stop:
                dt = clock() - t0
                self_s[bucket] += dt - stack.pop()
                stack[-1] += dt
                if after is not None:
                    after(args, kwargs, stop.value)
                return stop.value
            except BaseException:
                dt = clock() - t0
                self_s[bucket] += dt - stack.pop()
                stack[-1] += dt
                raise
            dt = clock() - t0
            self_s[bucket] += dt - stack.pop()
            stack[-1] += dt
            # suspended: the clock is not running for this bucket
            try:
                value = yield effect
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the wrapped generator
                value, error = None, exc

    # ------------------------------------------------------------------
    def patch(
        self,
        owner: Any,
        name: str,
        bucket: str,
        *,
        generator: bool = False,
        after: Callable | None = None,
    ) -> None:
        """Replace ``owner.name`` (module or class attribute) with a wrapper."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        make = self.wrap_generator if generator else self.wrap_function
        setattr(owner, name, make(original, bucket, after))
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
