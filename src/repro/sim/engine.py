"""Discrete-event simulation core.

A compact process-based DES kernel in the style of SimPy: simulation logic
is written as Python generators that ``yield`` events; the environment owns
a time-ordered event heap and resumes each process when the event it waits
on triggers.

Design points that matter for reproducibility:

* **Determinism** — the heap is ordered by ``(time, priority, sequence)``
  where the sequence number is a monotone counter, so simultaneous events
  fire in creation order and a simulation is a pure function of its inputs.
* **Failure propagation** — a failed event re-raises inside the waiting
  process at the ``yield``; uncaught failures abort :meth:`Environment.run`
  with the original exception (silent loss of an error in a 10^6-event run
  is the classic DES debugging nightmare).
* **No wall-clock anywhere** — simulated seconds are just floats.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

from ..errors import SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Environment",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
]

PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

#: Generator type for process functions.
ProcessGen = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* when given a value (or failure) and *processed*
    once its callbacks have run. Each event may trigger at most once.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event value inspected before trigger")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value inspected before trigger")
        return self._value

    def succeed(self, value: Any = None, *, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger successfully; callbacks run at the current sim time."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule(self, 0.0, priority)
        return self

    def fail(self, exception: BaseException, *, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger as failed; the waiting process sees ``exception`` raised."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, 0.0, priority)
        return self


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True  # scheduled immediately, fires at now+delay
        self._ok = True
        self._value = value
        env._schedule(self, delay, PRIORITY_NORMAL)


class Process(Event):
    """A running generator; as an event, it triggers when the generator
    returns (value = return value) or raises (failure)."""

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: ProcessGen, name: str = "") -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the generator at the current time.
        boot = Event(env)
        boot._triggered = True
        boot._ok = True
        env._schedule(boot, 0.0, PRIORITY_NORMAL)
        boot.callbacks.append(self._resume)

    def _resume(self, trigger: Event) -> None:
        while True:
            try:
                if trigger._ok:
                    target = self._generator.send(trigger._value)
                else:
                    target = self._generator.throw(trigger._value)
            except StopIteration as stop:
                if not self._triggered:
                    self.succeed(stop.value)
                return
            except BaseException as exc:
                if not self._triggered:
                    self.fail(exc)
                    return
                raise
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {type(target).__name__}, "
                    "expected an Event"
                )
            if target.env is not self.env:
                raise SimulationError("process yielded an event from another environment")
            if target.callbacks is not None:
                # Event not yet processed: park until it fires.
                target.callbacks.append(self._resume)
                return
            # Already-processed event: consume its value synchronously and
            # keep driving the generator (no zero-delay reschedule storm).
            trigger = target


class AllOf(Event):
    """Triggers when every component event has triggered.

    Value is the list of component values, in construction order. Fails
    with the first component failure.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        if any(e.env is not env for e in self.events):
            raise SimulationError("condition mixes events from different environments")
        self._remaining = 0
        first_failure: Event | None = None
        for event in self.events:
            if event.callbacks is None:  # already processed
                if not event._ok and first_failure is None:
                    first_failure = event
            else:
                self._remaining += 1
                event.callbacks.append(self._observe)
        if first_failure is not None:
            self.fail(first_failure._value)
        elif self._remaining == 0:
            self.succeed([e._value for e in self.events])

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self.events])


class AnyOf(Event):
    """Triggers with the value (or failure) of the first component to fire.

    An empty component list succeeds immediately with ``[]``.
    """

    __slots__ = ("events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        if any(e.env is not env for e in self.events):
            raise SimulationError("condition mixes events from different environments")
        if not self.events:
            self.succeed([])
            return
        done = next((e for e in self.events if e.callbacks is None), None)
        if done is not None:
            if done._ok:
                self.succeed(done._value)
            else:
                self.fail(done._value)
            return
        for event in self.events:
            event.callbacks.append(self._observe)

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)


class Environment:
    """The simulation clock and event loop."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self.events_processed = 0

    @property
    def now(self) -> float:
        return self._now

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGen, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def peek(self) -> float:
        """The time of the next scheduled event, ``inf`` when none is."""
        return self._heap[0][0] if self._heap else float("inf")

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        heapq.heappush(self._heap, (self._now + delay, priority, self._seq, event))
        self._seq += 1

    def step(self) -> None:
        """Process the single next event."""
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        time, _priority, _seq, event = heapq.heappop(self._heap)
        if time < self._now:
            raise SimulationError("event heap produced a time in the past")
        self._now = time
        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        event._processed = True
        self.events_processed += 1
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif not event._ok:
            # A failed event nobody waits on: surface it rather than lose it.
            raise event._value

    def run(self, until: Event | float | None = None) -> Any:
        """Run until the heap drains, a deadline passes, or an event fires.

        * ``until is None`` — drain every event; returns ``None``.
        * numeric ``until`` — advance to that simulated time.
        * ``Event`` — run until it is processed; returns its value (or
          raises its failure).
        """
        if isinstance(until, Event):
            target = until
            while not target._processed:
                if not self._heap:
                    raise SimulationError(
                        "event heap drained before the awaited event fired "
                        "(deadlocked processes?)"
                    )
                self.step()
            if not target._ok:
                raise target._value
            return target._value
        if until is None:
            while self._heap:
                self.step()
            return None
        deadline = float(until)
        if deadline < self._now:
            raise SimulationError("cannot run backwards in time")
        while self._heap and self._heap[0][0] <= deadline:
            self.step()
        self._now = deadline
        return None
