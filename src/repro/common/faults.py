"""Deterministic fault injection for the durability and I/O boundaries.

The paper's dataset was collected over weeks against flaky, rate-limited
public endpoints; this repro has grown the matching durability machinery
(retry budgets, atomic manifests, checksum-gated chunks, checkpoints that
degrade to rescans) piece by piece.  This module is what *adversarially
exercises* all of it: a registry of named **faultpoints** compiled into the
durability-critical code paths, driven by a :class:`FaultPlan` parsed from a
compact spec string (the ``--faults`` flag / ``REPRO_FAULTS`` environment
variable).

Everything is deterministic.  Triggers are counters (``nth``/``every``),
seeded coin flips (``p``) or simulated-time windows (``window``); the RNG
behind probabilistic rules is seeded from the plan seed and the rule's
identity through a process-stable mix (no Python ``hash()``, which is
randomised per process).  Running the same program under the same spec
therefore fires the same faults at the same operations and produces a
byte-identical event log — a failure schedule is a value, not an accident.

Spec grammar::

    plan  := rule ( ';' rule )*
    rule  := 'seed=N' | point ( ':' field )+
    field := key '=' value
    point := a name from FAULTPOINTS

Trigger keys (at least one per rule; combined with AND semantics):

* ``nth=N`` — fire on the N-th time the faultpoint is hit (1-based; once).
* ``every=N`` — fire on every N-th hit.
* ``p=F`` — fire with probability F per hit, under the seeded RNG.
* ``window=A..B`` — only fire while the caller's simulated time ``now`` is
  in ``[A, B)``; faultpoints that carry no clock never match a window rule.
* ``times=N`` — stop firing after N fires (default: 1 for ``nth``,
  unlimited otherwise).

Action keys: ``mode=...`` selects what happens (see the per-point mode
lists in :data:`FAULTPOINTS`); remaining keys are mode parameters (e.g.
``retry_after=40`` for ``mode=rate_limit``).

Example::

    seed=99;crawler.fetch:p=0.05:mode=rate_limit:retry_after=40;\
    store.chunk_write:nth=3:mode=torn;checkpoint.save:nth=2:mode=bitflip

Activation: :func:`use_plan` scopes a plan to a ``with`` block (tests, the
soak harness); without one, the first :func:`check` parses ``REPRO_FAULTS``
if set — which is how worker processes (spawned pools) inherit the fault
schedule.

An injected *crash* raises :class:`InjectedCrash`: the simulated equivalent
of the process dying at that exact instruction.  Consumers (the soak
driver) catch it, discard all in-memory state, and reopen from disk —
exercising precisely the recovery path a real crash would.
"""

from __future__ import annotations

import os
import random
import zlib
from contextlib import contextmanager
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.common.errors import (
    ConfigurationError,
    EndpointUnavailable,
    RateLimitExceeded,
    ReproError,
    RpcError,
)

#: Environment variable a fault plan is picked up from when no
#: :func:`use_plan` block is active — the cross-process activation channel.
FAULTS_ENV = "REPRO_FAULTS"

#: Crash-style modes: the faultpoint simulates the process dying there.
MODE_CRASH = "crash"
MODE_KILL = "kill"

#: Corruption modes for byte blobs on their way to (or from) disk.
MODE_TORN = "torn"
MODE_BITFLIP = "bitflip"
MODE_TRUNCATE = "truncate"
CORRUPT_MODES = (MODE_TORN, MODE_BITFLIP, MODE_TRUNCATE)

#: Endpoint-failure modes for the crawler-facing faultpoints.
MODE_RATE_LIMIT = "rate_limit"
MODE_UNAVAILABLE = "unavailable"
MODE_TIMEOUT = "timeout"
MODE_GARBAGE = "garbage"

_ENDPOINT_MODES = (
    MODE_RATE_LIMIT,
    MODE_UNAVAILABLE,
    MODE_TIMEOUT,
    MODE_GARBAGE,
    MODE_CRASH,
)

#: The faultpoint catalog: every instrumented durability / I-O boundary,
#: with the modes its call site understands.  ``FaultPlan.parse`` rejects
#: unknown points and modes so a typo in a spec fails loudly instead of
#: silently testing nothing.
FAULTPOINTS: Dict[str, Tuple[str, ...]] = {
    # FrameStore chunk write: ``torn`` writes half the blob but commits the
    # manifest with the full size and then crashes (power loss tearing a
    # committed page); ``truncate`` writes half and crashes *before* the
    # manifest (uncommitted partial); ``bitflip`` silently corrupts the
    # blob on disk (detected by checksums on the next read / fsck);
    # ``crash`` dies between the chunk file write and the manifest commit.
    "store.chunk_write": (MODE_TORN, MODE_BITFLIP, MODE_TRUNCATE, MODE_CRASH),
    # The manifest rename itself: crash after the temp write, before the
    # atomic replace — the previous manifest must survive untouched.
    "store.manifest_commit": (MODE_CRASH,),
    # Between chunk-file moves of FrameStore.assemble: a crashed assembly
    # must leave a target store that refuses to open, never a silently
    # partial one.
    "store.assemble": (MODE_CRASH,),
    # Chunk-state cache entry read: corrupt the bytes before the decode —
    # the entry's checksum must catch it and the consumer degrades to a
    # plain rescan of that chunk, never an error or a wrong figure.
    "store.cache_read": (MODE_BITFLIP, MODE_TRUNCATE),
    # Chunk-state cache entry write: ``bitflip``/``torn``/``truncate``
    # silently corrupt the entry on disk (the next read degrades to a
    # rescan); ``crash`` dies between the temp write and the atomic
    # rename, leaving a ``.tmp`` leftover that fsck flags as orphaned.
    "store.cache_write": (MODE_BITFLIP, MODE_TORN, MODE_TRUNCATE, MODE_CRASH),
    # Checkpoint persistence: crash before the atomic rename, or flip a
    # byte in the committed snapshot (load then degrades to a rescan).
    "checkpoint.save": (MODE_CRASH, MODE_BITFLIP),
    # Snapshot file read: corrupt the bytes before the entry decode.
    "checkpoint.load": (MODE_BITFLIP,),
    # Endpoint fetches, as the crawler sees them.
    "crawler.head": _ENDPOINT_MODES,
    "crawler.fetch": _ENDPOINT_MODES,
    # A live-tail batch boundary (also the soak driver's cycle boundary).
    "live.batch": (MODE_CRASH,),
    # Entry into an incremental update.
    "pipeline.update": (MODE_CRASH,),
    # Chunk-task / shard workers: ``kill`` is a hard ``os._exit`` in the
    # worker process — the parent's pool watchdog must fail fast, and the
    # consumer degrades to a serial scan.
    "worker.chunk_task": (MODE_KILL,),
}


class InjectedCrash(ReproError):
    """A fault plan simulated the process dying at a faultpoint."""


def _stable_hash(*parts: object) -> int:
    """A process-stable 32-bit hash (``hash()`` is randomised per process)."""
    digest = 0
    for part in parts:
        digest = zlib.crc32(repr(part).encode("utf-8"), digest)
    return digest & 0xFFFF_FFFF


class FaultRule:
    """One parsed spec rule: a faultpoint, a trigger, and an action.

    A plain class: parsing fills the trigger in field by field, and firing
    counts ``hits`` / ``fires`` on the rule itself.
    """

    def __init__(self, point: str, mode: str):
        self.point = point
        self.mode = mode
        # -- trigger and parameters (filled in by FaultPlan.parse) ---------------
        self.nth: Optional[int] = None
        self.every: Optional[int] = None
        self.probability: Optional[float] = None
        self.window: Optional[Tuple[float, float]] = None
        self.times: Optional[int] = None
        self.params: Dict[str, str] = {}
        # -- runtime state (reset by FaultPlan.reset) ----------------------------
        self.hits = 0
        self.fires = 0
        self._rng: Optional[random.Random] = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"FaultRule({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def seed_rng(self, seed: int, index: int) -> None:
        """Seed the rule's private RNG from the plan seed and rule identity."""
        self._rng = random.Random(
            _stable_hash(seed, index, self.point, self.mode)
        )

    def rng(self) -> random.Random:
        if self._rng is None:  # pragma: no cover - seed_rng() always runs first
            self.seed_rng(0, 0)
        return self._rng

    @property
    def remaining(self) -> Optional[int]:
        limit = self.times if self.times is not None else (
            1 if self.nth is not None else None
        )
        if limit is None:
            return None
        return max(0, limit - self.fires)

    def evaluate(self, now: Optional[float]) -> bool:
        """Count one hit; return whether the rule fires on it."""
        self.hits += 1
        if self.remaining == 0:
            return False
        if self.window is not None:
            if now is None or not (self.window[0] <= now < self.window[1]):
                return False
        if self.nth is not None and self.hits != self.nth:
            return False
        if self.every is not None and self.hits % self.every != 0:
            return False
        if self.probability is not None and not (
            self.rng().random() < self.probability
        ):
            return False
        self.fires += 1
        return True


class FaultAction(NamedTuple):
    """What a fired faultpoint should do, interpreted by the call site."""

    point: str
    mode: str
    params: Dict[str, str]
    rule: FaultRule

    def param_float(self, key: str, default: float) -> float:
        value = self.params.get(key)
        return float(value) if value is not None else default

    def corrupt(self, blob: bytes) -> bytes:
        """Apply this action's corruption mode to ``blob`` deterministically."""
        if not blob:
            return blob
        if self.mode in (MODE_TORN, MODE_TRUNCATE):
            return blob[: max(1, len(blob) // 2)]
        if self.mode == MODE_BITFLIP:
            offset = self.rule.rng().randrange(len(blob))
            mutated = bytearray(blob)
            mutated[offset] ^= 0xFF
            return bytes(mutated)
        raise ConfigurationError(
            f"fault mode {self.mode!r} does not corrupt byte blobs"
        )

    def endpoint_error(self) -> RpcError:
        """The RPC exception an endpoint-fault mode simulates."""
        if self.mode == MODE_RATE_LIMIT:
            return RateLimitExceeded(retry_after=self.param_float("retry_after", 30.0))
        if self.mode == MODE_UNAVAILABLE:
            return EndpointUnavailable("injected outage")
        if self.mode == MODE_TIMEOUT:
            return RpcError(408, "injected timeout")
        if self.mode == MODE_GARBAGE:
            return RpcError(502, "injected unparseable response")
        raise ConfigurationError(
            f"fault mode {self.mode!r} is not an endpoint failure"
        )


class FaultPlan:
    """A parsed, seeded fault schedule with a deterministic event log."""

    def __init__(self, rules: List[FaultRule], seed: int = 0, spec: str = ""):
        self.rules = list(rules)
        self.seed = seed
        self.spec = spec
        #: One line per fired fault, in firing order.  Contains only
        #: deterministic fields, so two runs of the same program under the
        #: same spec produce byte-identical logs.
        self.events: List[str] = []
        self.reset()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``--faults`` / ``REPRO_FAULTS`` spec string."""
        seed = 0
        rules: List[FaultRule] = []
        for raw_rule in spec.replace("\n", ";").split(";"):
            raw_rule = raw_rule.strip()
            if not raw_rule:
                continue
            if raw_rule.startswith("seed="):
                seed = int(raw_rule[len("seed="):])
                continue
            fields = raw_rule.split(":")
            point = fields[0].strip()
            if point not in FAULTPOINTS:
                raise ConfigurationError(
                    f"unknown faultpoint {point!r}; known: "
                    f"{', '.join(sorted(FAULTPOINTS))}"
                )
            rule = FaultRule(point=point, mode="")
            for part in fields[1:]:
                part = part.strip()
                if "=" not in part:
                    raise ConfigurationError(
                        f"malformed fault field {part!r} in rule {raw_rule!r} "
                        "(expected key=value)"
                    )
                key, value = part.split("=", 1)
                key, value = key.strip(), value.strip()
                if key == "nth":
                    rule.nth = int(value)
                elif key == "every":
                    rule.every = int(value)
                elif key == "p":
                    rule.probability = float(value)
                    if not 0.0 <= rule.probability <= 1.0:
                        raise ConfigurationError(
                            f"fault probability {value!r} outside [0, 1]"
                        )
                elif key == "window":
                    start, _, end = value.partition("..")
                    rule.window = (float(start), float(end))
                elif key == "times":
                    rule.times = int(value)
                elif key == "mode":
                    rule.mode = value
                else:
                    rule.params[key] = value
            if not rule.mode:
                raise ConfigurationError(
                    f"fault rule {raw_rule!r} has no mode= field"
                )
            if rule.mode not in FAULTPOINTS[point]:
                raise ConfigurationError(
                    f"faultpoint {point!r} does not support mode "
                    f"{rule.mode!r} (supported: {', '.join(FAULTPOINTS[point])})"
                )
            rules.append(rule)
        return cls(rules, seed=seed, spec=spec)

    def reset(self) -> None:
        """Rewind every counter and RNG to the start of the schedule."""
        self.events = []
        for index, rule in enumerate(self.rules):
            rule.hits = 0
            rule.fires = 0
            rule.seed_rng(self.seed, index)

    def check(self, point: str, now: Optional[float] = None) -> Optional[FaultAction]:
        """Count one hit on ``point``; return the fired action, if any.

        Every rule matching the point counts the hit; the first rule that
        fires wins (later matching rules still count the hit, keeping their
        schedules independent of one another).
        """
        fired: Optional[FaultAction] = None
        for rule in self.rules:
            if rule.point != point:
                continue
            if rule.evaluate(now) and fired is None:
                fired = FaultAction(
                    point=point, mode=rule.mode, params=rule.params, rule=rule
                )
                self.events.append(
                    f"{len(self.events):05d} {point} mode={rule.mode} "
                    f"hit={rule.hits} fire={rule.fires}"
                    + (f" t={now!r}" if now is not None else "")
                )
        return fired

    def note(self, message: str) -> None:
        """Append a consumer-side line (recoveries, invariant marks) to the log."""
        self.events.append(f"{len(self.events):05d} {message}")

    def event_log(self) -> str:
        """The event log as one newline-terminated text blob."""
        return "".join(line + "\n" for line in self.events)

    @property
    def total_fires(self) -> int:
        return sum(rule.fires for rule in self.rules)


# -- process-wide registry ------------------------------------------------------------
_active: Optional[FaultPlan] = None
_env_loaded = False


@contextmanager
def use_plan(plan: Optional[FaultPlan]):
    """Scope ``plan`` (or fault-free ``None``) to a ``with`` block."""
    global _active, _env_loaded
    previous, previous_loaded = _active, _env_loaded
    _active, _env_loaded = plan, True
    try:
        yield plan
    finally:
        _active, _env_loaded = previous, previous_loaded


def active_plan() -> Optional[FaultPlan]:
    """The active plan: the enclosing :func:`use_plan`'s, or parsed once from the env."""
    global _active, _env_loaded
    if _active is None and not _env_loaded:
        _env_loaded = True
        spec = os.environ.get(FAULTS_ENV)
        if spec:
            _active = FaultPlan.parse(spec)
    return _active


def check(point: str, now: Optional[float] = None) -> Optional[FaultAction]:
    """Hit ``point`` against the active plan (no-op without one)."""
    plan = active_plan()
    if plan is None:
        return None
    if point not in FAULTPOINTS:
        raise ConfigurationError(f"unregistered faultpoint {point!r}")
    return plan.check(point, now)


def maybe_crash(point: str, now: Optional[float] = None) -> None:
    """Hit a crash-only faultpoint; raise :class:`InjectedCrash` if it fires."""
    action = check(point, now)
    if action is not None and action.mode == MODE_CRASH:
        raise InjectedCrash(f"injected crash at {point}")


def raise_endpoint_fault(point: str, now: Optional[float] = None) -> None:
    """Hit an endpoint faultpoint; raise the simulated RPC failure if fired."""
    action = check(point, now)
    if action is None:
        return
    if action.mode == MODE_CRASH:
        raise InjectedCrash(f"injected crash at {point}")
    raise action.endpoint_error()
