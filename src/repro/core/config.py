"""Algorithm configuration.

All tunables of the paper live in one frozen dataclass so every
experiment states its parameters explicitly.  The defaults are the
values of Section 8:

====================  =======  ==========================================
parameter             default  role in the paper
====================  =======  ==========================================
``c``                 0.6      decay factor (Jeh–Widom use 0.8; Lizorkin
                               and this paper use 0.6)
``T``                 11       series truncation length (eq. 9/10)
``r_pair``            100      R of Algorithm 1 (single-pair MC) and the
                               refine stage of the adaptive query
``r_screen``          10       R of the cheap first adaptive pass (§7.2)
``r_alphabeta``       10000    R of Algorithm 2 (α/β, the L1 bound)
``r_gamma``           100      R of Algorithm 3 (γ, the L2 bound)
``index_walks``       10       P of Algorithm 4 (index iterations)
``index_checks``      5        Q of Algorithm 4 (confirmation walks)
``k``                 20       answer size of Problem 1
``theta``             0.01     pruning threshold θ (§8)
``d_max``             T        distance horizon of the L1 bound (§6.1)
====================  =======  ==========================================

See ``docs/performance.md`` for the sketch kernels and the determinism
contract of the batched estimators.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional

from repro.utils.validation import check_fraction, check_positive_int


__all__ = ["SimRankConfig", "TunableSpec", "TUNABLES", "ENGINE_TUNABLES"]
@dataclass(frozen=True)
class SimRankConfig:
    """Frozen bundle of every parameter the paper's algorithms take."""

    c: float = 0.6
    T: int = 11
    r_pair: int = 100
    r_screen: int = 10
    r_alphabeta: int = 10_000
    r_gamma: int = 100
    index_walks: int = 10
    index_checks: int = 5
    k: int = 20
    theta: float = 0.01
    d_max: Optional[int] = None
    candidate_rule: str = "pseudocode"
    fallback_ball_radius: int = 2
    screen_slack: float = 0.3

    def __post_init__(self) -> None:
        check_fraction("c", self.c)
        check_positive_int("T", self.T)
        check_positive_int("r_pair", self.r_pair)
        check_positive_int("r_screen", self.r_screen)
        check_positive_int("r_alphabeta", self.r_alphabeta)
        check_positive_int("r_gamma", self.r_gamma)
        check_positive_int("index_walks", self.index_walks)
        check_positive_int("index_checks", self.index_checks)
        check_positive_int("k", self.k)
        if not 0.0 <= self.theta < 1.0:
            raise ValueError(f"theta must be in [0, 1), got {self.theta}")
        if self.d_max is not None:
            check_positive_int("d_max", self.d_max)
        if self.candidate_rule not in ("text", "pseudocode"):
            raise ValueError(
                f"candidate_rule must be 'text' or 'pseudocode', got {self.candidate_rule!r}"
            )
        if self.fallback_ball_radius < 0:
            raise ValueError(
                f"fallback_ball_radius must be >= 0, got {self.fallback_ball_radius}"
            )
        if not 0.0 <= self.screen_slack <= 1.0:
            raise ValueError(
                f"screen_slack must be in [0, 1], got {self.screen_slack}"
            )

    @property
    def effective_d_max(self) -> int:
        """The distance horizon; the paper sets d_max = T when unspecified."""
        return self.d_max if self.d_max is not None else self.T

    @property
    def truncation_error(self) -> float:
        """Worst-case truncation error ``c^T / (1 - c)`` of eq. (10)."""
        return self.c**self.T / (1.0 - self.c)

    @classmethod
    def paper(cls) -> "SimRankConfig":
        """Exactly the Section 8 parameterisation."""
        return cls()

    @classmethod
    def fast(cls, seed_scale: float = 1.0) -> "SimRankConfig":
        """Scaled-down parameters for tests and laptop-sized experiments.

        Sample counts shrink (Python walk steps are ~10^3× slower than
        the paper's C++), series length stays long enough that
        truncation error < 1e-2 at c = 0.6.
        """
        scale = max(0.1, float(seed_scale))
        return cls(
            T=9,
            r_pair=max(20, int(100 * scale)),
            r_screen=10,
            r_alphabeta=max(200, int(1000 * scale)),
            r_gamma=max(30, int(100 * scale)),
            index_walks=8,
            index_checks=5,
            theta=0.01,
        )

    @classmethod
    def for_accuracy(cls, epsilon: float, delta: float = 0.05) -> "SimRankConfig":
        """Pick T from eq. (10) and R from Corollary 1 for a target accuracy."""
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        base = cls()
        t_needed = math.ceil(math.log(epsilon * (1.0 - base.c)) / math.log(base.c))
        from repro.core.montecarlo import required_samples

        r_needed = required_samples(base.c, n=10**6, T=t_needed, epsilon=epsilon, delta=delta)
        return replace(base, T=max(1, t_needed), r_pair=r_needed)

    def with_(self, **overrides: object) -> "SimRankConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, object]:
        """The full constructor-kwargs form (JSON/pickle safe)."""
        return asdict(self)


# ---------------------------------------------------------------------------
# Tunable metadata (the repro.control contract)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TunableSpec:
    """Bounds and step metadata of one runtime-adjustable parameter.

    The self-tuning controller (:mod:`repro.control`) only ever moves a
    knob by the spec's step — multiplicatively (``mode="mul"``) or
    additively (``mode="add"``) — and clamps every result to
    ``[minimum, maximum]``, so a runaway feedback loop is bounded by
    construction.  ``scope`` says *where* a change takes effect:

    - ``"batcher"`` — applied live inside the serve loop (micro-batch
      size/window);
    - ``"engine"`` — applied live through the engine handle (walk
      budget R, the screen/refine split);
    - ``"index"`` — requires an index rebuild, so only the offline
      ``repro tune`` mode moves it (P/Q of Algorithm 4);
    - ``"flush"`` — applied live to the dynamic-write
      :class:`~repro.core.dynamic.FlushPipeline` (staleness budget and
      backpressure limit).
    """

    name: str
    scope: str  # "batcher" | "engine" | "index" | "flush"
    minimum: float
    maximum: float
    step: float
    mode: str = "mul"  # "mul" (step is a factor > 1) or "add" (an increment)
    integer: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.scope not in ("batcher", "engine", "index", "flush"):
            raise ValueError(f"unknown tunable scope {self.scope!r}")
        if self.mode not in ("mul", "add"):
            raise ValueError(f"unknown tunable step mode {self.mode!r}")
        if self.minimum > self.maximum:
            raise ValueError(
                f"tunable {self.name}: minimum {self.minimum} > maximum {self.maximum}"
            )
        if self.mode == "mul" and self.step <= 1.0:
            raise ValueError(f"tunable {self.name}: mul step must be > 1, got {self.step}")
        if self.mode == "add" and self.step <= 0.0:
            raise ValueError(f"tunable {self.name}: add step must be > 0, got {self.step}")

    def clamp(self, value: float) -> float:
        """``value`` forced into the spec's bounds (and integer grid)."""
        clamped = min(self.maximum, max(self.minimum, float(value)))
        return float(round(clamped)) if self.integer else clamped

    def validate(self, value: float) -> float:
        """``value`` if in bounds, else raise (the apply-path check)."""
        v = float(value)
        if not self.minimum <= v <= self.maximum:
            raise ValueError(
                f"tunable {self.name}: {v} outside [{self.minimum}, {self.maximum}]"
            )
        return float(round(v)) if self.integer else v

    def up(self, value: float) -> float:
        """One step upward from ``value``, clamped."""
        raised = value * self.step if self.mode == "mul" else value + self.step
        if self.integer and round(raised) == round(value):
            raised = value + 1.0
        return self.clamp(raised)

    def down(self, value: float) -> float:
        """One step downward from ``value``, clamped."""
        lowered = value / self.step if self.mode == "mul" else value - self.step
        if self.integer and round(lowered) == round(value):
            lowered = value - 1.0
        return self.clamp(lowered)


#: Every parameter the controller/tuner may move, with validated bounds.
TUNABLES: Dict[str, TunableSpec] = {
    spec.name: spec
    for spec in (
        TunableSpec(
            name="max_batch", scope="batcher", minimum=1, maximum=256,
            step=2.0, mode="mul", integer=True,
            description="top-k requests grouped per micro-batch",
        ),
        TunableSpec(
            name="batch_window", scope="batcher", minimum=0.0005, maximum=0.1,
            step=1.5, mode="mul",
            description="seconds the batcher lingers to fill a batch",
        ),
        TunableSpec(
            name="r_pair", scope="engine", minimum=20, maximum=400,
            step=1.5, mode="mul", integer=True,
            description="refine-stage walk budget R (accuracy vs latency)",
        ),
        TunableSpec(
            name="screen_slack", scope="engine", minimum=0.1, maximum=1.0,
            step=0.1, mode="add",
            description="screen/refine promotion split (screen >= theta*slack refines)",
        ),
        TunableSpec(
            name="index_walks", scope="index", minimum=2, maximum=40,
            step=2.0, mode="add", integer=True,
            description="P of Algorithm 4 (index iterations; rebuild required)",
        ),
        TunableSpec(
            name="index_checks", scope="index", minimum=1, maximum=20,
            step=1.0, mode="add", integer=True,
            description="Q of Algorithm 4 (confirmation walks; rebuild required)",
        ),
        TunableSpec(
            name="flush_max_staleness", scope="flush", minimum=0.01, maximum=5.0,
            step=2.0, mode="mul",
            description="seconds a staged edit may wait before a flush",
        ),
        TunableSpec(
            name="flush_max_pending", scope="flush", minimum=16, maximum=65536,
            step=2.0, mode="mul", integer=True,
            description="staged edits that force a flush and throttle writers",
        ),
    )
}

#: The subset safe to apply to a *live* engine (no index rebuild needed).
ENGINE_TUNABLES = frozenset(
    name for name, spec in TUNABLES.items() if spec.scope == "engine"
)
