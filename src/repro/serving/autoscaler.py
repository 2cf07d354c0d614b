"""Bias-signal autoscaling (paper section 4.2).

"Importantly, the persistent magnitude of this applied bias can be used as a
signal for infrastructure auto-scaling."  The router's tanh bias is only
non-zero while the cluster is genuinely overloaded, so a sustained bias is a
clean scale-up trigger; a sustained zero bias with low utilization is the
scale-down trigger.

:class:`BiasAutoscaler` consumes periodic (bias, utilization) observations
and recommends replica-count changes for the small-model tier (scaling the
cheap tier is how IC-Cache absorbs load).  It is deliberately conservative:
hysteresis on both thresholds plus a cooldown between actions, the standard
guards against oscillation.

Live application: :class:`repro.runtime.sources.AutoscalerTickSource` runs
this control loop on the event clock during a serving run and applies each
:class:`ScalingDecision` through
:meth:`repro.serving.cluster.ClusterSimulator.apply_scaling`, which clamps
scale-ups to the cluster's GPU budget and scale-downs to one replica.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.stats import EMA

# Hysteresis: scale up above the first bias EMA, down below the second
# while the utilization EMA is under the third.
SCALE_UP_BIAS = 0.5
SCALE_DOWN_BIAS = 0.05
SCALE_DOWN_UTILIZATION = 0.3
MAX_STEP = 2                  # replicas one scale-up may add


@dataclass
class ScalingDecision:
    """One autoscaler recommendation."""

    action: str            # "scale_up" | "scale_down" | "hold"
    replicas_delta: int
    bias_ema: float
    utilization_ema: float


class BiasAutoscaler:
    """Hysteresis + cooldown autoscaler over the router's bias signal."""

    def __init__(self, cooldown_steps: int = 10, ema_alpha: float = 0.2) -> None:
        if cooldown_steps < 0:
            raise ValueError(f"cooldown_steps must be >= 0, got {cooldown_steps}")
        self.cooldown_steps = cooldown_steps
        self.bias_ema = EMA(alpha=ema_alpha)
        self.utilization_ema = EMA(alpha=ema_alpha)
        self._cooldown = 0
        self.actions: list[ScalingDecision] = []

    def observe(self, bias: float, utilization: float) -> ScalingDecision:
        """Feed one control-period observation; returns the recommendation."""
        # NaN passes a bare ``< 0`` test and would pin its EMA for good.
        if not (0.0 <= bias < math.inf and 0.0 <= utilization < math.inf):
            raise ValueError("bias and utilization must be finite and "
                             f"non-negative, got {bias!r} and {utilization!r}")
        bias_avg = self.bias_ema.update(bias)
        util_avg = self.utilization_ema.update(utilization)

        if self._cooldown > 0:
            self._cooldown -= 1
            decision = ScalingDecision("hold", 0, bias_avg, util_avg)
        elif bias_avg >= SCALE_UP_BIAS:
            # Sustained overload bias: add capacity proportional to how
            # saturated the signal is, capped by MAX_STEP.
            delta = min(MAX_STEP, 1 + int(bias_avg > 2 * SCALE_UP_BIAS))
            self._cooldown = self.cooldown_steps
            decision = ScalingDecision("scale_up", delta, bias_avg, util_avg)
        elif bias_avg <= SCALE_DOWN_BIAS and util_avg <= SCALE_DOWN_UTILIZATION:
            self._cooldown = self.cooldown_steps
            decision = ScalingDecision("scale_down", -1, bias_avg, util_avg)
        else:
            decision = ScalingDecision("hold", 0, bias_avg, util_avg)
        self.actions.append(decision)
        return decision
