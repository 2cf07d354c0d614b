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


@dataclass
class ScalingDecision:
    """One autoscaler recommendation."""

    action: str            # "scale_up" | "scale_down" | "hold"
    replicas_delta: int
    bias_ema: float
    utilization_ema: float


class BiasAutoscaler:
    """Hysteresis + cooldown autoscaler over the router's bias signal."""

    def __init__(self, scale_up_bias: float = 0.5, scale_down_bias: float = 0.05,
                 scale_down_utilization: float = 0.3, cooldown_steps: int = 10,
                 ema_alpha: float = 0.2, max_step: int = 2) -> None:
        if scale_down_bias >= scale_up_bias:
            raise ValueError(
                "hysteresis requires scale_down_bias < scale_up_bias, got "
                f"{scale_down_bias} >= {scale_up_bias}"
            )
        if cooldown_steps < 0 or max_step < 1:
            raise ValueError("cooldown_steps must be >= 0 and max_step >= 1")
        self.scale_up_bias = scale_up_bias
        self.scale_down_bias = scale_down_bias
        self.scale_down_utilization = scale_down_utilization
        self.cooldown_steps = cooldown_steps
        self.max_step = max_step
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
        elif bias_avg >= self.scale_up_bias:
            # Sustained overload bias: add capacity proportional to how
            # saturated the signal is, capped by max_step.
            delta = min(self.max_step,
                        1 + int(bias_avg > 2 * self.scale_up_bias))
            self._cooldown = self.cooldown_steps
            decision = ScalingDecision("scale_up", delta, bias_avg, util_avg)
        elif (bias_avg <= self.scale_down_bias
              and util_avg <= self.scale_down_utilization):
            self._cooldown = self.cooldown_steps
            decision = ScalingDecision("scale_down", -1, bias_avg, util_avg)
        else:
            decision = ScalingDecision("hold", 0, bias_avg, util_avg)
        self.actions.append(decision)
        return decision
