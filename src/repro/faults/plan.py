"""The fault plan: a frozen, picklable schedule of injected failures.

A :class:`FaultPlan` is pure configuration — it carries its own seed and
the rates of each failure mode, and every concrete fault decision is
derived from keyed hashing over ``(plan.seed, kind, identity...)``.
That gives the two properties the campaign's determinism tests demand:

* the same plan replays byte-identical faults in any process and for
  any shard count (no fault decision depends on iteration order), and
* a zero-rate plan is indistinguishable from no plan at all — campaigns
  take a fast path that never touches the fault code, so corpora stay
  byte-identical to a fault-free build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["FaultPlan"]

#: Default monitoring cadence of the score model (the real pool probes
#: each member roughly every 20 minutes).
MONITOR_INTERVAL = 1200.0

#: Default score dynamics, mirroring pool.ntp.org's published behaviour:
#: a reachable sample earns +1 up to a cap of 20, an unreachable sample
#: costs 5, and a member is handed out by the DNS rotation only while
#: its score is at or above 10.
SCORE_CAP = 20.0
JOIN_THRESHOLD = 10.0
REACH_GAIN = 1.0
UNREACH_PENALTY = 5.0


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1]: {value}")


@dataclass(frozen=True)
class FaultPlan:
    """Everything the injector needs to schedule faults, as one value.

    Parameters
    ----------
    seed:
        Root of all fault randomness.  Independent of the campaign seed,
        so the same world can be re-run under different fault histories.
    vantage_flap_rate:
        Per-vantage, per-day probability that a reachability incident
        (VPS reboot, network blip) begins that day.
    outage_duration:
        Mean incident length in seconds (drawn exponentially).
    packet_loss:
        Base probability that a captured query's datagram is lost
        before it reaches the vantage.
    country_loss:
        Per-country overrides of ``packet_loss``, as a sorted tuple of
        ``(country, rate)`` pairs (a tuple keeps the plan hashable and
        picklable).
    corruption_rate:
        Probability that a delivered datagram is corrupted in flight
        (truncated or bit-flipped) before the vantage parses it.
    segment_write_failure_rate:
        Probability that one attempt to seal a corpus segment file
        fails (disk hiccup); the segment writer retries with a fresh
        keyed decision, so the durability path is exercised without
        ever changing what the corpus contains.
    monitor_interval / score_cap / join_threshold / reach_gain /
    unreach_penalty:
        The pool-monitor score model (see :mod:`repro.faults.monitor`).
    """

    seed: int = 0
    vantage_flap_rate: float = 0.0
    outage_duration: float = 3600.0
    packet_loss: float = 0.0
    country_loss: Tuple[Tuple[str, float], ...] = ()
    corruption_rate: float = 0.0
    segment_write_failure_rate: float = 0.0
    monitor_interval: float = MONITOR_INTERVAL
    score_cap: float = SCORE_CAP
    join_threshold: float = JOIN_THRESHOLD
    reach_gain: float = REACH_GAIN
    unreach_penalty: float = UNREACH_PENALTY

    def __post_init__(self) -> None:
        _check_rate("vantage_flap_rate", self.vantage_flap_rate)
        _check_rate("packet_loss", self.packet_loss)
        _check_rate("corruption_rate", self.corruption_rate)
        _check_rate(
            "segment_write_failure_rate", self.segment_write_failure_rate
        )
        if self.outage_duration <= 0:
            raise ValueError(
                f"outage_duration must be positive: {self.outage_duration}"
            )
        if self.monitor_interval <= 0:
            raise ValueError(
                f"monitor_interval must be positive: {self.monitor_interval}"
            )
        if self.reach_gain <= 0 or self.unreach_penalty <= 0:
            raise ValueError("score gain and penalty must be positive")
        if not self.join_threshold <= self.score_cap:
            raise ValueError(
                f"join_threshold {self.join_threshold} above score cap "
                f"{self.score_cap}: no vantage could ever join"
            )
        normalized = []
        for country, rate in self.country_loss:
            if len(country) != 2 or not country.isupper():
                raise ValueError(
                    f"country override must be ISO alpha-2: {country!r}"
                )
            _check_rate(f"country_loss[{country}]", rate)
            normalized.append((country, rate))
        # Canonical order so equal plans compare (and pickle) equal.
        object.__setattr__(
            self, "country_loss", tuple(sorted(normalized))
        )

    @classmethod
    def none(cls) -> "FaultPlan":
        """The zero-fault plan: campaigns treat it exactly like no plan."""
        return cls()

    @property
    def is_zero(self) -> bool:
        """True when no failure mode can ever fire."""
        return (
            self.vantage_flap_rate == 0.0
            and self.packet_loss == 0.0
            and self.corruption_rate == 0.0
            and self.segment_write_failure_rate == 0.0
            and all(rate == 0.0 for _, rate in self.country_loss)
        )

    def loss_for(self, country: str) -> float:
        """Packet-loss probability for clients in ``country``."""
        for override, rate in self.country_loss:
            if override == country:
                return rate
        return self.packet_loss

    # -- CLI spec ----------------------------------------------------------------

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        """Build a plan from a ``key=value,...`` CLI spec.

        Keys: ``seed`` (int), ``flap`` (per-day incident probability),
        ``outage`` (mean seconds), ``loss`` (base loss rate),
        ``loss.CC`` (per-country override), ``corrupt`` (corruption
        rate), ``segfail`` (segment write-failure rate), ``monitor``
        (score-sample interval seconds).  An empty or missing spec is
        the zero plan.  A key given twice is an error (never silent
        last-write-wins), and a malformed value names both the
        offending token and its 1-based position in the spec.

        >>> FaultPlan.parse("flap=0.2,loss=0.05,loss.BR=0.3,seed=9").seed
        9
        """
        if spec is None or not spec.strip():
            return cls.none()
        fields: Dict[str, object] = {}
        overrides = []
        seen: Dict[str, int] = {}
        for position, part in enumerate(spec.split(","), 1):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad fault spec item (want key=value): {part!r}"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            canonical = (
                f"loss.{key[len('loss.'):].upper()}"
                if key.startswith("loss.")
                else key
            )
            if canonical in seen:
                raise ValueError(
                    f"duplicate fault spec key {canonical!r} at item "
                    f"{position} (first given at item {seen[canonical]})"
                )
            try:
                if key == "seed":
                    fields["seed"] = int(raw)
                elif key == "flap":
                    fields["vantage_flap_rate"] = float(raw)
                elif key == "outage":
                    fields["outage_duration"] = float(raw)
                elif key == "loss":
                    fields["packet_loss"] = float(raw)
                elif key == "corrupt":
                    fields["corruption_rate"] = float(raw)
                elif key == "segfail":
                    fields["segment_write_failure_rate"] = float(raw)
                elif key == "monitor":
                    fields["monitor_interval"] = float(raw)
                elif key.startswith("loss."):
                    overrides.append((key[len("loss."):].upper(), float(raw)))
                else:
                    raise ValueError(f"unknown fault spec key: {key!r}")
            except ValueError as error:
                # Re-raise structural failures with their own context.
                if "fault spec" in str(error):
                    raise
                raise ValueError(
                    f"bad fault spec value for {key!r} at item "
                    f"{position}: {raw!r}"
                ) from error
            seen[canonical] = position
        if overrides:
            fields["country_loss"] = tuple(overrides)
        return cls(**fields)  # type: ignore[arg-type]

    def spec(self) -> str:
        """The CLI spec that parses back into this plan (non-defaults only)."""
        parts = []
        if self.seed:
            parts.append(f"seed={self.seed}")
        if self.vantage_flap_rate:
            parts.append(f"flap={self.vantage_flap_rate}")
        if self.outage_duration != 3600.0:
            parts.append(f"outage={self.outage_duration}")
        if self.packet_loss:
            parts.append(f"loss={self.packet_loss}")
        for country, rate in self.country_loss:
            parts.append(f"loss.{country}={rate}")
        if self.corruption_rate:
            parts.append(f"corrupt={self.corruption_rate}")
        if self.segment_write_failure_rate:
            parts.append(f"segfail={self.segment_write_failure_rate}")
        if self.monitor_interval != MONITOR_INTERVAL:
            parts.append(f"monitor={self.monitor_interval}")
        return ",".join(parts)
