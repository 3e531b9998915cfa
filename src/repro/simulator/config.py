"""Simulation parameters (Table II of the paper).

Epochs are 1 second long, matching the paper ("data interpretation is
performed in every epoch (whose length is 1 second)"), so all durations and
periods below are expressed in epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters for one warehouse run.

    Defaults reproduce the accuracy-experiment workload of Section VI-B:
    6 pallets injected per hour, 5 cases per pallet, 20 items per case,
    1-hour average shelving period, read rate 0.85, shelf readers once per
    minute, 3-hour simulation.

    Attributes:
        duration: Total simulated epochs (paper: 3–24 hours).
        pallet_period: Epochs between pallet arrivals (paper: 1/4–600 s).
        cases_per_pallet_min / cases_per_pallet_max: Uniform range for the
            number of cases on each arriving (and each re-assembled) pallet
            (paper: 5–8; accuracy experiments use exactly 5).
        items_per_case: Items inside every case (paper: 20).
        read_rate: Per-tag detection probability per interrogation, applied
            to every reader unless overridden (paper: 0.5–1).
        read_rate_overrides: Per-location-kind read-rate overrides as
            ``((kind_name, rate), ...)`` pairs, e.g.
            ``(("belt", 0.99), ("shelf", 0.7))``.  Real deployments mix
            reader qualities (§VI-D suggests picking the compression level
            per reader accuracy); this knob also enables the
            confirmation-value ablation (belt rate 0 disables special-reader
            confirmations entirely).
        burst_mean_length: When positive, read losses are *correlated* via a
            per-(reader, tag) Gilbert–Elliott channel with this mean burst
            length (in interrogations) instead of i.i.d. coin flips, while
            keeping each reader's configured average read rate.  Models the
            persistent occlusion/contention losses of the paper's refs
            [10]/[11]; ``0`` keeps the standard i.i.d. model.
        shelf_read_period: Epochs between shelf-reader interrogations
            (paper: 1 s to 1 min).
        non_shelf_read_period: Epochs between interrogations of all other
            readers (paper: 2/sec; with 1 s epochs that is every epoch).
        num_shelves: Number of shelf locations; cases are assigned to
            shelves round-robin, so more shelves means fewer co-located
            cases and less containment-inference noise.
        shelving_time_mean: Mean shelf dwell in epochs (paper: 1 hour).
        shelving_time_jitter: Half-width of the uniform jitter applied
            around the mean dwell.
        dock_dwell: Epochs a pallet sits at the entry door before unpacking.
        belt_dwell: Epochs each case (or re-assembled pallet) spends under a
            belt reader; belts serve one container at a time (singulation).
        packaging_dwell: Minimum epochs cases spend in the packaging area
            before they can be assembled onto a new pallet.
        anomaly_period: Epochs between unexpected object removals
            (Section VI-B Expt 4 uses 100); ``0`` disables anomalies.
        fall_off_probability: Probability that one item falls off its case
            while the case is scanned on the receiving belt and stays
            behind — the paper's running example (Fig. 1, item 6 at t=3).
            ``0`` (the default) disables fall-offs.
        lost_item_timeout: Epochs a fallen item lies at the belt before
            staff take it to the exit door (proper disposal).
        seed: Seed for the run's random generator.
    """

    duration: int = 3 * 3600
    pallet_period: int = 600
    cases_per_pallet_min: int = 5
    cases_per_pallet_max: int = 5
    items_per_case: int = 20
    read_rate: float = 0.85
    shelf_read_period: int = 60
    non_shelf_read_period: int = 1
    num_shelves: int = 4
    shelving_time_mean: int = 3600
    shelving_time_jitter: int = 600
    dock_dwell: int = 5
    belt_dwell: int = 2
    packaging_dwell: int = 10
    anomaly_period: int = 0
    fall_off_probability: float = 0.0
    lost_item_timeout: int = 60
    read_rate_overrides: tuple[tuple[str, float], ...] = ()
    burst_mean_length: float = 0.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValueError("duration must be at least 1 epoch")
        if self.pallet_period < 1:
            raise ValueError("pallet_period must be at least 1 epoch")
        if not 1 <= self.cases_per_pallet_min <= self.cases_per_pallet_max:
            raise ValueError(
                "cases_per_pallet range must satisfy 1 <= min <= max, got "
                f"[{self.cases_per_pallet_min}, {self.cases_per_pallet_max}]"
            )
        if self.items_per_case < 0:
            raise ValueError("items_per_case must be non-negative")
        if not 0.0 <= self.read_rate <= 1.0:
            raise ValueError(f"read_rate must be in [0, 1], got {self.read_rate}")
        for name in ("shelf_read_period", "non_shelf_read_period", "num_shelves"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("dock_dwell", "belt_dwell", "packaging_dwell"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1 epoch")
        if self.shelving_time_mean < 1:
            raise ValueError("shelving_time_mean must be at least 1 epoch")
        if self.shelving_time_jitter < 0:
            raise ValueError("shelving_time_jitter must be non-negative")
        if self.anomaly_period < 0:
            raise ValueError("anomaly_period must be non-negative (0 disables)")
        if not 0.0 <= self.fall_off_probability <= 1.0:
            raise ValueError(
                f"fall_off_probability must be in [0, 1], got {self.fall_off_probability}"
            )
        if self.lost_item_timeout < 1:
            raise ValueError("lost_item_timeout must be at least 1 epoch")
        if self.burst_mean_length < 0 or (0 < self.burst_mean_length < 1):
            raise ValueError(
                "burst_mean_length must be 0 (i.i.d. losses) or >= 1 interrogation, "
                f"got {self.burst_mean_length}"
            )
        from repro.model.locations import LocationKind

        # normalise JSON-deserialised lists back into hashable tuples
        object.__setattr__(
            self,
            "read_rate_overrides",
            tuple((str(k), float(r)) for k, r in self.read_rate_overrides),
        )
        valid_kinds = {kind.value for kind in LocationKind}
        for kind_name, rate in self.read_rate_overrides:
            if kind_name not in valid_kinds:
                raise ValueError(
                    f"unknown location kind {kind_name!r} in read_rate_overrides "
                    f"(expected one of {sorted(valid_kinds)})"
                )
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"read-rate override for {kind_name!r} must be in [0, 1], got {rate}"
                )

    @property
    def objects_per_pallet_max(self) -> int:
        """Upper bound on objects one arriving pallet brings into the world."""
        return 1 + self.cases_per_pallet_max * (1 + self.items_per_case)

    def read_rate_for(self, kind) -> float:
        """Read rate for a location kind, honouring overrides."""
        for kind_name, rate in self.read_rate_overrides:
            if kind_name == kind.value:
                return rate
        return self.read_rate
