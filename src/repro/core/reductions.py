"""The unified state-space reduction configuration.

One frozen :class:`ReductionConfig` names the two exactness-preserving
reductions of the zone engine, under the same canonical field names
everywhere a reduction can be switched -- :class:`~repro.core.reachability.
SearchOptions`, :class:`~repro.arch.analysis.TimedAutomataSettings`,
:class:`~repro.portfolio.anytime.PortfolioBudget`,
:class:`~repro.sweep.cells.SweepCell` settings, the ``repro-sweep`` /
``repro-diffcheck`` ``--reductions`` flags and the serve ``/analyze``
request schema:

* ``lu_extrapolation`` -- per-clock lower/upper-bound (LU) zone
  extrapolation instead of the single maximal-constant grid;
* ``symmetry`` -- canonicalisation of discrete keys under verified
  automorphisms of replicated architecture units.

Every reduction defaults *on with fallback*: an enabled reduction degrades
to the unreduced behaviour whenever its soundness preconditions do not hold
(e.g. LU extrapolation and symmetry fall back when traces are recorded for
witness concretisation, symmetry is inert when the compiled network carries
no verified automorphism).  ``docs/reductions.md`` states the soundness
argument of each reduction and the exact fallback rules.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.util.errors import ModelError

__all__ = ["REDUCTION_FIELDS", "ReductionConfig"]

#: canonical reduction names, in the order they are documented
REDUCTION_FIELDS = ("lu_extrapolation", "symmetry")


@dataclass(frozen=True)
class ReductionConfig:
    """Which state-space reductions the exploration may apply.

    Frozen and primitives-only, so a config crosses process (spawn) and
    JSON (serve) boundaries unchanged and can ride inside frozen settings
    dataclasses.
    """

    #: per-clock lower/upper-bound zone extrapolation (Extra_LU); falls back
    #: to maximal-constant extrapolation when traces are recorded
    lu_extrapolation: bool = True
    #: discrete-key canonicalisation under verified replication
    #: automorphisms; falls back to identity when traces are recorded or the
    #: network carries no symmetry specification
    symmetry: bool = True

    def __post_init__(self):
        for name in REDUCTION_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise ModelError(f"reduction flag {name!r} must be a bool")

    @property
    def any_enabled(self) -> bool:
        return any(getattr(self, name) for name in REDUCTION_FIELDS)

    @classmethod
    def none(cls) -> "ReductionConfig":
        """The unreduced configuration (every reduction off)."""
        return cls(**{name: False for name in REDUCTION_FIELDS})

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in REDUCTION_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "ReductionConfig":
        if not isinstance(data, dict):
            raise ModelError("reductions must be an object of boolean flags")
        unknown = sorted(set(data) - set(REDUCTION_FIELDS))
        if unknown:
            raise ModelError(
                f"unknown reduction(s): {', '.join(unknown)} "
                f"(expected {', '.join(REDUCTION_FIELDS)})"
            )
        return cls(**{name: bool(value) for name, value in data.items()})

    @classmethod
    def parse(cls, spec: "str | dict | ReductionConfig | None") -> "ReductionConfig":
        """Parse any of the accepted reduction specifications.

        ``None`` and ``"all"`` mean every reduction on, ``"none"`` means the
        unreduced configuration, a comma-separated string of canonical names
        (``"lu_extrapolation"``) enables exactly those, a dict maps
        canonical names to booleans, and an existing config passes through.
        """
        if spec is None:
            return cls()
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, dict):
            return cls.from_dict(spec)
        if not isinstance(spec, str):
            raise ModelError(f"cannot parse reductions from {type(spec).__name__}")
        text = spec.strip().lower()
        if text in ("all", ""):
            return cls()
        if text == "none":
            return cls.none()
        names = [part.strip() for part in text.split(",") if part.strip()]
        unknown = sorted(set(names) - set(REDUCTION_FIELDS))
        if unknown:
            raise ModelError(
                f"unknown reduction(s): {', '.join(unknown)} "
                f"(expected {', '.join(REDUCTION_FIELDS)}, 'all' or 'none')"
            )
        return cls(**{name: name in names for name in REDUCTION_FIELDS})

    def spec(self) -> str:
        """The canonical ``--reductions`` string of this config."""
        enabled = [name for name in REDUCTION_FIELDS if getattr(self, name)]
        if len(enabled) == len(REDUCTION_FIELDS):
            return "all"
        if not enabled:
            return "none"
        return ",".join(enabled)


# keep REDUCTION_FIELDS and the dataclass fields in lockstep
assert REDUCTION_FIELDS == tuple(f.name for f in fields(ReductionConfig))
