"""Published messages."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping


@dataclass(frozen=True)
class Message:
    """An immutable published message.

    ``deadline_ms`` is the publisher-specified allowed delay (PSD scenario);
    ``None`` when only subscribers constrain delivery (SSD scenario).  Delay
    accounting is relative to ``publish_time`` (simulated ms), i.e. the
    paper's ``hdl(m) = now − publish_time``.
    """

    msg_id: int
    publisher: str
    source_broker: str
    attributes: Mapping[str, float]
    size_kb: float
    publish_time: float
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if not self.size_kb > 0.0:  # NaN too
            raise ValueError(f"size_kb must be positive, got {self.size_kb}")
        if self.deadline_ms is not None and not self.deadline_ms > 0.0:
            raise ValueError(f"deadline_ms must be positive, got {self.deadline_ms}")
        # Freeze the attribute mapping so messages are safely shared between
        # queue copies on different brokers.
        object.__setattr__(self, "attributes", MappingProxyType(dict(self.attributes)))

    def __getstate__(self) -> dict:
        """MappingProxyType is unpicklable; ship a plain dict and rebuild
        the read-only proxy on restore.  The filter verdicts a
        :class:`~repro.pubsub.matching.FilterIndex` cached here are
        dropped: they are recomputed on demand."""
        state = self.__dict__.copy()
        state["attributes"] = dict(self.attributes)
        state.pop("_verdicts", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        object.__setattr__(self, "attributes", MappingProxyType(self.__dict__["attributes"]))

    def hdl(self, now: float) -> float:
        """Delay already incurred (``hdl(m)`` in Section 5.1)."""
        return now - self.publish_time

    def expired(self, now: float) -> bool:
        """True iff the publisher-specified deadline has passed."""
        return self.deadline_ms is not None and self.hdl(now) > self.deadline_ms

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        attrs = ", ".join(f"{k}={v:g}" for k, v in sorted(self.attributes.items()))
        return f"m{self.msg_id}[{attrs}] from {self.publisher}"
