"""Message tests."""

from __future__ import annotations

import math

import pytest

from repro.pubsub.message import Message


def make_message(**kw) -> Message:
    defaults = dict(
        msg_id=1,
        publisher="P1",
        source_broker="B1",
        attributes={"A1": 3.0, "A2": 7.0},
        size_kb=50.0,
        publish_time=1000.0,
    )
    defaults.update(kw)
    return Message(**defaults)


class TestConstruction:
    def test_attributes_frozen(self):
        m = make_message()
        with pytest.raises(TypeError):
            m.attributes["A1"] = 9.9  # type: ignore[index]

    def test_attributes_copied(self):
        attrs = {"A1": 1.0}
        m = make_message(attributes=attrs)
        attrs["A1"] = 2.0
        assert m.attributes["A1"] == 1.0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            make_message(size_kb=0.0)

    def test_invalid_deadline(self):
        with pytest.raises(ValueError):
            make_message(deadline_ms=-5.0)

    def test_nan_size_rejected(self):
        with pytest.raises(ValueError, match="size_kb must be positive"):
            make_message(size_kb=math.nan)

    def test_nan_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_ms must be positive"):
            make_message(deadline_ms=math.nan)


class TestDelayAccounting:
    def test_hdl(self):
        m = make_message(publish_time=1000.0)
        assert m.hdl(1500.0) == 500.0

    def test_expired_with_deadline(self):
        m = make_message(publish_time=0.0, deadline_ms=1000.0)
        assert not m.expired(999.0)
        assert not m.expired(1000.0)  # boundary: exactly on time
        assert m.expired(1000.1)

    def test_never_expires_without_deadline(self):
        m = make_message(deadline_ms=None)
        assert not m.expired(1e15)
