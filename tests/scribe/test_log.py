"""CommandLog: ordered append, retention horizon, offline reads."""

import pytest

from repro.scribe import CommandLog, RetentionError, ScribeBus


def test_append_returns_sequence_numbers():
    log = CommandLog("t")
    assert log.append("a") == 0
    assert log.append("b") == 1
    assert log.head_index == 2
    assert len(log) == 2
    assert log.read_from(0) == [(0, "a"), (1, "b")]


def test_read_from_middle_and_head():
    log = CommandLog("t")
    for payload in "abcd":
        log.append(payload)
    assert log.read_from(2) == [(2, "c"), (3, "d")]
    assert log.read_from(4) == []          # at the head: nothing new


def test_retention_drops_oldest_and_raises_below_horizon():
    log = CommandLog("t", retention=2)
    for payload in "abcd":
        log.append(payload)
    assert log.first_index == 2
    assert log.head_index == 4
    assert log.read_from(2) == [(2, "c"), (3, "d")]
    with pytest.raises(RetentionError):
        log.read_from(1)


def test_trim_advances_horizon():
    log = CommandLog("t")
    for payload in "abcd":
        log.append(payload)
    assert log.trim(3) == 3
    assert log.first_index == 3
    assert log.read_from(3) == [(3, "d")]
    with pytest.raises(RetentionError):
        log.read_from(0)
    # Indexes never regress: trimming behind the horizon is a no-op.
    assert log.trim(1) == 0
    assert log.first_index == 3


def test_offline_log_reads_nothing_but_keeps_appends():
    log = CommandLog("t")
    log.append("a")
    log.online = False
    assert log.read_from(0) == []
    log.append("b")                        # producers keep buffering
    log.online = True
    assert log.read_from(0) == [(0, "a"), (1, "b")]


def test_bus_log_registry():
    bus = ScribeBus()
    log = bus.create_log("cmds")
    assert bus.logs["cmds"] is log
    assert bus.ensure_log("cmds") is log
    with pytest.raises(Exception):
        bus.create_log("cmds")
    # Logs and categories are separate namespaces.
    bus.ensure_category("cmds", 4)
    assert bus.get_category("cmds") is not log
