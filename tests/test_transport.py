"""Tests for the queue transport."""

from __future__ import annotations

import threading

import pytest

from repro.errors import RuntimeProtocolError
from repro.runtime.transport import Mailbox


def test_post_take_fifo():
    box = Mailbox("t")
    box.post(1)
    box.post(2)
    assert box.take() == 1
    assert box.take() == 2
    assert box.sent == 2 and box.received == 2


def test_take_timeout():
    box = Mailbox("t")
    with pytest.raises(RuntimeProtocolError, match="no message"):
        box.take(timeout=0.01)


def test_cross_thread_delivery():
    box = Mailbox("t")
    results = []

    def consumer():
        results.append(box.take(timeout=2.0))

    thread = threading.Thread(target=consumer)
    thread.start()
    box.post("hello")
    thread.join(timeout=2.0)
    assert results == ["hello"]


def test_len_reflects_backlog():
    box = Mailbox("t")
    assert len(box) == 0
    box.post("x")
    assert len(box) == 1
