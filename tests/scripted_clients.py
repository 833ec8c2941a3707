"""Deterministic clients that tests script: fixed scores, replies from a
function, and an agent replaying a list of responses; and stand-ins for what
``urllib.request.urlopen`` does."""
from __future__ import annotations

import http.client
from typing import Callable, Sequence

from pipecraft.clients import AgentClient, ClientError, ModelClient


class ConstantScorer(ModelClient):
    """Scores every sample identically; selection then keeps by position."""

    role = "scorer"

    def __init__(self, value: float = 0.5) -> None:
        super().__init__()
        self.value = value

    def _do_complete(self, request: dict) -> dict:
        return {"score": self.value, "status": "ok"}


class ScriptedModelClient(ModelClient):
    """Client whose replies come from a user-supplied function."""

    def __init__(self, role: str, fn: Callable[[dict], dict]) -> None:
        super().__init__()
        self.role = role
        self._fn = fn

    def _do_complete(self, request: dict) -> dict:
        return self._fn(request)


class ScriptedAgent(AgentClient):
    """Agent replaying a fixed sequence of responses; ``messages`` keeps a
    copy of the conversation each call received."""

    def __init__(self, responses: Sequence[str]) -> None:
        self._responses = list(responses)
        self.calls = 0
        self.messages: list[list[dict[str, str]]] = []

    def complete(self, messages: list[dict[str, str]], temperature: float, seed: int) -> str:
        self.messages.append([dict(message) for message in messages])
        if self.calls >= len(self._responses):
            raise ClientError("scripted agent ran out of responses")
        response = self._responses[self.calls]
        self.calls += 1
        return response


class CannedResponse:
    """Stands in for what ``urllib.request.urlopen`` returns: a context
    manager whose ``read`` gives a fixed body."""

    def __init__(self, body: bytes) -> None:
        self.body = body

    def __enter__(self) -> "CannedResponse":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def read(self) -> bytes:
        return self.body


class CutShortResponse(CannedResponse):
    """A :class:`CannedResponse` whose body ends before the length its
    headers declared, as ``http.client`` reports it."""

    def read(self) -> bytes:
        raise http.client.IncompleteRead(self.body, 64)


def answer_not_in_http(request, timeout):
    """Stands in for ``urllib.request.urlopen`` reaching a server that does
    not answer in HTTP."""
    raise http.client.BadStatusLine("garbage")


def open_without_connecting(request, timeout):
    """Stands in for ``urllib.request.urlopen`` up to where it would connect:
    it parses the request's host and port into a connection object."""
    http.client.HTTPConnection(request.host, timeout=timeout)
    raise AssertionError(f"{request.full_url} would be connected to")
