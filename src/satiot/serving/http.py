"""Hand-rolled HTTP/1.1 over asyncio streams (stdlib only).

The serving layer deliberately avoids web-framework dependencies: the
protocol surface it needs is tiny (GET/POST, JSON bodies, a handful of
headers), and the constraint of the study's artifact is that everything
runs from a bare Python + NumPy toolchain.

Supported subset: request line + headers + ``Content-Length`` bodies,
keep-alive (``Connection: close`` honoured), query strings, JSON
responses.  Not supported (rejected cleanly): chunked request bodies,
pipelining beyond sequential keep-alive, TLS.  Limits are enforced while
*reading* (header count/size, body size), so oversized or malformed
input costs at most a bounded read before the 4xx goes out.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from urllib.parse import parse_qsl, urlsplit

__all__ = ["HTTPError", "HTTPRequest", "read_request", "encode_json",
           "json_response", "text_response", "STATUS_PHRASES"]

MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 16384
MAX_HEADERS = 64
MAX_BODY_BYTES = 1_048_576

STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HTTPError(Exception):
    """A protocol-level failure that maps directly to a 4xx/5xx reply."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = message
        self.headers = dict(headers or {})


@dataclass
class HTTPRequest:
    """One parsed request (body already read)."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> dict:
        """Decoded JSON object body (empty body → ``{}``)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HTTPError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise HTTPError(400, "JSON body must be an object")
        return payload

    def params(self) -> Dict[str, str]:
        """Query parameters merged with a JSON body (body wins).

        Lets simple queries be issued straight from ``curl`` query
        strings while programmatic clients POST JSON.
        """
        merged: Dict[str, str] = dict(self.query)
        for key, value in self.json().items():
            merged[str(key)] = value
        return merged


async def _read_line(reader: asyncio.StreamReader, limit: int) -> bytes:
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return b""  # clean EOF between requests
        raise HTTPError(400, "truncated request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HTTPError(413, "request line too long") from exc
    if len(line) > limit:
        raise HTTPError(413, "request line too long")
    return line


async def read_request(reader: asyncio.StreamReader,
                       ) -> Optional[HTTPRequest]:
    """Parse one request off the stream.

    Returns ``None`` on a clean EOF (client closed between requests);
    raises :class:`HTTPError` on malformed/oversized input and lets
    connection-level ``OSError``/``IncompleteReadError`` propagate for
    the server to swallow.
    """
    line = await _read_line(reader, MAX_REQUEST_LINE)
    if not line:
        return None
    try:
        method, target, version = line.decode("ascii").split()
    except (UnicodeDecodeError, ValueError) as exc:
        raise HTTPError(400, "malformed request line") from exc
    if not version.startswith("HTTP/1."):
        raise HTTPError(400, f"unsupported protocol {version}")

    headers: Dict[str, str] = {}
    total_header_bytes = 0
    while True:
        raw = await _read_line(reader, MAX_HEADER_BYTES)
        if raw in (b"\r\n", b""):
            break
        total_header_bytes += len(raw)
        if len(headers) >= MAX_HEADERS or \
                total_header_bytes > MAX_HEADER_BYTES:
            raise HTTPError(413, "too many headers")
        try:
            name, _, value = raw.decode("latin-1").partition(":")
        except UnicodeDecodeError as exc:  # pragma: no cover
            raise HTTPError(400, "malformed header") from exc
        if not _:
            raise HTTPError(400, "malformed header")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HTTPError(400, "chunked request bodies not supported")
    body = b""
    length_header = headers.get("content-length", "0")
    try:
        content_length = int(length_header)
    except ValueError as exc:
        raise HTTPError(400, "invalid Content-Length") from exc
    if content_length < 0:
        raise HTTPError(400, "invalid Content-Length")
    if content_length > MAX_BODY_BYTES:
        raise HTTPError(413, "request body too large")
    if content_length:
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError as exc:
            raise HTTPError(400, "truncated request body") from exc

    split = urlsplit(target)
    query = {key: value
             for key, value in parse_qsl(split.query,
                                         keep_blank_values=True)}
    return HTTPRequest(method=method.upper(), path=split.path or "/",
                       query=query, headers=headers, body=body)


def _response(status: int, body: bytes, content_type: str,
              extra_headers: Optional[Dict[str, str]] = None,
              keep_alive: bool = True) -> bytes:
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body


def encode_json(payload: object) -> bytes:
    """The compact, strict (no NaN) UTF-8 JSON body of a response."""
    return json.dumps(payload, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def json_response(status: int, payload: object,
                  extra_headers: Optional[Dict[str, str]] = None,
                  keep_alive: bool = True) -> bytes:
    """Frame ``payload`` as a JSON response; ``bytes`` are a body
    :func:`encode_json` already produced and are sent as they are."""
    body = payload if isinstance(payload, bytes) else encode_json(payload)
    return _response(status, body, "application/json",
                     extra_headers, keep_alive)


def text_response(status: int, text: str,
                  extra_headers: Optional[Dict[str, str]] = None,
                  keep_alive: bool = True) -> bytes:
    return _response(status, text.encode("utf-8"),
                     "text/plain; charset=utf-8",
                     extra_headers, keep_alive)
