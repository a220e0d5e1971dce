"""A minimal client for the relb service wire protocol (docs/service.md).

Frames are ``<decimal length>\\n<payload>\\n``; payloads are JSON envelopes
``{"format": "relb-request", "version": 1, "id": N, "kind": ...}``.  The
server answers requests on one connection in order, one at a time, so a
connection carries at most one request in flight.
"""

import json
import socket

PROTOCOL_VERSION = 1


def encode_frame(payload: bytes) -> bytes:
    return str(len(payload)).encode() + b"\n" + payload + b"\n"


class FrameReader:
    """Incremental frame decoder over a byte stream."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf += data

    def next(self):
        """The next complete payload, or None when more bytes are needed."""
        nl = self._buf.find(b"\n")
        if nl < 0:
            if len(self._buf) > 8:
                raise ValueError("frame header too long")
            return None
        header = bytes(self._buf[:nl])
        if not header.isdigit() or len(header) > 8:
            raise ValueError("bad frame header %r" % header[:16])
        length = int(header)
        end = nl + 1 + length
        if len(self._buf) < end + 1:
            return None
        if self._buf[end] != ord("\n"):
            raise ValueError("frame payload not terminated by newline")
        payload = bytes(self._buf[nl + 1:end])
        del self._buf[:end + 1]
        return payload


def problem_request(req_id, node, edge, max_steps):
    return {"format": "relb-request", "version": PROTOCOL_VERSION, "id": req_id,
            "kind": "problem", "node": node, "edge": edge, "max_steps": max_steps}


def chain_request(req_id, delta):
    """A chain request that ships its certificate bytes."""
    return {"format": "relb-request", "version": PROTOCOL_VERSION, "id": req_id,
            "kind": "chain", "delta": delta, "x0": 1, "certificate": True}


class Connection:
    """One blocking unix-socket connection to relb_served."""

    def __init__(self, path, timeout_s):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout_s)
        self._sock.connect(path)
        self._reader = FrameReader()

    def send(self, request) -> None:
        payload = json.dumps(request, separators=(",", ":")).encode()
        self._sock.sendall(encode_frame(payload))

    def receive(self):
        """Blocks for the next response envelope; raises on EOF."""
        while True:
            payload = self._reader.next()
            if payload is not None:
                response = json.loads(payload)
                if response.get("format") != "relb-response":
                    raise ValueError("not a relb-response envelope")
                return response
            data = self._sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            self._reader.feed(data)

    def round_trip(self, request):
        self.send(request)
        return self.receive()

    def close(self) -> None:
        self._sock.close()
