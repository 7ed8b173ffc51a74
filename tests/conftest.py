"""Shared fixtures: a threaded mock chat-completion endpoint."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class MockLLMHandler(BaseHTTPRequestHandler):
    """Configurable stand-in for a chat-completion endpoint.

    The serving mode lives on the server instance (``server.mode``):
    echo, tag (``rephrased::`` and the caption, after a pause of 0, 20 or
    40 ms that depends on the caption's length, or HTTP 500 for a caption in
    ``server.failing``), text-field, empty, missing, status-500 (a JSON error
    body with HTTP 500), not-json (a 200 whose body is not JSON), deep (a 200
    whose body is 100,000 ``[`` then 100,000 ``]``), slow (the echo reply
    after a 0.6 s pause) and trickle (the echo reply behind 40 spaces, its
    headers at once and its body one byte every 50 ms, about 5 s in all).
    ``server.peak`` is the most requests
    in progress at once, each counted until its reply is sent.
    """

    fixed_reply = "A steadily climbing, gentle signal."

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        content = request["messages"][0]["content"]
        with self.server.lock:
            self.server.active += 1
            self.server.peak = max(self.server.peak, self.server.active)
        try:
            status, body = self._reply(content)
        finally:
            with self.server.lock:
                self.server.active -= 1
        payload = (body if isinstance(body, str) else json.dumps(body)).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if self.server.mode != "trickle":
            self.wfile.write(payload)
            return
        try:
            for byte in payload:
                self.wfile.write(bytes([byte]))
                time.sleep(0.05)
        except OSError:  # the client gave up and closed the connection
            pass

    def _reply(self, content):
        status = 200
        if self.server.mode == "slow":
            time.sleep(0.6)
        if self.server.mode in ("echo", "slow", "trickle"):
            body = {"choices": [{"message": {"content": self.fixed_reply}}]}
            if self.server.mode == "trickle":
                body = " " * 40 + json.dumps(body)
        elif self.server.mode == "tag":
            caption = content.split("\n", 1)[1]
            time.sleep(0.02 * (len(caption) % 3))
            if caption in self.server.failing:
                status, body = 500, {"error": "internal"}
            else:
                body = {"choices": [{"message": {"content": f"rephrased::{caption}"}}]}
        elif self.server.mode == "text-field":
            body = {"choices": [{"text": self.fixed_reply}]}
        elif self.server.mode == "empty":
            body = {"choices": [{"message": {"content": "   "}}]}
        elif self.server.mode == "status-500":
            status, body = 500, {"error": "internal"}
        elif self.server.mode == "not-json":
            body = "<html>not json</html>"
        elif self.server.mode == "deep":
            body = "[" * 100_000 + "]" * 100_000
        else:  # missing completion field
            body = {"result": "nope"}
        return status, body

    def log_message(self, fmt, *args):
        pass


@pytest.fixture()
def mock_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), MockLLMHandler)
    server.daemon_threads = False  # server_close joins every request's thread
    server.mode = "echo"
    server.failing = set()
    server.lock = threading.Lock()
    server.active = server.peak = 0
    # shutdown() waits for serve_forever to wake from its poll, 0.5 s by default
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02},
                              daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
