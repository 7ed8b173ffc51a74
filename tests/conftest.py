"""Shared fixtures: a threaded mock chat-completion endpoint."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest


class MockLLMHandler(BaseHTTPRequestHandler):
    """Configurable stand-in for a chat-completion endpoint.

    The serving mode lives on the server instance (``server.mode``):
    echo, tag (deterministic per-request output), text-field, empty, missing,
    status-500 (a JSON error body with HTTP 500), not-json (a 200 whose body
    is not JSON) and slow (the echo reply after a 0.6 s pause).
    """

    fixed_reply = "A steadily climbing, gentle signal."

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        content = request["messages"][0]["content"]
        status = 200
        if self.server.mode == "slow":
            time.sleep(0.6)
        if self.server.mode in ("echo", "slow"):
            body = {"choices": [{"message": {"content": self.fixed_reply}}]}
        elif self.server.mode == "tag":
            caption = content.split("\n", 1)[1]
            time.sleep(0.05 if "alpha" in caption else 0.0)
            body = {"choices": [{"message": {"content": f"rephrased::{caption}"}}]}
        elif self.server.mode == "text-field":
            body = {"choices": [{"text": self.fixed_reply}]}
        elif self.server.mode == "empty":
            body = {"choices": [{"message": {"content": "   "}}]}
        elif self.server.mode == "status-500":
            status, body = 500, {"error": "internal"}
        elif self.server.mode == "not-json":
            body = "<html>not json</html>"
        else:  # missing completion field
            body = {"result": "nope"}
        payload = (body if isinstance(body, str) else json.dumps(body)).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt, *args):
        pass


@pytest.fixture()
def mock_endpoint():
    server = HTTPServer(("127.0.0.1", 0), MockLLMHandler)
    server.mode = "echo"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
