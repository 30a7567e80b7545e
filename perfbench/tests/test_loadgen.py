"""The open-loop driver times each request from when it was due."""

import http.server
import threading
import time

import pytest

import loadgen

SERVICE_S = 0.08


class _SlowHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 (http.server naming)
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(SERVICE_S)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd.server_address
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_open_loop_charges_the_wait_for_a_busy_connection(server):
    host, port = server
    client = loadgen.Client(host, port)
    try:
        # Both requests are due at once, but one connection serves them
        # in turn: the second is sent one service time late, and its
        # latency from the due time includes that wait.
        samples = loadgen.open_loop(
            [client], [0.0, 0.0], lambda i: (f"m-{i}", b"{}"),
            start=loadgen.now() + 0.02)
    finally:
        client.close()
    first, second = samples
    assert first.late < SERVICE_S / 2
    assert second.late >= SERVICE_S * 0.9
    assert second.latency >= 2 * SERVICE_S * 0.9
    assert second.latency == pytest.approx(second.done - second.due)
    assert second.latency - (second.done - second.sent) == pytest.approx(
        second.late, abs=1e-3)
