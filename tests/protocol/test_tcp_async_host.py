"""The TCP suite against a host that serialises each connection.

This module re-collects ``test_tcp.py`` with its ``TcpServerHost``
name rebound to a host built with ``max_inflight_per_conn=1``: the same
tests and assertions against the tightest per-connection pipeline, where
every later frame waits unread in the socket (backpressure) until the
request before it is answered.

Two tests are not re-collected.  Each stalls one request past the
client timeout and expects the retransmit to be answered first; a
retransmit goes out under a fresh tag on the same connection, so on this
host it waits behind the stalled request.
"""

import importlib.util
import os

import pytest

from repro.protocol.host import TcpServerHost

pytestmark = pytest.mark.socket

_PATH = os.path.join(os.path.dirname(__file__), "test_tcp.py")
_SPEC = importlib.util.spec_from_file_location("repro_tcp_suite_rerun", _PATH)
tcp_suite = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tcp_suite)


class _SerialConnHost(TcpServerHost):
    """The host with one in-flight request per connection."""

    def __init__(self, backend, *args, max_inflight_per_conn=1, **kwargs):
        super().__init__(backend, *args,
                         max_inflight_per_conn=max_inflight_per_conn,
                         **kwargs)


@pytest.fixture(autouse=True)
def _use_serial_conn_host(monkeypatch):
    """Rebind the suite's host class to the serialising configuration."""
    monkeypatch.setattr(tcp_suite, "TcpServerHost", _SerialConnHost)


def test_rebound_host_admits_one_request_per_connection(hosted_server):
    _server, host = hosted_server
    assert isinstance(host, _SerialConnHost)
    assert host.max_inflight_per_conn == 1


# Re-export every test (and the fixtures they use) for collection here.
# The functions keep ``tcp_suite`` as their globals, so the autouse
# monkeypatch above swaps the host they construct.
hosted_server = tcp_suite.hosted_server

_WAIT_BEHIND_THE_STALL = {"test_timed_out_request_never_desyncs_the_stream",
                          "test_timeout_is_retried_transparently"}

for _name in dir(tcp_suite):
    if _name.startswith("test_") and _name not in _WAIT_BEHIND_THE_STALL:
        globals()[_name] = getattr(tcp_suite, _name)
del _name
