"""Length-prefixed message streams: framing, limits, and EOF behavior."""

import pickle
import socket
import struct
import threading

import pytest

from repro.cluster.protocol import (
    MAX_BODY,
    MSG_BATCH,
    MSG_HELLO,
    MSG_PING,
    MessageStream,
    ProtocolError,
    message_name,
)


def tcp_pair():
    """A connected (client_stream, server_stream) pair over loopback."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    accepted = []

    def accept():
        conn, _ = listener.accept()
        accepted.append(conn)

    thread = threading.Thread(target=accept)
    thread.start()
    client = MessageStream.connect(listener.getsockname())
    thread.join()
    listener.close()
    return client, MessageStream(accepted[0])


class TestRoundtrip:
    def test_typed_bodies_roundtrip(self):
        client, server = tcp_pair()
        try:
            client.send(MSG_HELLO, ("frontend",))
            client.send(MSG_BATCH, (7, b"\x00" * 27))
            client.send(MSG_PING, (1,))
            assert server.recv(timeout=5) == (MSG_HELLO, ("frontend",))
            assert server.recv(timeout=5) == (MSG_BATCH, (7, b"\x00" * 27))
            assert server.recv(timeout=5) == (MSG_PING, (1,))
            assert client.sent_messages == 3
            assert server.received_messages == 3
        finally:
            client.close()
            server.close()

    def test_large_body_roundtrips(self):
        client, server = tcp_pair()
        try:
            frame = b"\xab" * (2 * 1024 * 1024)
            client.send(MSG_BATCH, (1, frame))
            mtype, body = server.recv(timeout=10)
            assert mtype == MSG_BATCH and body[1] == frame
        finally:
            client.close()
            server.close()

    def test_replies_flow_both_ways(self):
        client, server = tcp_pair()
        try:
            client.send(MSG_PING, (9,))
            assert server.recv(timeout=5)[1] == (9,)
            server.send(MSG_PING, (10,))
            assert client.recv(timeout=5)[1] == (10,)
        finally:
            client.close()
            server.close()


class TestFraming:
    def test_oversized_length_is_a_protocol_error(self):
        client, server = tcp_pair()
        try:
            raw = struct.pack(">IB", MAX_BODY + 1, MSG_HELLO)
            client._sock.sendall(raw)
            with pytest.raises(ProtocolError):
                server.recv(timeout=5)
        finally:
            client.close()
            server.close()

    def test_eof_mid_message_is_a_connection_error(self):
        client, server = tcp_pair()
        try:
            client._sock.sendall(struct.pack(">IB", 100, MSG_HELLO) + b"short")
            client.close()
            with pytest.raises(ConnectionError):
                server.recv(timeout=5)
        finally:
            server.close()

    def test_recv_timeout_propagates(self):
        client, server = tcp_pair()
        try:
            with pytest.raises(socket.timeout):
                server.recv(timeout=0.05)
        finally:
            client.close()
            server.close()

    def test_back_to_back_messages_in_one_send_decode_in_order(self):
        """1,000 messages written by one ``sendall`` (more bytes than one
        receive buffer, so some straddle its end), with one message larger
        than the buffer in the middle, come out whole and in order."""
        bodies = [(i, bytes([i % 256]) * 100) for i in range(1000)]
        bodies[500] = (500, b"\xcd" * (200 * 1024))
        raw = b""
        for body in bodies:
            blob = pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
            raw += struct.pack(">IB", len(blob), MSG_BATCH) + blob
        client, server = tcp_pair()
        # More than a socket buffer may hold: send while the reader reads.
        sender = threading.Thread(target=client._sock.sendall, args=(raw,))
        sender.start()
        try:
            for body in bodies:
                assert server.recv(timeout=5) == (MSG_BATCH, body)
            assert server.received_messages == 1000
        finally:
            sender.join(timeout=5)
            client.close()
            server.close()

    def test_message_names(self):
        assert message_name(MSG_BATCH) == "batch"
        assert message_name(250) == "type-250"
