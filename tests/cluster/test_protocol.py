"""Length-prefixed message streams: framing, limits, and EOF behavior."""

import pickle
import socket
import struct
import threading

import pytest

from repro.cluster.protocol import MAX_BODY, MessageStream, ProtocolError


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
            client.send(("reload", {}, None))
            client.send(("batch", 7, b"\x00" * 27))
            client.send(("ping", 1))
            assert server.recv() == ("reload", {}, None)
            assert server.recv() == ("batch", 7, b"\x00" * 27)
            assert server.recv() == ("ping", 1)
            assert not server.poll()
        finally:
            client.close()
            server.close()

    def test_large_body_roundtrips(self):
        client, server = tcp_pair()
        try:
            frame = b"\xab" * (2 * 1024 * 1024)
            client.send(("batch", 1, frame))
            message = server.recv()
            assert message[0] == "batch" and message[2] == frame
        finally:
            client.close()
            server.close()

    def test_replies_flow_both_ways(self):
        client, server = tcp_pair()
        try:
            client.send(("ping", 9))
            assert server.recv() == ("ping", 9)
            server.send(("pong",))
            assert client.recv() == ("pong",)
        finally:
            client.close()
            server.close()


class TestFraming:
    def test_oversized_length_is_a_protocol_error(self):
        client, server = tcp_pair()
        try:
            raw = struct.pack(">I", MAX_BODY + 1)
            client._sock.sendall(raw)
            with pytest.raises(ProtocolError):
                server.recv()
        finally:
            client.close()
            server.close()

    def test_eof_mid_message_is_a_connection_error(self):
        client, server = tcp_pair()
        try:
            client._sock.sendall(struct.pack(">I", 100) + b"short")
            client.close()
            with pytest.raises(ConnectionError):
                server.recv()
        finally:
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
            raw += struct.pack(">I", len(blob)) + blob
        client, server = tcp_pair()
        # More than a socket buffer may hold: send while the reader reads.
        sender = threading.Thread(target=client._sock.sendall, args=(raw,))
        sender.start()
        try:
            for body in bodies:
                assert server.recv() == body
        finally:
            sender.join(timeout=5)
            client.close()
            server.close()
