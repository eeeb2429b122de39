"""Multi-host shard serving: TCP shard servers + a socket-backed executor.

Every executor (:mod:`repro.engine.sharding`) fans out the same shard
requests (``("top_k", users, k, …)``) and runs each one through
:func:`~repro.engine.sharding.run_shard_request`; they differ only in where
that runs and in what resolves a shard id to its state.  The router keeps
the certified exact S·k merge.  This module adds the last transport: the
same requests over a socket, run against each shard host's own mmap'd view
of the snapshot file, so one catalogue spreads across hosts.

* :class:`ShardServer` — one process, one shard.  Opens its slice of a
  published snapshot (zero-copy, via the snapshot worker cache) and answers
  exact top-k and certified two-stage candidate requests over a
  length-prefixed binary protocol.  Router-side divergence (``user_block``
  overrides after online user growth, ``extra_pairs`` exclusions the file
  does not hold) rides along with each request exactly as it does for the
  process executor, so online serving over sockets stays bit-identical too.
* :class:`RemoteExecutor` — a snapshot-served executor bound to one
  *replica set* per shard (``[["h1:p", "h2:p"], …]``; a plain ``host:port``
  string is a replica set of one).  Fans each request out to every shard
  concurrently and returns results in shard order; the router's merge is
  untouched.

Failure semantics are *fail closed and failover-transparent*: a request
either reflects every shard or raises :class:`RemoteShardError` — a partial
merge is never returned.  A transport fault (connect refused, reset,
timeout, garbled frame) fails over to the next healthy replica of the
*same* shard; a per-replica circuit breaker (consecutive failures open it,
a half-open probe after ``breaker_cooldown`` closes it) keeps dead replicas
from absorbing a connect timeout on every request.  Retries across the
whole replica set use capped full-jitter exponential backoff so recovering
fleets are not hit by synchronized retry storms.  Deterministic rejections
(protocol version mismatch, wrong shard geometry, a replica serving a
different snapshot file) disqualify that *replica* permanently — a stale
replica is skipped, never served — and the typed error fires only once a
shard's entire replica set is exhausted.  The handshake pins protocol
version and snapshot identity via
:func:`repro.engine.snapshot.snapshot_fingerprint` — a content fingerprint,
not an inode, so router and shard hosts need not share a filesystem, only a
byte-identical snapshot file.  Because every replica must pass the same
handshake and the merge is certified exact, failover never changes results;
it only changes which replica computes them.

Fault injection: both sides accept a
:class:`~repro.engine.faults.FaultPlan`.  :class:`ShardServer` consults
sites ``"server.handshake"``/``"server.request"`` (``delay``, ``reset``,
``garble``, ``reject``, ``crash``), :class:`RemoteExecutor` consults
``"client.request"`` (``delay``, ``reset``), so every failover path above
is reproducible from a seeded schedule instead of ad-hoc test knobs.

Wire format (all integers little-endian)::

    frame   := magic[4] body_len[u64] body
    body    := meta_len[u32] meta_json[meta_len] array_bytes...
    meta    := {"kind": str, "fields": {...}, "arrays": [
                   {"name": str, "dtype": str, "shape": [int, ...]}, ...]}

Array buffers are raw C-order bytes concatenated after the JSON header in
declaration order — no pickling anywhere on the wire.
"""

from __future__ import annotations

import json
import math
import os
import random
import socket
import socketserver
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .faults import FaultPlan
from .observability import (
    current_trace,
    metrics,
    parse_wire_spans,
    shard_reply_trace,
    trace_request_fields,
)
from .sharding import PARTITION_POLICIES, _ExecutorBase, run_shard_request
from .snapshot import _SnapshotShards, _worker_shard, snapshot_fingerprint

__all__ = [
    "PROTOCOL_VERSION",
    "RemoteExecutor",
    "RemoteProtocolError",
    "RemoteShardError",
    "ReplicaRejectedError",
    "ShardServer",
    "parse_address",
    "parse_replica_set",
    "spawn_shard_server",
]

PROTOCOL_VERSION = 1

_FRAME_MAGIC = b"RSHD"
_FRAME = struct.Struct("<4sQ")  # magic, body length
_META_LEN = struct.Struct("<I")

# Sanity ceiling on a single frame (1 GiB).  A request is O(batch x dim) and
# a reply O(batch x k); anything near this is a corrupt length prefix or a
# foreign peer, and must not turn into an attempted multi-GiB allocation.
MAX_FRAME_BYTES = 1 << 30


class RemoteShardError(RuntimeError):
    """A remote shard could not serve a request (fail-closed).

    Raised by :class:`RemoteExecutor` when any shard is unreachable after
    the bounded retries, rejects the handshake (stale snapshot, wrong
    geometry, protocol mismatch), or reports a server-side failure.  The
    router never falls back to a partial merge.
    """


class RemoteProtocolError(RemoteShardError):
    """A peer sent bytes that do not parse as a protocol frame/message."""


class ReplicaRejectedError(RemoteShardError):
    """One replica deterministically rejected the handshake.

    Stale snapshot, wrong geometry, or protocol skew: that replica must
    never serve, but its peers in the same replica set still can.  The
    executor marks the replica disqualified and fails over; only when every
    replica of the shard is rejected or unreachable does the request raise.
    """


# ---------------------------------------------------------------------- #
# Wire codec
# ---------------------------------------------------------------------- #

def encode_message(kind: str, fields: Optional[dict] = None,
                   arrays: Optional[dict] = None) -> bytes:
    """Serialise one protocol message to a framed byte string.

    ``fields`` must be JSON-serialisable scalars; ``arrays`` maps names to
    numpy arrays (``None`` values are dropped, signalling absence).
    """
    blocks = []
    specs = []
    for name, array in (arrays or {}).items():
        if array is None:
            continue
        array = np.ascontiguousarray(array)
        specs.append({"name": name, "dtype": array.dtype.str,
                      "shape": list(array.shape)})
        blocks.append(array.tobytes())
    meta = json.dumps({"kind": kind, "fields": fields or {},
                       "arrays": specs}).encode("utf-8")
    body = b"".join([_META_LEN.pack(len(meta)), meta, *blocks])
    return _FRAME.pack(_FRAME_MAGIC, len(body)) + body


def decode_message(body: bytes) -> Tuple[str, dict, dict]:
    """Parse a frame body back into ``(kind, fields, arrays)``."""
    try:
        if len(body) < _META_LEN.size:
            raise ValueError("truncated body")
        (meta_len,) = _META_LEN.unpack_from(body, 0)
        offset = _META_LEN.size + meta_len
        if offset > len(body):
            raise ValueError("meta length exceeds body")
        meta = json.loads(body[_META_LEN.size:offset].decode("utf-8"))
        kind = meta["kind"]
        fields = meta["fields"]
        arrays = {}
        for spec in meta["arrays"]:
            dtype = np.dtype(spec["dtype"])
            shape = tuple(int(dim) for dim in spec["shape"])
            count = math.prod(shape)
            nbytes = count * dtype.itemsize
            if offset + nbytes > len(body):
                raise ValueError(f"array {spec['name']!r} exceeds body")
            arrays[spec["name"]] = np.frombuffer(
                body, dtype=dtype, count=count, offset=offset).reshape(shape)
            offset += nbytes
        return kind, fields, arrays
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as error:
        raise RemoteProtocolError(f"malformed protocol message: {error}") \
            from error


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise ``ConnectionError`` on EOF."""
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(min(count - len(chunks), 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-message")
        chunks.extend(chunk)
    return bytes(chunks)


def _recv_message(sock: socket.socket) -> Tuple[str, dict, dict]:
    """Read one framed message off a socket."""
    header = _recv_exact(sock, _FRAME.size)
    magic, body_len = _FRAME.unpack(header)
    if magic != _FRAME_MAGIC:
        raise RemoteProtocolError(
            f"bad frame magic {magic!r}; peer is not a repro shard endpoint")
    if body_len > MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"frame of {body_len} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return decode_message(_recv_exact(sock, body_len))


def parse_address(address) -> Tuple[str, int]:
    """Normalise ``"host:port"`` (or an ``(host, port)`` pair) to a tuple."""
    if isinstance(address, (tuple, list)):
        if len(address) != 2:
            raise ValueError(f"address pair must be (host, port): {address!r}")
        host, port = address
    else:
        text = str(address).strip()
        host, sep, port = text.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"shard address must look like host:port, got {address!r}")
    try:
        port = int(port)
    except (TypeError, ValueError):
        raise ValueError(f"invalid port in shard address {address!r}") \
            from None
    if not 0 < port < 65536:
        raise ValueError(f"port out of range in shard address {address!r}")
    return str(host), port


def parse_replica_set(entry) -> List[Tuple[str, int]]:
    """Normalise one shard's replica set to a list of ``(host, port)``.

    Accepted spellings, all equivalent for a single replica:

    * ``"host:port"`` — one replica;
    * ``"h1:p1,h2:p2"`` — comma-separated replicas (the CLI form);
    * ``("host", 8080)`` — one already-parsed address pair;
    * ``["h1:p1", ("h2", 8080), …]`` — an explicit replica list.

    Duplicate replicas in one set are rejected: they would silently halve
    the redundancy the caller thinks they configured.
    """
    if isinstance(entry, str):
        parts = [part.strip() for part in entry.split(",") if part.strip()]
        if not parts:
            raise ValueError(f"empty replica set {entry!r}")
        replicas = [parse_address(part) for part in parts]
    elif isinstance(entry, (tuple, list)):
        if len(entry) == 2 and isinstance(entry[1], int):
            replicas = [parse_address(entry)]  # a bare (host, port) pair
        elif not entry:
            raise ValueError("a shard's replica set must not be empty")
        else:
            replicas = [parse_address(item) for item in entry]
    else:
        replicas = [parse_address(entry)]
    if len(set(replicas)) != len(replicas):
        raise ValueError(f"duplicate replica in replica set {entry!r}")
    return replicas


# ---------------------------------------------------------------------- #
# Server side
# ---------------------------------------------------------------------- #

class _ShardTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _ShardRequestHandler(socketserver.BaseRequestHandler):
    """One connection: handshake first, then request/reply until EOF."""

    def handle(self) -> None:
        owner: ShardServer = self.server.owner  # type: ignore[attr-defined]
        sock = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        handshaken = False
        while True:
            try:
                kind, fields, arrays = _recv_message(sock)
            except (ConnectionError, RemoteProtocolError, OSError):
                return  # peer went away or is speaking another protocol
            if owner.fault_plan is not None:
                site = ("server.handshake" if kind == "handshake"
                        else "server.request")
                if self._apply_fault(owner, sock, owner.fault_plan.advance(site)):
                    return
            close_after = False
            try:
                if kind == "handshake":
                    reply, accepted = owner._handshake_reply(fields)
                    handshaken = accepted
                    close_after = not accepted
                elif not handshaken:
                    reply = encode_message("error", {
                        "message": "handshake required before requests"})
                    close_after = True
                elif kind == "ping":
                    reply = encode_message("pong", {"shard_id": owner.shard_id})
                elif kind in ("top_k", "candidates"):
                    reply = owner._execute(kind, fields, arrays)
                else:
                    reply = encode_message("error", {
                        "message": f"unknown request kind {kind!r}"})
            except Exception as error:  # noqa: BLE001 - ship it to the client
                reply = encode_message("error", {
                    "message": f"{type(error).__name__}: {error}"})
            try:
                sock.sendall(reply)
            except OSError:
                return
            if close_after:
                return

    @staticmethod
    def _apply_fault(owner: "ShardServer", sock, action) -> bool:
        """Apply one scheduled fault; ``True`` means drop the connection."""
        if action is None:
            return False
        if action.kind == "delay":
            time.sleep(float(action.param("seconds", 0.05)))
            return False  # a stall, then normal service
        if action.kind == "reset":
            return True  # close without replying: client sees EOF/reset
        if action.kind == "garble":
            try:
                sock.sendall(b"\x00GARBLED-NOT-A-FRAME\x00")
            except OSError:
                pass
            return True
        if action.kind == "reject":
            try:
                sock.sendall(encode_message("error", {
                    "message": "injected fault: handshake rejected"}))
            except OSError:
                pass
            return True
        if action.kind == "crash":
            owner._crash()
            return True
        raise ValueError(f"unknown server fault kind {action.kind!r}")


class ShardServer:
    """Serve one shard of a published snapshot over TCP.

    One server process holds one shard: at construction it opens its slice
    of ``snapshot_path`` through the shared worker cache (so launch fails
    fast on a missing/corrupt file) and then answers ``top_k`` /
    ``candidates`` requests exactly as a process-pool worker would — same
    function, same cache, same divergence shipping, same republish
    detection.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction.  ``start()`` serves from a daemon thread (tests, embedded
    use); ``serve_forever()`` blocks (the CLI).  ``fault_plan`` attaches a
    :class:`~repro.engine.faults.FaultPlan` consulted once per received
    message (sites ``"server.handshake"``/``"server.request"``) so
    client-side timeout, retry, and failover paths can be exercised
    deterministically — delays, connection resets, garbled frames, injected
    rejections, and whole-server crashes all come from the one seeded
    schedule.
    """

    def __init__(self, snapshot_path, shard_id: int, num_shards: int, *,
                 policy: str = "contiguous", host: str = "127.0.0.1",
                 port: int = 0, fault_plan: Optional[FaultPlan] = None) -> None:
        self.snapshot_path = str(snapshot_path)
        self.num_shards = int(num_shards)
        self.shard_id = int(shard_id)
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not 0 <= self.shard_id < self.num_shards:
            raise ValueError(f"shard_id {self.shard_id} out of range for "
                             f"{self.num_shards} shards")
        if policy not in PARTITION_POLICIES:
            raise ValueError(f"unknown partition policy {policy!r}; "
                             f"options: {PARTITION_POLICIES}")
        self.policy = policy
        self.fault_plan = fault_plan
        # A "crash" fault means os._exit in a dedicated server process but a
        # clean close for servers embedded in a test process (killing the
        # test runner is not a useful simulation); _serve_shard_process
        # flips this on.
        self._crash_hard = False
        # Fail fast: fingerprint + shard slice both validate the file now,
        # not on the first remote request.
        self.fingerprint = snapshot_fingerprint(self.snapshot_path)
        shard, user_embeddings, snapshot, _ = _worker_shard(
            self.snapshot_path, self.num_shards, self.policy, self.shard_id)
        self.num_users = int(user_embeddings.shape[0])
        self.num_items = int(snapshot.num_items)
        self.shard_items = int(shard.item_ids.size)
        self._resolver = _SnapshotShards(self.snapshot_path, self.num_shards,
                                         self.policy)
        self.requests_served = 0
        self._count_lock = threading.Lock()
        self._server = _ShardTCPServer((host, int(port)), _ShardRequestHandler)
        self._server.owner = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------ #

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolved even when ``port=0``."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> "ShardServer":
        """Serve from a background daemon thread; returns ``self``."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name=f"shard-server-{self.shard_id}", daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (the CLI path)."""
        self._server.serve_forever()

    def close(self) -> None:
        """Stop serving and release the listening socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    stop = close

    def _crash(self) -> None:
        """An injected crash: die hard in a child process, else shut down."""
        if self._crash_hard:  # pragma: no cover - kills the process
            os._exit(1)
        threading.Thread(target=self.close, daemon=True).start()

    def __enter__(self) -> "ShardServer":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        host, port = self.address
        return (f"ShardServer({self.snapshot_path!r}, "
                f"shard {self.shard_id}/{self.num_shards} {self.policy!r}, "
                f"{host}:{port})")

    # -- request handling ----------------------------------------------- #

    def _handshake_reply(self, fields: dict) -> Tuple[bytes, bool]:
        """Validate a client handshake; returns ``(reply, accepted)``."""
        def reject(message: str) -> Tuple[bytes, bool]:
            return encode_message("error", {"message": message}), False

        protocol = fields.get("protocol")
        if protocol != PROTOCOL_VERSION:
            return reject(f"protocol version mismatch: server speaks "
                          f"{PROTOCOL_VERSION}, client sent {protocol!r}")
        for key, mine in (("shard_id", self.shard_id),
                          ("num_shards", self.num_shards),
                          ("policy", self.policy)):
            theirs = fields.get(key)
            if theirs != mine:
                return reject(f"shard geometry mismatch: this server holds "
                              f"{key}={mine!r}, client expects {theirs!r}")
        # Re-fingerprint on every handshake: a snapshot republished over this
        # server's path since launch must be detected, not silently served
        # against a router that saved something else.
        current = snapshot_fingerprint(self.snapshot_path)
        expected = fields.get("fingerprint")
        if expected is not None and expected != current:
            return reject(
                f"snapshot identity mismatch: server file {current} != "
                f"router file {expected} (stale shard snapshot?)")
        reply = encode_message("handshake_ok", {
            "protocol": PROTOCOL_VERSION, "shard_id": self.shard_id,
            "num_shards": self.num_shards, "policy": self.policy,
            "fingerprint": current, "num_users": self.num_users,
            "num_items": self.num_items, "shard_items": self.shard_items})
        return reply, True

    def _execute(self, kind: str, fields: dict, arrays: dict) -> bytes:
        """Decode a shard request, run it, frame the reply."""
        users = np.ascontiguousarray(arrays["users"], dtype=np.int64)
        extra = None
        if "extra_rows" in arrays:
            extra = (np.ascontiguousarray(arrays["extra_rows"]),
                     np.ascontiguousarray(arrays["extra_cols"]))
        if kind == "top_k":
            request = (users, int(fields["k"]))
        else:
            request = (users, int(fields["num_candidates"]), fields["mode"])
        request += (bool(fields["exclude_train"]), arrays.get("user_block"),
                    extra)
        started = time.perf_counter()
        result = run_shard_request(self._resolver, self.shard_id, kind,
                                   *request)
        duration = time.perf_counter() - started
        reply = encode_message(
            f"{kind}_result",
            shard_reply_trace(fields, shard_id=self.shard_id, kind=kind,
                              duration=duration),
            dict(zip(("ids", "scores", "thresholds"), result)))
        registry = metrics()
        registry.inc("server.requests")
        registry.observe("server.request_s", duration)
        with self._count_lock:
            self.requests_served += 1
        return reply


# ---------------------------------------------------------------------- #
# Client side
# ---------------------------------------------------------------------- #

class _ReplicaState:
    """One replica's connection, circuit breaker, and health counters.

    The lock guards the socket *and* the breaker state; counters are read
    without it by :meth:`RemoteExecutor.health_stats` (monitoring reads may
    be a request behind, they must never stall serving).
    """

    __slots__ = ("shard_id", "replica_id", "address", "sock", "lock",
                 "circuit", "opened_at", "consecutive_failures", "rejected",
                 "requests", "failures", "failovers", "probes",
                 "probe_successes", "last_error")

    def __init__(self, shard_id: int, replica_id: int,
                 address: Tuple[str, int]) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.address = address
        self.sock: Optional[socket.socket] = None
        self.lock = threading.Lock()
        self.circuit = "closed"          # closed | open (half-open = a probe)
        self.opened_at = 0.0             # monotonic time the circuit opened
        self.consecutive_failures = 0
        self.rejected = False            # deterministic handshake rejection
        self.requests = 0
        self.failures = 0
        self.failovers = 0               # transport faults that moved the
        self.probes = 0                  # request to a sibling replica
        self.probe_successes = 0
        self.last_error: Optional[str] = None

    @property
    def label(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    def snapshot(self) -> dict:
        return {
            "address": self.label,
            "circuit": "rejected" if self.rejected else self.circuit,
            "requests": self.requests,
            "failures": self.failures,
            "failovers": self.failovers,
            "consecutive_failures": self.consecutive_failures,
            "probes": self.probes,
            "probe_successes": self.probe_successes,
            "last_error": self.last_error,
        }


class RemoteExecutor(_ExecutorBase):
    """Fan shard requests out to :class:`ShardServer` endpoints over TCP.

    Entry ``i`` of ``addresses`` is shard ``i``'s *replica set* (see
    :func:`parse_replica_set`; a plain ``"host:port"`` string is a set of
    one).  Every replica must serve shard ``i`` of
    ``num_shards = len(addresses)`` under ``policy`` — the per-replica
    handshake enforces exactly that, plus protocol version and (when
    ``snapshot_path``/``fingerprint`` is given) snapshot content identity,
    so a replica serving a stale file is disqualified before a single
    payload is merged.

    Connections are persistent (one per replica, re-established
    transparently after transport faults) and requests fan out concurrently
    from a small thread pool.  Within a shard, requests stick to the last
    replica that answered; a transport fault fails over to the next healthy
    sibling, and a circuit breaker (``breaker_threshold`` consecutive
    failures open it; a half-open probe after ``breaker_cooldown`` seconds
    closes it again) keeps known-dead replicas from absorbing a connect
    timeout per request.  Retry sleeps use capped full-jitter exponential
    backoff (``retry_backoff``/``max_backoff``, seeded by ``jitter_seed``
    for deterministic tests).  ``fan_out`` returns per-shard results in
    shard order or raises :class:`RemoteShardError`; it never returns a
    subset.
    """

    serves_snapshot = True
    is_remote = True

    def __init__(self, addresses: Sequence, *, snapshot_path=None,
                 fingerprint: Optional[str] = None,
                 policy: str = "contiguous", timeout: float = 10.0,
                 max_retries: int = 2, retry_backoff: float = 0.05,
                 max_backoff: float = 2.0, breaker_threshold: int = 3,
                 breaker_cooldown: float = 1.0,
                 jitter_seed: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if not addresses:
            raise ValueError("RemoteExecutor needs at least one shard address")
        self.replica_sets: List[List[Tuple[str, int]]] = [
            parse_replica_set(entry) for entry in addresses]
        self.num_shards = len(self.replica_sets)
        if policy not in PARTITION_POLICIES:
            raise ValueError(f"unknown partition policy {policy!r}; "
                             f"options: {PARTITION_POLICIES}")
        self.policy = policy
        self.timeout = float(timeout)
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        self.max_retries = int(max_retries)
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.retry_backoff = float(retry_backoff)
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        self.max_backoff = float(max_backoff)
        if self.max_backoff < 0:
            raise ValueError("max_backoff must be >= 0")
        self.breaker_threshold = int(breaker_threshold)
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        self.breaker_cooldown = float(breaker_cooldown)
        if self.breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be >= 0")
        self.fault_plan = fault_plan
        if fingerprint is None and snapshot_path is not None:
            fingerprint = snapshot_fingerprint(snapshot_path)
        self.snapshot_path = None if snapshot_path is None \
            else str(snapshot_path)
        self.fingerprint = fingerprint
        self._replicas: List[List[_ReplicaState]] = [
            [_ReplicaState(shard_id, replica_id, address)
             for replica_id, address in enumerate(replica_set)]
            for shard_id, replica_set in enumerate(self.replica_sets)]
        # Sticky preference: index of the replica that last answered for the
        # shard, so healthy traffic does not ping-pong across replicas.
        self._preferred = [0] * self.num_shards
        self._jitter_rng = random.Random(jitter_seed)
        self._jitter_lock = threading.Lock()
        # Built eagerly: a lazy first-use init would race two concurrent
        # fan-outs into two pools, leaking one.  ThreadPoolExecutor spawns
        # its threads on first submit, so the eager object itself is free.
        self._pool: Optional[ThreadPoolExecutor] = None
        if self.num_shards > 1:
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_shards,
                thread_name_prefix="remote-fan-out")
        self._closed = False

    # -- executor seam -------------------------------------------------- #

    def bind(self, index) -> None:
        """Reject binding to an index whose geometry the shards don't hold."""
        if index.num_shards != self.num_shards or index.policy != self.policy:
            raise ValueError(
                f"RemoteExecutor is bound to {self.num_shards} "
                f"{self.policy!r} shards at {self._address_text()}; cannot "
                f"serve {index.num_shards} {index.policy!r} shards")

    def fan_out(self, kind: str, *request) -> list:
        """Send one request per shard; results come back in shard order.

        Raises :class:`RemoteShardError` if *any* shard cannot answer —
        the caller never sees a partial result set.
        """
        if self._closed:
            raise RemoteShardError("RemoteExecutor is closed")
        # Every shard receives the identical request (shard identity lives
        # in the connection handshake), so encode exactly once.  The active
        # trace id is read here, in the caller's thread — pool threads do
        # not inherit the contextvar — and rides the request meta so shard
        # servers can stitch their spans into this trace.  Pool threads
        # append parsed spans to ``collected`` (list.append is atomic);
        # they are attached once every shard has answered.
        trace = current_trace()
        trace_id = trace.trace_id if trace is not None else None
        message = self._encode_request(kind, request,
                                       trace_request_fields(trace))
        collected: list = []
        if self.num_shards == 1:
            results = [self._request(0, message, trace_id=trace_id,
                                     span_sink=collected)]
            if trace is not None:
                trace.attach(sorted(collected, key=lambda s: s.name))
            return results
        futures = [self._pool.submit(self._request, shard_id, message,
                                     trace_id=trace_id, span_sink=collected)
                   for shard_id in range(self.num_shards)]
        results, failure = [], None
        for future in futures:
            try:
                results.append(future.result())
            except Exception as error:  # noqa: BLE001 - re-raised below
                if failure is None:
                    failure = error
        if failure is not None:
            raise failure
        if trace is not None:
            # Shard replies land in pool-thread order; sort by span name so
            # the stitched tree is deterministic.
            trace.attach(sorted(collected, key=lambda s: s.name))
        return results

    def close(self) -> None:
        """Drop every replica connection and the fan-out pool (idempotent)."""
        self._closed = True
        for replicas in self._replicas:
            for replica in replicas:
                with replica.lock:
                    self._drop(replica)
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __repr__(self) -> str:
        return (f"RemoteExecutor([{self._address_text()}], "
                f"shards={self.num_shards}, policy={self.policy!r}, "
                f"timeout={self.timeout}, max_retries={self.max_retries})")

    # -- health --------------------------------------------------------- #

    def health_stats(self) -> dict:
        """Per-replica health: circuits, failovers, probes, last errors.

        Lock-free reads of live counters — numbers may trail in-flight
        requests by one, which is the right trade for a monitoring surface.
        """
        shards = []
        total_failovers = 0
        total_requests = 0
        for shard_id, replicas in enumerate(self._replicas):
            replica_stats = [replica.snapshot() for replica in replicas]
            failovers = sum(stat["failovers"] for stat in replica_stats)
            total_failovers += failovers
            total_requests += sum(stat["requests"] for stat in replica_stats)
            shards.append({
                "shard_id": shard_id,
                "replicas": replica_stats,
                "failovers": failovers,
                "healthy_replicas": sum(
                    1 for stat in replica_stats
                    if stat["circuit"] == "closed"),
            })
        return {
            "num_shards": self.num_shards,
            "replicas_per_shard": [len(replicas)
                                   for replicas in self._replicas],
            "requests": total_requests,
            "failovers": total_failovers,
            "shards": shards,
        }

    # -- transport ------------------------------------------------------ #

    def _address_text(self) -> str:
        return "; ".join(
            ",".join(f"{host}:{port}" for host, port in replica_set)
            for replica_set in self.replica_sets)

    def _backoff_delay(self, attempt: int) -> float:
        """Capped full-jitter exponential backoff before retry ``attempt``.

        Full jitter (uniform over ``[0, cap]``) decorrelates the retry
        storms of many routers hammering a recovering fleet; the
        ``max_backoff`` cap bounds the worst-case stall a single request
        can add.  Seeded via ``jitter_seed`` so tests can pin the exact
        sleep sequence.
        """
        ceiling = min(self.max_backoff,
                      self.retry_backoff * (2 ** (attempt - 1)))
        if ceiling <= 0:
            return 0.0
        with self._jitter_lock:
            return self._jitter_rng.uniform(0.0, ceiling)

    @staticmethod
    def _encode_request(kind: str, request: tuple,
                        trace_fields: Optional[dict] = None) -> bytes:
        if kind == "top_k":
            users, k, exclude_train, user_block, extra = request
            fields = {"k": int(k), "exclude_train": bool(exclude_train)}
        elif kind == "candidates":
            users, num_candidates, mode, exclude_train, user_block, extra \
                = request
            fields = {"num_candidates": int(num_candidates), "mode": mode,
                      "exclude_train": bool(exclude_train)}
        else:
            raise ValueError(f"unknown shard request kind {kind!r}")
        if trace_fields:
            fields.update(trace_fields)
        arrays = {"users": np.asarray(users, dtype=np.int64),
                  "user_block": user_block}
        if extra is not None:
            arrays["extra_rows"], arrays["extra_cols"] = extra
        return encode_message(kind, fields, arrays)

    def _connect(self, replica: _ReplicaState) -> socket.socket:
        """The persistent (handshaken) socket for one replica, dialing if
        needed.  Caller holds the replica lock."""
        if replica.sock is not None:
            return replica.sock
        host, port = replica.address
        sock = socket.create_connection((host, port), timeout=self.timeout)
        try:
            sock.settimeout(self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(encode_message("handshake", {
                "protocol": PROTOCOL_VERSION, "shard_id": replica.shard_id,
                "num_shards": self.num_shards, "policy": self.policy,
                "fingerprint": self.fingerprint}))
            kind, fields, _ = _recv_message(sock)
        except BaseException:
            sock.close()
            raise
        if kind == "error":
            # Deterministic rejection (stale snapshot, bad geometry,
            # protocol skew): this replica must never serve.  The caller
            # disqualifies it and fails over to a sibling.
            sock.close()
            raise ReplicaRejectedError(
                f"shard {replica.shard_id} replica at {host}:{port} "
                f"rejected the handshake: "
                f"{fields.get('message', 'no reason given')}")
        if kind != "handshake_ok":
            sock.close()
            raise RemoteProtocolError(
                f"shard {replica.shard_id} replica at {host}:{port} "
                f"answered the handshake with {kind!r}")
        replica.sock = sock
        return sock

    @staticmethod
    def _drop(replica: _ReplicaState) -> None:
        if replica.sock is not None:
            try:
                replica.sock.close()
            except OSError:  # pragma: no cover - close never really fails
                pass
            replica.sock = None

    def _replica_order(self, shard_id: int) -> List[_ReplicaState]:
        """The shard's replicas, rotated so the sticky preference is first."""
        replicas = self._replicas[shard_id]
        start = self._preferred[shard_id] % len(replicas)
        return replicas[start:] + replicas[:start]

    def _record_failure(self, replica: _ReplicaState,
                        error: BaseException, *, probing: bool,
                        has_siblings: bool) -> None:
        """Count one transport fault and drive the circuit breaker."""
        opened = False
        with replica.lock:
            self._drop(replica)
            replica.failures += 1
            replica.consecutive_failures += 1
            replica.last_error = f"{type(error).__name__}: {error}"
            if has_siblings:
                replica.failovers += 1
            if (probing
                    or replica.consecutive_failures >= self.breaker_threshold):
                # A failed half-open probe re-opens immediately; otherwise
                # the threshold of consecutive faults trips the breaker.
                opened = replica.circuit != "open"
                replica.circuit = "open"
                replica.opened_at = time.monotonic()
        registry = metrics()
        registry.inc("remote.failures")
        if has_siblings:
            registry.inc("remote.failovers")
        if opened:
            registry.inc("remote.breaker_opened")

    def _request(self, shard_id: int, message: bytes, *,
                 trace_id: Optional[str] = None,
                 span_sink: Optional[list] = None):
        """One round trip: sticky replica first, failover on transport
        faults, capped jittered backoff between sweeps of the replica set."""
        registry = metrics()
        request_start = time.perf_counter()
        replicas = self._replicas[shard_id]
        last_error: Optional[BaseException] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                registry.inc("remote.retries")
                delay = self._backoff_delay(attempt)
                if delay:
                    time.sleep(delay)
            for replica in self._replica_order(shard_id):
                if replica.rejected:
                    continue
                probing = False
                with replica.lock:
                    if replica.circuit == "open":
                        elapsed = time.monotonic() - replica.opened_at
                        if (elapsed < self.breaker_cooldown
                                and any(sibling.circuit == "closed"
                                        and not sibling.rejected
                                        for sibling in replicas)):
                            # Cooling off, and a healthy sibling exists to
                            # take the request.  (With no healthy sibling we
                            # probe anyway: guessing beats guaranteed
                            # failure.)
                            continue
                        probing = True
                        replica.probes += 1
                        registry.inc("remote.breaker_probes")
                if self.fault_plan is not None:
                    action = self.fault_plan.advance("client.request")
                    if action is not None:
                        if action.kind == "delay":
                            time.sleep(float(action.param("seconds", 0.05)))
                        elif action.kind == "reset":
                            error = ConnectionResetError(
                                "injected client-side connection reset")
                            self._record_failure(
                                replica, error, probing=probing,
                                has_siblings=len(replicas) > 1)
                            last_error = error
                            continue
                        else:
                            raise ValueError(f"unknown client fault kind "
                                             f"{action.kind!r}")
                try:
                    with replica.lock:
                        sock = self._connect(replica)
                        sock.sendall(message)
                        kind, fields, arrays = _recv_message(sock)
                except ReplicaRejectedError as error:
                    # Deterministic: this replica can never serve this
                    # executor.  Disqualify it and try a sibling.
                    with replica.lock:
                        replica.rejected = True
                        replica.last_error = str(error)
                    last_error = error
                    continue
                except (RemoteProtocolError, OSError) as error:
                    # Transport fault (reset, timeout, garbled frame): the
                    # connection is unusable.  Fail over to the next
                    # replica; a later sweep may retry this one.
                    self._record_failure(replica, error, probing=probing,
                                         has_siblings=len(replicas) > 1)
                    last_error = error
                    continue
                if kind == "error":
                    # The replica ran the request and failed
                    # deterministically — every replica holds the same
                    # shard, so failing over would re-fail identically.
                    raise RemoteShardError(
                        f"shard {shard_id} at {replica.label} failed: "
                        f"{fields.get('message', 'no reason given')}")
                with replica.lock:
                    replica.requests += 1
                    replica.consecutive_failures = 0
                    if probing:
                        replica.probe_successes += 1
                    replica.circuit = "closed"
                self._preferred[shard_id] = replica.replica_id
                if probing:
                    registry.inc("remote.breaker_closed")
                if span_sink is not None and trace_id is not None:
                    span_sink.extend(parse_wire_spans(fields, trace_id))
                elapsed = time.perf_counter() - request_start
                registry.inc("remote.requests")
                registry.observe("remote.request_s", elapsed)
                registry.observe(f"remote.shard.{shard_id}.request_s",
                                 elapsed)
                return self._decode_result(shard_id, kind, arrays)
            if all(replica.rejected for replica in replicas):
                # Nothing left to retry: every replica is deterministically
                # disqualified, so backing off cannot help.
                break
        detail = "; ".join(
            f"{replica.label}: {replica.last_error or 'not attempted'}"
            for replica in replicas)
        raise RemoteShardError(
            f"shard {shard_id} exhausted all {len(replicas)} replica(s) "
            f"after {self.max_retries + 1} sweep(s) ({detail})"
        ) from last_error

    def _decode_result(self, shard_id: int, kind: str, arrays: dict):
        if kind == "top_k_result":
            return arrays["ids"], arrays["scores"]
        if kind == "candidates_result":
            return arrays["ids"], arrays["scores"], arrays["thresholds"]
        raise RemoteProtocolError(
            f"shard {shard_id} sent unexpected reply kind {kind!r}")


# ---------------------------------------------------------------------- #
# Process-spawn helper (tests + benchmarks)
# ---------------------------------------------------------------------- #

def _serve_shard_process(snapshot_path: str, shard_id: int, num_shards: int,
                         policy: str, host: str,
                         fault_plan: Optional[FaultPlan],
                         conn) -> None:  # pragma: no cover - child process
    server = ShardServer(snapshot_path, shard_id, num_shards, policy=policy,
                         host=host, port=0, fault_plan=fault_plan)
    # A dedicated server process dies for real on an injected crash.
    server._crash_hard = True
    conn.send(server.address)
    conn.close()
    server.serve_forever()


def spawn_shard_server(snapshot_path, shard_id: int, num_shards: int, *,
                       policy: str = "contiguous", host: str = "127.0.0.1",
                       fault_plan: Optional[FaultPlan] = None,
                       start_timeout: float = 30.0):
    """Launch a :class:`ShardServer` in its own process.

    Returns ``(process, (host, port))`` once the child has bound its
    ephemeral port.  The child is a daemon: killing it (fault injection) or
    letting the parent exit reaps it, and a ``fault_plan`` travels into the
    child by pickle so scheduled faults (including hard ``crash``) happen in
    true process isolation.  Production deployments use the
    ``repro shard-server`` CLI instead; this helper exists so tests and
    benchmarks can exercise process-level faults cheaply.
    """
    import multiprocessing

    parent_conn, child_conn = multiprocessing.Pipe()
    process = multiprocessing.Process(
        target=_serve_shard_process,
        args=(str(snapshot_path), int(shard_id), int(num_shards), policy,
              host, fault_plan, child_conn),
        daemon=True)
    process.start()
    child_conn.close()
    if not parent_conn.poll(start_timeout):
        process.terminate()
        raise RemoteShardError(
            f"shard server {shard_id}/{num_shards} did not come up within "
            f"{start_timeout}s")
    try:
        address = parent_conn.recv()
    except EOFError:
        raise RemoteShardError(
            f"shard server {shard_id}/{num_shards} died during startup "
            f"(exit code {process.exitcode})") from None
    finally:
        parent_conn.close()
    return process, address
