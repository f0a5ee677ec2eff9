"""The served lock system: sharded lock tables behind an asyncio front-end.

This package promotes the in-process lock technique to a *system*:

* :mod:`repro.service.sharded` — :class:`ShardedLockManager`, a drop-in
  :class:`~repro.locking.manager.LockManager` replacement that partitions
  the lock table by interned resource id into N independent shards;
* :mod:`repro.service.server` — :class:`LockServer`, an asyncio server
  speaking the text line protocol and, after ``HELLO BINARY``, the
  pipelined binary protocol over a sharded stack (the verb list is in
  the module's docstring), with per-shard admission mutexes, cross-shard
  deadlock detection and fault injection;
* :mod:`repro.service.wire` — the length-prefixed binary framing both
  ends share;
* :mod:`repro.service.client` — an async client plus the many-client
  load generator behind ``repro-load``;
* :mod:`repro.service.cli` — the ``repro-serve`` / ``repro-load``
  console entry points.

See ``docs/SERVICE.md`` for the wire protocol and the shard-routing
rule, and ``tests/service/`` for the conformance/property/fault suites
that certify the server.
"""

from repro.service.sharded import ShardedLockManager, shard_of

__all__ = ["ShardedLockManager", "shard_of"]
