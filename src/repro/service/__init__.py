"""The served lock system: one lock table behind an asyncio front-end.

This package promotes the in-process lock technique to a *system*:

* :mod:`repro.service.server` — :class:`LockServer`, an asyncio server
  speaking the text line protocol and, after ``HELLO BINARY``, the
  pipelined binary protocol over one lock stack (the verb list is in
  the module's docstring), with a deadlock detector task and fault
  injection;
* :mod:`repro.service.wire` — the length-prefixed binary framing both
  ends share;
* :mod:`repro.service.client` — an async client plus the many-client
  load generator behind ``repro-load``;
* :mod:`repro.service.cli` — the ``repro-serve`` / ``repro-load``
  console entry points.

See ``docs/SERVICE.md`` for the wire protocol, and ``tests/service/``
for the conformance/property/fault suites that certify the server.
"""
