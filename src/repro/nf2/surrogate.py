"""Surrogate generation in the style of Meier/Lorie (MeLo83).

The paper implements references to common data "e.g. under use of key
values, surrogates [MeLo83], etc." (footnote 1).  We use surrogates: small
immutable identifiers that are unique per database, never reused, and
independent of the object's key values (so keys may change without breaking
references).
"""

from __future__ import annotations

import itertools


class SurrogateGenerator:
    """Produces database-wide unique surrogates.

    Surrogates are strings ``"@<relation>:<n>"`` so that debugging output
    stays readable; their structure is an implementation detail callers must
    not rely on.  The counter is global per generator, guaranteeing
    uniqueness across relations even though the relation name is embedded.
    """

    def __init__(self):
        self._counter = itertools.count(1)

    def next_for(self, relation_name: str) -> str:
        """Return a fresh surrogate for an object of ``relation_name``."""
        return "@%s:%d" % (relation_name, next(self._counter))

    def fork_state(self) -> int:
        """Expose the current counter position (for persistence tests)."""
        # Peek without consuming: count objects cannot be peeked, so track
        # by issuing and remembering would skip a value; instead re-create.
        value = next(self._counter)
        self._counter = itertools.count(value + 1)
        return value


class ResourceInterner:
    """Bijective map from resources/surrogates to dense integer ids.

    The binary wire protocol names resources by these ids instead of by
    path (:mod:`repro.service.server`).  The contract it relies on:

    * an id, once assigned, is **never reused or reassigned** — the
      mapping only grows, so a resource's wire id stays fixed for the
      interner's whole lifetime and round-trip ``intern``/``resource_of``
      is stable across arbitrary insert/delete/replace/undo traffic
      (deleted objects keep their id; a re-inserted object gets a fresh
      surrogate and therefore a fresh resource tuple and a fresh id).

    Ids are assigned at first touch ("registration time"): the server
    registers the database's resources when it starts, and ``OP_INTERN``
    adds more.
    """

    __slots__ = ("_ids", "_resources")

    def __init__(self):
        self._ids = {}
        self._resources: list = []

    def intern(self, resource) -> int:
        """The dense id of ``resource``, assigning the next one if new."""
        rid = self._ids.get(resource)
        if rid is None:
            rid = len(self._resources)
            self._ids[resource] = rid
            self._resources.append(resource)
        return rid

    def id_of(self, resource):
        """The id of ``resource`` or None (never assigns)."""
        return self._ids.get(resource)

    def resource_of(self, rid: int):
        """Inverse lookup; raises IndexError for never-assigned ids."""
        return self._resources[rid]

    def items(self):
        """Iterate ``(rid, resource)`` pairs in assignment order."""
        return enumerate(self._resources)

    def __len__(self) -> int:
        return len(self._resources)

    def __contains__(self, resource) -> bool:
        return resource in self._ids

    def __repr__(self):
        return "ResourceInterner(%d ids)" % len(self._resources)
