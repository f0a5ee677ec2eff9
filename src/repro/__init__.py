"""repro — A Lock Technique for Disjoint and Non-Disjoint Complex Objects.

Reproduction of Herrmann, Dadam, Küspert, Roman, Schlageter (EDBT 1990):
multi-granularity locking for complex objects in the extended NF² data
model, including non-disjoint objects that share common data via
references.

Quick tour
----------

>>> from repro import build_cells_database, LockStack
>>> db, stack = None, None  # see examples/quickstart.py for a runnable tour

Top-level convenience: :func:`make_stack` wires a database + catalog into
the full component stack (authorization, lock manager, protocol,
statistics, optimizer, analyzer, executor, transaction manager) used by
the examples and benchmarks.
"""

from repro.catalog import AuthorizationManager, Catalog, Statistics
from repro.errors import (
    AuthorizationError,
    CheckoutError,
    DeadlockError,
    IntegrityError,
    LockConflictError,
    LockError,
    PathError,
    ProtocolError,
    QueryError,
    ReproError,
    SchemaError,
    SimulationError,
    TransactionAborted,
    TransactionError,
)
from repro.locking import IS, IX, S, SIX, X, LockManager, LockMode
from repro.nf2 import (
    AtomicType,
    Database,
    ListType,
    RefType,
    RelationSchema,
    SetType,
    TupleType,
    make_list,
    make_set,
    make_tuple,
    parse_path,
)
from repro.protocol import (
    PROTOCOLS,
    AccessIntent,
    HerrmannProtocol,
    LockRequestOptimizer,
)
from repro.query import QueryExecutor, parse_query
from repro.txn import CheckoutManager, TransactionManager, Workstation
from repro.verify import Violation, audit
from repro.workloads import build_cells_database

__version__ = "1.0.0"


class LockStack:
    """The fully wired component stack around one database.

    Attributes: ``database``, ``catalog``, ``authorization``, ``manager``
    (lock manager), ``protocol``, ``statistics``, ``optimizer``,
    ``executor``, ``txns`` (transaction manager), ``checkout``.
    """

    def __init__(
        self,
        database,
        catalog=None,
        protocol_cls=HerrmannProtocol,
        authorization=None,
        **protocol_kwargs,
    ):
        self.database = database
        self.catalog = catalog if catalog is not None else Catalog(database)
        self.authorization = (
            authorization if authorization is not None else AuthorizationManager()
        )
        # ``shards`` is accepted and ignored: the benchmark server
        # (benchmarks/e2e/serve.py) still passes shards=4 from when the
        # served table was partitioned.  It goes once that caller stops
        # passing it (ROADMAP item 1f).
        protocol_kwargs.pop("shards", None)
        self.manager = LockManager()
        if protocol_cls is HerrmannProtocol:
            protocol_kwargs.setdefault("authorization", self.authorization)
        self.protocol = protocol_cls(self.manager, self.catalog, **protocol_kwargs)
        self.statistics = Statistics(database).refresh()
        self.optimizer = LockRequestOptimizer(self.statistics)
        self.executor = QueryExecutor(self.protocol, self.optimizer)
        self.txns = TransactionManager(self.protocol)
        self.checkout = CheckoutManager(self.txns)

    def refresh_statistics(self):
        self.statistics.refresh()
        return self


def make_stack(database, catalog=None, protocol_cls=HerrmannProtocol, **kwargs):
    """Wire a database into the full lock-technique stack."""
    return LockStack(database, catalog=catalog, protocol_cls=protocol_cls, **kwargs)


__all__ = [
    "AccessIntent",
    "AtomicType",
    "AuthorizationError",
    "AuthorizationManager",
    "Catalog",
    "CheckoutError",
    "CheckoutManager",
    "Database",
    "DeadlockError",
    "HerrmannProtocol",
    "IS",
    "IX",
    "IntegrityError",
    "ListType",
    "LockConflictError",
    "LockError",
    "LockManager",
    "LockMode",
    "LockRequestOptimizer",
    "LockStack",
    "PROTOCOLS",
    "PathError",
    "ProtocolError",
    "QueryError",
    "QueryExecutor",
    "RefType",
    "RelationSchema",
    "ReproError",
    "S",
    "SIX",
    "SchemaError",
    "SetType",
    "SimulationError",
    "Statistics",
    "TransactionAborted",
    "TransactionError",
    "TransactionManager",
    "TupleType",
    "Violation",
    "Workstation",
    "X",
    "audit",
    "build_cells_database",
    "make_stack",
    "make_list",
    "make_set",
    "make_tuple",
    "parse_path",
    "parse_query",
]
