"""Execution engine: expression compiler, operators, results, AQP.

Every serving path executes plans on the vectorized
:class:`ColumnarExecutor` (batch-at-a-time kernels with a per-node row
fallback). The row-at-a-time :class:`Executor` is its base class and the
reference oracle the differential tests compare it against.
"""

from repro.engine.batch import ColumnBatch
from repro.engine.executor import ExecContext, Executor
from repro.engine.result import ExecStats, QueryResult

# columnar imports executor, so it must come after.
from repro.engine.columnar import ColumnarExecutor  # noqa: E402

__all__ = [
    "ColumnBatch",
    "ColumnarExecutor",
    "ExecContext",
    "ExecStats",
    "Executor",
    "QueryResult",
]
