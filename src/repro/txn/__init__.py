"""Branched transactions: copy-on-write forks, multi-world isolation, merge.

Implements the paper's Sec. 6.2: agents exploring "what-if" hypotheses fork
near-identical database branches, run speculative updates in logical
isolation, roll back all but the winner, and eventually reconcile surviving
branches — with forks and rollbacks cheap enough for thousands of branches.

The durability layer lives here too (:mod:`repro.txn.wal`,
:mod:`repro.txn.replica`): a segmented on-disk write-ahead log every
catalog write appends to before mutating, checkpoints, exact crash
recovery, and log-fed read replicas with bounded-staleness serving.
"""

from repro.txn.branches import Branch, BranchManager
from repro.txn.merge import MergeResult
from repro.txn.replica import ReadReplica, ReplicaPool
from repro.txn.wal import Checkpoint, WalRecord, WriteAheadLog, recover
from repro.txn.write_log import WriteOp

__all__ = [
    "Branch",
    "BranchManager",
    "Checkpoint",
    "MergeResult",
    "ReadReplica",
    "ReplicaPool",
    "WalRecord",
    "WriteAheadLog",
    "WriteOp",
    "recover",
]
