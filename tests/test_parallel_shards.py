"""``make_sharded``: which facade it builds for a given shard count.

More than one shard gives a serial :class:`ShardedPruner`; a single
shard gives the bare pruner with no facade around it.
"""

from repro.cluster.runtime import ShardedPruner, make_sharded
from repro.core import DistinctPruner

SHARDS = 3


def _distinct_factory(seed=7):
    return lambda: DistinctPruner(rows=256, width=2, seed=seed)


class TestMakeShardedFlag:
    def test_serial_default(self):
        pruner = make_sharded(_distinct_factory(), SHARDS, None, seed=0)
        assert type(pruner) is ShardedPruner
        assert len(pruner.per_shard_stats()) == SHARDS

    def test_single_shard_is_bare(self):
        pruner = make_sharded(_distinct_factory(), 1, None, seed=0)
        assert isinstance(pruner, DistinctPruner)
