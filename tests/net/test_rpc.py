"""The method table: its keys against every other copy of the RPC names,
and a row being all a new RPC costs."""

import asyncio

from repro.analysis import summaries
from repro.distributed.site import LocalSite
from repro.net.aio import AsyncRemoteSiteProxy
from repro.net.rpc import METHODS, Method
from repro.net.transport import SURFACE, SiteEndpoint


def test_every_copy_of_the_rpc_names_agrees_with_the_table():
    """skylint keeps its own name set (it must not import what it
    analyses at scan time); this is the guard against its drifting."""
    table = set(METHODS)
    declared = set(SURFACE)
    assert declared == {
        "prepare",
        "pop_representative",
        "probe_and_prune",
        "probe_and_prune_batch",
        "queue_size",
    }
    assert all(callable(getattr(SiteEndpoint, name)) for name in declared)
    assert declared <= table
    # Everything the table adds to the protocol surface: the strawman
    # bulk shipments (protocol messages too) and the transport's own
    # liveness check (not one: never billed, never reaches the site).
    assert table - declared == {"ship_all", "ship_local_skyline", "ping"}
    assert [name for name, row in METHODS.items() if not row.hosted] == ["ping"]
    messages = table - {"ping"}
    assert messages <= summaries.RPC_METHODS
    assert "ping" not in summaries.RPC_METHODS
    for name, row in METHODS.items():
        assert not row.hosted or callable(getattr(LocalSite, name)), name
    assert [name for name, row in METHODS.items() if not row.idempotent] == [
        "pop_representative"
    ]


def test_a_table_row_is_the_whole_cost_of_a_new_rpc(cluster, monkeypatch):
    """``LocalSite.partition_digest`` exists but was never on the wire:
    one row later the server dispatches it and the proxy offers it."""
    c, db = cluster
    expected = LocalSite(0, db[0::3]).partition_digest()
    assert not hasattr(AsyncRemoteSiteProxy(0, c.servers[0].address), "partition_digest")
    monkeypatch.setitem(METHODS, "partition_digest", Method())

    async def scenario():
        proxy = await AsyncRemoteSiteProxy.connect(0, c.servers[0].address)
        try:
            return await proxy.partition_digest()
        finally:
            await proxy.close()

    assert asyncio.run(scenario()) == expected
