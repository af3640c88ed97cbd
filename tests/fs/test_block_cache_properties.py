"""BlockCache keeps running L1/L2 byte totals instead of re-summing.

The totals are updated on admit, promote, demote, evict and invalidate;
after any sequence of those they must equal the sums over the resident
blocks, for the plain cache and for the fair-share tenant cache whose
victim choice depends on them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.cache import BlockCache
from repro.serve.fairshare import TenantBlockCache
from repro.sim import Simulator

KEYS = [(logical, tag, chunk) for logical in "ab" for tag in "pm" for chunk in range(3)]

_op = st.one_of(
    st.tuples(
        st.just("admit"),
        st.sampled_from(KEYS),
        st.integers(1, 700),
        st.booleans(),
    ),
    st.tuples(st.just("lookup"), st.sampled_from(KEYS)),
    st.tuples(
        st.just("invalidate"),
        st.sampled_from([None, "a", "b"]),
        st.sampled_from([None, "p", "m"]),
        st.sampled_from([None, 0, 1, 2]),
    ),
    st.tuples(st.just("tenant"), st.sampled_from([None, "t1", "t2"])),
)


def _run(cache, sim, ops, tenant):
    for op in ops:
        kind = op[0]
        if kind == "admit":
            cache.admit(op[1], op[2], prefetched=op[3])
        elif kind == "lookup":
            sim.run_process(cache.lookup(op[1]))
        elif kind == "invalidate":
            cache.invalidate(*op[1:])
        else:
            tenant[0] = op[1]
        assert cache.l1_bytes == float(sum(b.nbytes for b in cache._l1.values()))
        assert cache.l2_bytes == float(sum(b.nbytes for b in cache._l2.values()))
        assert cache.l1_bytes <= cache.l1_capacity_bytes
        assert cache.l2_bytes <= cache.l2_capacity_bytes


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_op, max_size=60), l2=st.sampled_from([0.0, 900.0, 2500.0]))
def test_block_cache_totals_match_resident_sums(ops, l2):
    sim = Simulator()
    cache = BlockCache(sim, l1_capacity_bytes=1500, l2_capacity_bytes=l2)
    _run(cache, sim, ops, [None])


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_op, max_size=60))
def test_tenant_cache_totals_match_resident_sums(ops):
    sim = Simulator()
    tenant = [None]
    cache = TenantBlockCache(
        sim,
        quotas={"t1": 600.0, "t2": 300.0},
        tenant_source=lambda: tenant[0],
        l1_capacity_bytes=1500,
        l2_capacity_bytes=900,
    )
    _run(cache, sim, ops, tenant)
    charged = sum(cache.charged_bytes(t) for t in (None, "t1", "t2"))
    assert charged == cache.l1_bytes
