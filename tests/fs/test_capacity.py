"""Device capacity follows the stored bytes through overwrite and append.

An overwrite releases the replaced object's capacity, an append charges
only the appended bytes, and a delete releases everything -- on the
single-device ``LocalFS`` and across the striped ``PVFS`` targets alike.
"""

import pytest

from repro.fs import LocalFS, PVFS, StorageTarget
from repro.sim import Simulator
from repro.storage import Device, NVME_SSD_256GB, WD_1TB_HDD


def _localfs(sim):
    fs = LocalFS(sim, NVME_SSD_256GB, name="ssd")
    return fs, lambda: fs.device.used_bytes


def _pvfs(sim):
    targets = [
        StorageTarget(Device(sim, WD_1TB_HDD, name=f"h{i}")) for i in range(3)
    ]
    fs = PVFS(sim, targets, stripe_size=400)
    return fs, lambda: sum(t.device.used_bytes for t in targets)


@pytest.fixture(params=[_localfs, _pvfs], ids=["localfs", "pvfs"])
def fs_used(request):
    sim = Simulator()
    fs, used = request.param(sim)
    return sim, fs, used


def test_overwrite_releases_the_replaced_object(fs_used):
    sim, fs, used = fs_used
    for _ in range(5):
        sim.run_process(fs.write("obj", data=b"x" * 1000))
    assert used() == 1000
    sim.run_process(fs.write("obj", data=b"y" * 300))
    assert used() == 300
    assert fs.delete("obj") == 300
    assert used() == 0


def test_append_charges_only_the_appended_bytes(fs_used):
    sim, fs, used = fs_used
    for k in range(7):
        obj = sim.run_process(fs.write("log", data=bytes([k]) * 250, append=True))
        assert obj.nbytes == 250
        assert used() == 250 * (k + 1)
    assert fs.data("log") == b"".join(bytes([k]) * 250 for k in range(7))
    fs.delete("log")
    assert used() == 0


def test_pvfs_append_stripes_at_the_object_end():
    sim = Simulator()
    fs, _ = _pvfs(sim)
    for _ in range(5):
        sim.run_process(fs.write("log", data=b"z" * 300, append=True))
    # 1500 B in 400 B stripes: 400 + 400 + 400 on h0..h2, then 300 on h0.
    assert [t.device.used_bytes for t in fs.targets] == [700, 400, 400]
    fs.delete("log")
    assert all(t.device.used_bytes == 0 for t in fs.targets)


def test_concurrent_appends_keep_every_byte_and_the_charge(fs_used):
    sim, fs, used = fs_used
    procs = [
        sim.process(fs.write("log", data=bytes([k]) * 450, append=True))
        for k in range(4)
    ]
    sim.run()
    assert all(p.ok for p in procs)
    assert fs.nbytes("log") == used() == 1800
    if isinstance(fs, PVFS):
        # Appends that raced re-striped their reservations at the real end.
        assert [t.device.used_bytes for t in fs.targets] == fs.stripe_layout(1800)
    assert sorted(fs.data("log")) == sorted(
        b"".join(bytes([k]) * 450 for k in range(4))
    )


def test_rewrite_moves_the_charge(fs_used):
    sim, fs, used = fs_used
    sim.run_process(fs.write("obj", data=b"x" * 1000))
    fs.rewrite("obj", b"x" * 200)
    assert fs.data("obj") == b"x" * 200
    assert used() == 200
    fs.rewrite("obj", b"x" * 900)
    assert used() == 900
