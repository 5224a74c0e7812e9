"""The child service is always reaped and its directory removed."""

import os

import pytest

from benchmarks.ledger.child import Service, ServiceError
from benchmarks.ledger.inputs import TopologySpec
from repro.workloads import workload_seed


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_a_child_that_fails_to_start_is_reaped_and_cleaned_up():
    service = Service(1, register=(TopologySpec("no_such_shape", 1, 1),))
    with pytest.raises(ServiceError, match="never announced"):
        with service:
            service.start()
    assert service._process is None
    assert not service.work_dir.exists()


def test_an_exception_mid_run_still_kills_the_child_and_removes_its_dir():
    spec = TopologySpec("diamond", workload_seed(1, "diamond"), 1)
    service = Service(1, register=(spec,))
    with pytest.raises(RuntimeError, match="mid-run"):
        with service:
            service.start()
            pid = service.pid
            assert service.client.readyz()["ready"]
            assert (service.data_dir / "wal").is_dir()
            raise RuntimeError("mid-run failure")
    assert _gone(pid)
    assert not service.work_dir.exists()


def test_restart_recovers_on_the_same_directory_with_a_new_process():
    spec = TopologySpec("diamond", workload_seed(1, "diamond"), 1)
    with Service(1, preload=(spec,), preload_minutes=5) as service:
        service.start()
        first = service.pid
        before = service.client.state_hash()["content_hash"]
        service.restart()
        assert service.pid != first and _gone(first)
        assert service.client.state_hash()["content_hash"] == before
        assert service.peak_rss_mb() > 1.0
