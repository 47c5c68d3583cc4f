import pytest

from fprw import mc, parallel
from fprw.errors import ConfigError
from fprw.factors import cyclic_group, flip_group
from fprw.product import FreeProductSpec


@pytest.mark.parametrize("raw, threads", [(None, 1), ("1", 1), ("3", 3), (" 2 ", 2)])
def test_requested_threads(monkeypatch, raw, threads):
    if raw is None:
        monkeypatch.delenv("FPRW_THREADS", raising=False)
    else:
        monkeypatch.setenv("FPRW_THREADS", raw)
    assert parallel.requested_threads() == threads


@pytest.mark.parametrize("raw", ["abc", "", "1.5", "0", "-2"])
def test_bad_thread_count_is_a_config_error(monkeypatch, raw):
    monkeypatch.setenv("FPRW_THREADS", raw)
    with pytest.raises(ConfigError, match="FPRW_THREADS"):
        parallel.requested_threads()


@pytest.mark.parametrize(
    "ntasks, threads, cpus, workers",
    [(10, 8, 4, 4), (2, 8, 4, 2), (10, 1, 4, 1), (10, 3, 4, 3), (0, 4, 4, 1), (10, 4, None, 1)],
)
def test_worker_count_clamps(monkeypatch, ntasks, threads, cpus, workers):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    assert parallel.worker_count(ntasks, threads) == workers


def test_two_workers_match_one(monkeypatch):
    # two blocks over at most two worker processes
    monkeypatch.setattr(mc, "_SIM_BLOCK", 500)
    spec = FreeProductSpec((flip_group(), cyclic_group(3, (0.0, 0.5, 0.5))), (0.5, 0.5))
    monkeypatch.setenv("FPRW_THREADS", "1")
    serial = mc.simulate(spec, steps=10, walks=1000, seed=3)
    monkeypatch.setenv("FPRW_THREADS", "2")
    assert mc.simulate(spec, steps=10, walks=1000, seed=3) == serial
