"""Shared test settings: property tests run the same examples on every run.
Shared fixtures: traces large enough for fit-ringdown to fork a worker."""

import math

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def large_traces(tmp_path_factory):
    """Paths of two noisy ring-down CSVs, each more than the trace bytes
    that fit-ringdown forks a worker for (cli._FORK_MIN_SHARE_BYTES)."""
    from cavitycharge import cli
    from cavitycharge.ringdown import synthesize_trace

    base = tmp_path_factory.mktemp("large_traces")
    samples = cli._FORK_MIN_SHARE_BYTES // 30  # about 40 bytes a row
    paths = []
    for k, linewidth in enumerate((500e3, 540e3)):
        duration = 8.0 / (2.0 * math.pi * linewidth)
        tr = synthesize_trace(1.0, linewidth, duration, samples / duration, 0.01, k)
        path = base / f"large_{k}.csv"
        rows = zip(tr.times.tolist(), tr.voltages.tolist())
        path.write_text("t_seconds,v_volts\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows))
        assert path.stat().st_size > cli._FORK_MIN_SHARE_BYTES
        paths.append(str(path))
    return paths
