"""Shared obs-state hygiene: every test leaves observability disabled."""

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@pytest.fixture(autouse=True)
def reset_obs_state():
    yield
    obs_trace.configure_tracing(None)
    obs_metrics.set_metrics_enabled(False)
    obs_metrics.get_registry().reset()
