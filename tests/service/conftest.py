"""Fixtures for the serving-layer tests.

The CI matrix runs this directory once per execution backend by
exporting ``REPRO_BACKEND`` (``serial`` / ``process``); tests that take
the ``service_backend`` fixture are transparently re-pointed at the
selected backend.  Unset, the default is ``serial`` — the backend both
sync services use out of the box.
"""

from __future__ import annotations

import os

import pytest

from repro.service import backend_from_name


def configured_backend_name() -> str:
    """The backend name the environment selected (default ``serial``)."""
    return os.environ.get("REPRO_BACKEND", "serial")


@pytest.fixture
def service_backend():
    """A fresh instance of the environment-selected execution backend."""
    backend = backend_from_name(configured_backend_name(), workers=2)
    yield backend
    backend.close()
