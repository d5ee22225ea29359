"""Fixture: environment switches inside a deterministic package."""

import os
import os as operating_system
from os import getenv


def profiling_enabled():
    return os.environ.get("SERVICE_PROFILE", "") not in ("", "0")


def ring_megabytes():
    return int(os.getenv("RING_MB", "16"))


def debug_level():
    return operating_system.environ["DEBUG_LEVEL"]


def trace_dir():
    return getenv("TRACE_DIR")
