"""Fixture: an environment read outside the deterministic packages is allowed."""

import os


def smoke_mode():
    return os.environ.get("SMOKE", "") == "1"
