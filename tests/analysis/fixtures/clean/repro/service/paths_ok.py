"""Fixture: ``os`` used for paths and file handles only, never the environment."""

import os


def checkpoint_path(directory, name):
    return os.path.join(os.fspath(directory), name)


def sync(handle):
    handle.flush()
    os.fsync(handle.fileno())
