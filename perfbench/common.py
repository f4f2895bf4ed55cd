"""Pieces shared by the workloads."""

from __future__ import annotations

from contextlib import nullcontext


class Failed:
    """Output of an item whose call raised; the item counts as failed."""

    def __init__(self, exc):
        self.error = f"{type(exc).__name__}: {exc}"


def run_item(tr, name, fn, *args, **kwargs):
    """Call fn, inside a span called ``name`` when tracing.

    An exception ends the item, not the sweep: it comes back as a
    :class:`Failed` so the run can count it and go on.
    """
    try:
        if tr is None:
            return fn(*args, **kwargs)
        return tr.call(name, fn, *args, **kwargs)
    except Exception as exc:  # counted in `failed` and reported with the result
        return Failed(exc)


def ok(output):
    return not isinstance(output, Failed)


def failures(entries):
    """Error messages of the failed items; an entry is one item's output or a tuple of them."""
    out = []
    for entry in entries:
        parts = entry if isinstance(entry, tuple) else (entry,)
        errors = [part.error for part in parts if isinstance(part, Failed)]
        if errors:
            out.append(errors[0])
    return out


def seed_from(rng):
    """A fresh seed for one of cpvi's samplers."""
    return int(rng.integers(0, 2 ** 31 - 1))


def item_span(tr, name):
    """Root span of one item when tracing, else nothing."""
    return nullcontext() if tr is None else tr.item(name)
