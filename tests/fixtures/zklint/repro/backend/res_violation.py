"""Seeded RES-001 violation: a forked helper nobody reaps."""

import multiprocessing


def partial_sum(work, values: list) -> int:
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=work, args=(values,))
    proc.start()
    # No try/finally and no join: any exception below — or the normal
    # return — leaves the child running with nobody holding its handle.
    return sum(values)
