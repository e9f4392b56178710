"""Per-run correctness checks; every problem found counts operations as failed.

An operation is one chunk request on the fleet workloads and one frame on
``sr-client``.  A check that concerns the whole run fails every operation
of that run; a check on one session fails that session's chunks.
"""

from __future__ import annotations

import numpy as np


def frame_problems(cloud, expected_points: int) -> list[str]:
    """Problems with one super-resolved frame (empty list when correct)."""
    problems = []
    if len(cloud) != expected_points:
        problems.append(f"frame has {len(cloud)} points, expected {expected_points}")
    if not np.isfinite(cloud.positions).all():
        problems.append("frame has non-finite positions")
    if cloud.colors is None or len(cloud.colors) != len(cloud):
        problems.append("frame is missing per-point colours")
    elif not np.isfinite(cloud.colors).all():
        problems.append("frame has non-finite colours")
    return problems


def fleet_problems(result, flows: dict | None = None) -> tuple[list[str], int]:
    """Problems with one ``simulate_fleet`` result and the chunks they fail.

    ``flows`` holds the scheduler counters a traced run measures
    (``flows_added``, ``completions``, ``flows_cancelled``); untraced runs
    pass ``None`` and skip the flow-draining identity.
    """
    rep = result.report
    chunks = sum(s.n_chunks for s in result.sessions)
    problems = []
    session_bytes = sum(s.total_bytes for s in result.sessions)
    if session_bytes != rep.total_bytes:
        problems.append(
            f"session bytes {session_bytes} != report total_bytes {rep.total_bytes}"
        )
    weighted = sum((k + 1) * n for k, n in enumerate(rep.retry_attempts))
    if rep.chunk_retries != weighted:
        problems.append(
            f"chunk_retries {rep.chunk_retries} != sum((k+1)*retry_attempts[k]) "
            f"{weighted}"
        )
    if len(result.session_specs) != len(result.sessions):
        problems.append(
            f"{len(result.sessions)} session results for "
            f"{len(result.session_specs)} sessions"
        )
    if flows is not None and flows["flows_added"] != (
        flows["completions"] + flows["flows_cancelled"]
    ):
        problems.append(
            f"flows added {flows['flows_added']} != completions "
            f"{flows['completions']} + cancelled {flows['flows_cancelled']}"
        )
    if problems:
        return problems, chunks
    failed = 0
    for i, (res, spec) in enumerate(zip(result.sessions, result.session_specs)):
        if res.watched_seconds > spec.spec.duration + 1e-9:
            problems.append(
                f"session {i} watched {res.watched_seconds:.3f} s of a "
                f"{spec.spec.duration:.3f} s video"
            )
            failed += res.n_chunks
    return problems, failed
