"""Inter-thread signalling.

The paper's EDF rules forbid blocking synchronization between admitted
tasks ("a task must be willing to accept its allocation at any point in
the period"); non-blocking synchronization is acceptable, and a task
that does block simply voids its guarantee for the affected periods.

:class:`Channel` supports both styles:

* non-blocking: a task polls :attr:`ready` / calls :meth:`try_take`
  (the Figure 4 data-management threads poll — the paper calls the
  resulting spin "a bug in the application");
* blocking: a task yields ``Block(channel)`` and is woken by the next
  :meth:`post`, regaining its guarantees in the following full period.

A kernel that parks a thread on a channel registers itself with
:meth:`watch`; every later :meth:`post` flags that kernel, so its wake
scan only runs after something was posted.
"""

from __future__ import annotations


class Channel:
    """A counting event channel (post/take semantics)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._pending = 0
        self._posts = 0
        #: Kernels that parked a thread here; each post flags them.
        self._kernels: list = []

    @property
    def ready(self) -> bool:
        """Non-blocking poll: is at least one post available?"""
        return self._pending > 0

    @property
    def pending(self) -> int:
        return self._pending

    @property
    def total_posts(self) -> int:
        return self._posts

    def post(self, count: int = 1) -> None:
        """Make ``count`` items available, waking blocked takers."""
        if count <= 0:
            raise ValueError(f"post count must be positive, got {count}")
        self._pending += count
        self._posts += count
        for kernel in self._kernels:
            kernel.note_channel_post()

    def watch(self, kernel) -> None:
        """Flag ``kernel`` on every later post (a thread blocked here)."""
        if kernel not in self._kernels:
            self._kernels.append(kernel)

    def try_take(self) -> bool:
        """Consume one item if available (non-blocking)."""
        if self._pending > 0:
            self._pending -= 1
            return True
        return False
