"""Per-occurrence reference for the streaming NET session.

:class:`ReferenceNETSession` is :class:`~repro.prediction.NETSession`
fed one occurrence at a time, with the rule written out as directly as
possible.  :meth:`NETSession.observe_batch` must leave exactly the state
a run of :meth:`ReferenceNETSession.observe` over the same occurrences
leaves, batch after batch (``test_streaming_session.py``).
"""

from repro.prediction import NETSession


class ReferenceNETSession(NETSession):
    """The streaming NET rule applied one occurrence per call."""

    __slots__ = ()

    def observe(
        self,
        path_id: int,
        head_uid: int,
        ends_backward: bool,
        num_blocks: int,
    ) -> bool:
        """Feed one path occurrence; True if it triggered a selection.

        ``head_uid``/``ends_backward``/``num_blocks`` are the occurring
        path's static attributes.  An occurrence arrives via a backward
        taken branch exactly when the *previous* occurrence's path ended
        with one.
        """
        index = self._flow
        self._flow = index + 1

        counted = (
            self._prev_ends_backward
            if self.count_backward_arrivals_only
            else True
        )
        self._prev_ends_backward = ends_backward

        counters = self._counters
        if counted:
            count = counters.get(head_uid, 0) + 1
            counters[head_uid] = count
            if count <= self.delay + 1:
                self._increments += 1

        # Hot exactly when the head has accumulated > τ counted
        # arrivals by this occurrence.
        if counters.get(head_uid, 0) <= self.delay:
            return False

        captured = self._captured.get(path_id)
        if captured is None:
            self._captured[path_id] = 1
            self._predicted.append(path_id)
            self._times.append(index)
            self._collection_blocks += num_blocks
            return True
        self._captured[path_id] = captured + 1
        return False
