"""Reference for ``wkam.critical._first_cycle``: the depth-first search.

``reference_first_cycle`` is the search ``_first_cycle`` made before it was
built greedily.  For each start in ascending order it walks every simple
path through points above the start, successors in ascending order, and
returns the first path that closes back to the start.  It can take time
exponential in n.
"""

from typing import Optional


def reference_first_cycle(adj: list[list[int]], n: int) -> Optional[tuple[int, ...]]:
    for start in range(n):
        path = [start]
        onpath = {start}
        iters = [iter(adj[start])]
        while iters:
            try:
                nxt = next(iters[-1])
            except StopIteration:
                iters.pop()
                onpath.discard(path.pop())
                continue
            if nxt == start:
                return tuple(path)
            if nxt in onpath or nxt < start:
                continue
            path.append(nxt)
            onpath.add(nxt)
            iters.append(iter(adj[nxt]))
    return None
