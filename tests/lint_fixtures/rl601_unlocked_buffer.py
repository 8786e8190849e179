"""RL601: shared-memory buffer access outside a with-block on a lock.

The rule scopes itself to classes that assign ``self.shm``, so this
stand-in table triggers it without importing multiprocessing.
"""


class Table:
    def __init__(self, shm, locks):
        self.shm = shm
        self.locks = list(locks)
        self.width = 16

    def peek(self, i):
        # read outside any lock: cross-process ordering is undefined
        return bytes(self.shm.buf[i : i + self.width])

    def poke(self, i, blob):
        with self.locks[0]:
            self.shm.buf[i : i + self.width] = blob  # locked: fine
