"""SIM008: processes spawned only to be waited on."""


class Link:
    def __init__(self, sim):
        self.sim = sim

    def transfer(self, size):
        yield self.sim.timeout(size)

    def send(self, size):
        # A bootstrap and a completion for a body that runs alone.
        yield self.sim.process(self.transfer(size))

    def send_all(self, sizes):
        yield self.sim.all_of([self.sim.process(self.transfer(size))
                               for size in sizes])

    def send_each(self, sizes):
        pending = [self.sim.process(self.transfer(size)) for size in sizes]
        yield self.sim.all_of(pending)

    def send_kept(self, size):
        yield self.sim.process(self.transfer(size))  # noqa: SIM008
