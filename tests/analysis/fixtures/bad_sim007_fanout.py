"""SIM007: same-instant fan-out onto process bodies with unguarded writes."""


class Pool:
    def __init__(self, sim):
        self.sim = sim
        self.last_worker = None

    def worker(self, index):
        yield self.sim.timeout(1.0)
        self.last_worker = index

    def boss(self):
        for index in range(4):
            # Every worker bootstraps at the same simulated instant.
            self.sim.process(self.worker(index))
        yield self.sim.timeout(10.0)

    def comprehension_boss(self):
        procs = [self.sim.process(self.worker(i)) for i in range(4)]
        yield self.sim.all_of(procs)  # noqa: SIM008
