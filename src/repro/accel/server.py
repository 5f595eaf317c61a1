"""The server PE: kernel offload and agent scheduling (Figure 9b).

One PE is designated the server.  It receives the kernel image from
the host (over PCIe), writes it into the accelerator's memory,
announces the image's output regions as write hints (feeding selective
erasing), and walks each idle agent through the
sleep → set-boot-address → wake → execute sequence.
"""

from __future__ import annotations

import typing

from repro.accel.kernel import KernelImage, unpack_data
from repro.accel.mcu import MemoryControllerUnit
from repro.accel.pe import ProcessingElement
from repro.accel.psc import PowerSleepController
from repro.sim import Simulator

#: Server-side image parsing cost per segment, ns (metadata walk).
PARSE_SEGMENT_NS = 1_000.0

#: Per-agent scheduling poll (Figure 10's polling step), ns.
POLL_AGENT_NS = 200.0


class ServerPe:
    """Kernel management running on the designated server PE."""

    def __init__(self, sim: Simulator, mcu: MemoryControllerUnit,
                 psc: PowerSleepController,
                 agents: typing.Sequence[ProcessingElement]) -> None:
        if not agents:
            raise ValueError("the server needs at least one agent")
        self.sim = sim
        self.mcu = mcu
        self.psc = psc
        self.agents = list(agents)
        self.images_loaded = 0
        self.kernels_launched = 0

    # ------------------------------------------------------------------
    # Figure 9b protocol
    # ------------------------------------------------------------------
    def load_image(self, image_bytes: bytes,
                   output_regions: typing.Sequence[
                       typing.Tuple[int, int]] = ()) -> typing.Generator:
        """Process body: parse the image and install its segments.

        ``output_regions`` are (address, size) pairs the kernel will
        write; the server forwards them to the backend as write hints
        while the kernel loads (Section V-A's selective-erasing window).
        Returns the parsed :class:`KernelImage`.
        """
        image = unpack_data(image_bytes)
        yield self.sim.timeout(PARSE_SEGMENT_NS * len(image.segments))
        for address, size in output_regions:
            self.mcu.backend.announce_writes(address, size)
        for segment in image.segments:
            cursor = 0
            while cursor < len(segment.payload):
                chunk = segment.payload[cursor:cursor + 512]
                yield from self.mcu.store(segment.load_address + cursor,
                                          chunk)
                cursor += len(chunk)
        self.images_loaded += 1
        return image

    def launch(self, agent_index: int, image: KernelImage,
               segment_name: str,
               ops: typing.Sequence) -> typing.Generator:
        """Process body: boot one agent into a kernel and run it.

        Follows Figure 9b: poll the agent, PSC-sleep it, install the
        boot address (the segment's entry point), PSC-wake it, and let
        it execute the trace.
        """
        if not 0 <= agent_index < len(self.agents):
            raise ValueError(f"no agent {agent_index}")
        agent = self.agents[agent_index]
        boot_address = image.segment(segment_name).boot_address
        yield self.sim.timeout(POLL_AGENT_NS)
        yield from self.psc.sleep(agent.pe_id)
        # The boot address install is one L2-resident write on the
        # agent's magic address — negligible but not free.
        yield self.sim.timeout(agent.l2.hit_ns)
        yield from self.psc.wake(agent.pe_id)
        self.kernels_launched += 1
        _ = boot_address  # the trace stands in for fetching at the entry
        yield from agent.run_kernel(ops)

    def run_all(self, image: KernelImage, segment_name: str,
                traces: typing.Sequence[typing.Sequence]
                ) -> typing.Generator:
        """Process body: launch one kernel per agent, in parallel."""
        if len(traces) > len(self.agents):
            raise ValueError(
                f"{len(traces)} traces but only {len(self.agents)} agents"
            )
        yield self.sim.fork_join([
            self.launch(i, image, segment_name, trace)
            for i, trace in enumerate(traces)
        ])
