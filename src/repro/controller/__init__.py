"""Hardware-automated PRAM controller (Sections III-B and V).

The controller replaces the SSD-style firmware the paper shows to be a
bottleneck (Figure 7).  Pieces:

* :mod:`~repro.controller.request` — the read/write message format the
  server's MCU sends over the on-chip buses;
* :mod:`~repro.controller.scheduler` — the four policies of Figure 13
  (bare-metal, interleaving, selective-erasing, final);
* :mod:`~repro.controller.channel` — one LPDDR2-NVM channel: walks
  its own rows of each request (the stripe order is the address map's),
  rotates each module's row-buffer pairs, and drives module phases as
  simulation processes, applying phase skipping and the selected
  policy.  What the PHY, the datapath and the initializer contribute
  reduces to three facts there: a command packet costs one tCK of the
  400 MHz clock, an operand is 1 to 32 bytes (the 256-bit load/store
  registers), and boot-up lies outside every measured interval, so it
  costs nothing;
* :mod:`~repro.controller.controller` — the two-channel subsystem the
  accelerator's MCU talks to;
* :mod:`~repro.controller.firmware` — the traditional-firmware baseline
  (3-core 500 MHz embedded CPU) used by "DRAM-less (firmware)";
* :mod:`~repro.controller.wear_level` — the row remaps under the
  channels: start-gap wear leveling and bad-row retirement.
"""

from repro.controller.channel import ChannelController
from repro.controller.controller import PramSubsystem
from repro.controller.firmware import FirmwareModel
from repro.controller.request import MemoryRequest, Op
from repro.controller.scheduler import SchedulerPolicy, WriteHintStore
from repro.controller.wear_level import GapMove, StartGapMapper

__all__ = [
    "ChannelController",
    "FirmwareModel",
    "GapMove",
    "MemoryRequest",
    "Op",
    "PramSubsystem",
    "SchedulerPolicy",
    "StartGapMapper",
    "WriteHintStore",
]
