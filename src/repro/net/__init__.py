"""Simulated interconnect: the GASNet-shaped communication substrate.

Layers, bottom to top:

- :mod:`repro.net.topology` — where latency comes from (uniform and
  node-hierarchical models) and the LogGP-flavoured machine parameters;
- :mod:`repro.net.transport` — NICs with serialized injection, message
  delivery, optional delivery acknowledgments and jitter;
- :mod:`repro.net.flowcontrol` — credit-based limits on outstanding
  messages (models the GASNet flow control behind the paper's Fig. 14
  anomaly);
- :mod:`repro.net.active_messages` — GASNet-style active messages
  (short/medium/long, with the medium-payload cap that limits UTS steal
  batches to 9 work items in the paper).

One-sided data movement is not a layer here: ``copy_async``
(:mod:`repro.core.copy_async`) sends its puts and gets as active
messages, like every other operation of the runtime.
"""

from repro.net.topology import (
    MachineParams,
    Topology,
    UniformTopology,
    HierarchicalTopology,
)
from repro.net.transport import Message, Network
from repro.net.flowcontrol import CreditManager
from repro.net.active_messages import (
    AMLayer,
    AMCategory,
    AMSizeError,
)

__all__ = [
    "MachineParams",
    "Topology",
    "UniformTopology",
    "HierarchicalTopology",
    "Message",
    "Network",
    "CreditManager",
    "AMLayer",
    "AMCategory",
    "AMSizeError",
]
