"""Network cost models.

The simulator charges a message of ``size`` bytes from ``src`` to ``dst``:

- ``o_send`` seconds of NIC occupancy at the sender, plus ``size / bandwidth``
  of injection serialization (LogGP's *o* and *G*);
- a wire latency ``topology.latency(src, dst)`` (LogGP's *L*: uniform, or
  cheaper within a node under :class:`HierarchicalTopology`);
- ``o_recv`` seconds of handler overhead at the receiver.

Defaults approximate a Gemini-class torus NIC (the Cray XK6/XE6 machines of
the paper): ~1.5 µs one-way latency, ~5 GB/s injection bandwidth, ~0.2 µs
per-message processing overhead.
"""

from __future__ import annotations

from dataclasses import dataclass


def _validate_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


class Topology:
    """Base class: maps an (src, dst) image pair to a wire latency."""

    def __init__(self, n_images: int):
        if n_images <= 0:
            raise ValueError(f"n_images must be positive, got {n_images}")
        self.n_images = n_images

    def latency(self, src: int, dst: int) -> float:
        """Wire latency of the pair, range-checked."""
        if not (0 <= src < self.n_images and 0 <= dst < self.n_images):
            raise ValueError(
                f"image pair ({src}, {dst}) out of range for "
                f"{self.n_images} images"
            )
        return self.latency_unchecked(src, dst)

    def latency_unchecked(self, src: int, dst: int) -> float:
        """:meth:`latency` for ranks the caller has already validated —
        the transport checks a message's ranks once, in ``send``, and
        looks every transmission's latency up through here."""
        raise NotImplementedError


class UniformTopology(Topology):
    """Every remote pair has the same latency; loopback is cheaper."""

    def __init__(self, n_images: int, wire_latency: float = 1.5e-6,
                 self_latency: float = 1.0e-7):
        super().__init__(n_images)
        _validate_positive("wire_latency", wire_latency)
        _validate_positive("self_latency", self_latency)
        self.wire_latency = wire_latency
        self.self_latency = self_latency

    def latency_unchecked(self, src: int, dst: int) -> float:
        return self.self_latency if src == dst else self.wire_latency


class HierarchicalTopology(Topology):
    """Images are grouped onto nodes; intra-node messages are cheap.

    Models "8 cores per node" placements the paper uses on Jaguar/Hopper.
    """

    def __init__(self, n_images: int, images_per_node: int = 8,
                 intra_latency: float = 4.0e-7,
                 inter_latency: float = 1.5e-6,
                 self_latency: float = 1.0e-7):
        super().__init__(n_images)
        if images_per_node <= 0:
            raise ValueError("images_per_node must be positive")
        _validate_positive("intra_latency", intra_latency)
        _validate_positive("inter_latency", inter_latency)
        self.images_per_node = images_per_node
        self.intra_latency = intra_latency
        self.inter_latency = inter_latency
        self.self_latency = self_latency

    def node_of(self, image: int) -> int:
        return image // self.images_per_node

    def latency_unchecked(self, src: int, dst: int) -> float:
        if src == dst:
            return self.self_latency
        if self.node_of(src) == self.node_of(dst):
            return self.intra_latency
        return self.inter_latency


@dataclass
class MachineParams:
    """LogGP-flavoured machine description shared by the whole stack.

    Attributes
    ----------
    topology:
        Pairwise wire-latency model.
    bandwidth:
        NIC injection bandwidth, bytes/second.
    o_send, o_recv:
        Fixed per-message CPU/NIC overhead at sender / receiver, seconds.
    am_medium_max:
        Maximum medium active-message payload, bytes.  The default (256)
        admits a shipped function carrying exactly 9 packed UTS work
        items (20-byte digest + depth word each, after the spawn header),
        matching the paper's observation that GASNet's medium packet
        size caps a steal at 9 items.
    ack_latency_factor:
        Delivery acknowledgments travel at ``factor * wire latency`` and
        occupy no injection bandwidth (they model NIC-level acks).
    jitter:
        Fractional uniform jitter applied to wire latency (0 disables).
        Nonzero jitter can reorder messages between a pair of images,
        which exercises the no-FIFO-assumption property of the paper's
        termination-detection algorithm.
    flow_credits:
        Outstanding-message credits; ``None`` disables flow control.
        Models GASNet's token-based flow control.
    flow_credit_scope:
        ``"pair"`` pools credits per directed (src, dst) pair;
        ``"source"`` pools them per sending NIC (GASNet node tokens —
        the configuration behind the Fig. 14 bunch-size anomaly).
    flow_stall_penalty:
        Retry-cycle cost charged per stall, scaled by the length of the
        consecutive-stall run (see :mod:`repro.net.flowcontrol`).
    reliable:
        Run the reliable-delivery protocol (link sequence numbers, acks,
        retransmission, receiver-side duplicate suppression) above the
        wire.  Off by default: the perfect interconnect needs none of it
        and the protocol's bookkeeping would only slow simulation down.
    retry_cap:
        Retransmissions allowed per message before the transport raises
        :class:`~repro.net.transport.RetryExhaustedError`.
    rto_safety:
        First retransmission timeout as a multiple of the message's
        nominal round trip (injection + wire + ``o_recv`` + ack return).
        Must exceed 1 or clean-network sends would spuriously retransmit.
    rto_backoff:
        Exponential backoff factor applied to the timeout per retry.
    """

    topology: Topology
    bandwidth: float = 5.0e9
    o_send: float = 2.0e-7
    o_recv: float = 2.0e-7
    am_medium_max: int = 256
    ack_latency_factor: float = 1.0
    jitter: float = 0.0
    flow_credits: int | None = None
    flow_credit_scope: str = "pair"
    flow_stall_penalty: float = 2.0e-7
    reliable: bool = False
    retry_cap: int = 10
    rto_safety: float = 4.0
    rto_backoff: float = 2.0

    def __post_init__(self) -> None:
        _validate_positive("bandwidth", self.bandwidth)
        if self.o_send < 0 or self.o_recv < 0:
            raise ValueError("overheads must be non-negative")
        if self.am_medium_max <= 0:
            raise ValueError("am_medium_max must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.flow_credits is not None and self.flow_credits <= 0:
            raise ValueError("flow_credits must be positive or None")
        if self.flow_credit_scope not in ("pair", "source"):
            raise ValueError("flow_credit_scope must be 'pair' or 'source'")
        if self.flow_stall_penalty < 0:
            raise ValueError("flow_stall_penalty must be non-negative")
        if self.retry_cap < 0:
            raise ValueError("retry_cap must be non-negative")
        if self.rto_safety <= 1.0:
            raise ValueError("rto_safety must exceed 1 (else clean sends "
                             "would spuriously retransmit)")
        if self.rto_backoff < 1.0:
            raise ValueError("rto_backoff must be at least 1")

    @property
    def n_images(self) -> int:
        return self.topology.n_images

    def transfer_time(self, size: int) -> float:
        """Serialization time for ``size`` payload bytes."""
        if size < 0:
            raise ValueError(f"negative message size {size!r}")
        return size / self.bandwidth

    @classmethod
    def uniform(cls, n_images: int, **kwargs) -> "MachineParams":
        """Convenience: a uniform-latency machine with default parameters."""
        topo_kwargs = {}
        for key in ("wire_latency", "self_latency"):
            if key in kwargs:
                topo_kwargs[key] = kwargs.pop(key)
        return cls(topology=UniformTopology(n_images, **topo_kwargs), **kwargs)

