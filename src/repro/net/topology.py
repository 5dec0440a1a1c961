"""Network cost model.

The simulator charges a message of ``size`` bytes from ``src`` to ``dst``:

- ``o_send`` seconds of NIC occupancy at the sender, plus ``size / bandwidth``
  of injection serialization (LogGP's *o* and *G*);
- a wire latency (LogGP's *L*): ``wire_latency`` between any two images,
  ``self_latency`` for a message an image sends itself;
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


@dataclass
class MachineParams:
    """LogGP-flavoured machine description shared by the whole stack.

    Attributes
    ----------
    n_images:
        Number of images the machine runs.
    wire_latency:
        One-way latency between two distinct images, seconds.
    self_latency:
        Latency of a message an image sends itself, seconds.
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
        Outstanding-message credits per sending image; ``None`` disables
        flow control.  Models GASNet's per-node token pool, the
        mechanism behind the Fig. 14 bunch-size anomaly
        (:mod:`repro.net.flowcontrol`).
    reliable:
        Run the reliable-delivery protocol (link sequence numbers, acks,
        retransmission, receiver-side duplicate suppression) above the
        wire.  Off by default: the perfect interconnect needs none of it
        and the protocol's bookkeeping would only slow simulation down.
    retry_cap:
        Retransmissions allowed per message before the transport raises
        :class:`~repro.net.transport.RetryExhaustedError`.
    """

    n_images: int
    wire_latency: float = 1.5e-6
    self_latency: float = 1.0e-7
    bandwidth: float = 5.0e9
    o_send: float = 2.0e-7
    o_recv: float = 2.0e-7
    am_medium_max: int = 256
    ack_latency_factor: float = 1.0
    jitter: float = 0.0
    flow_credits: int | None = None
    reliable: bool = False
    retry_cap: int = 10

    def __post_init__(self) -> None:
        if self.n_images <= 0:
            raise ValueError(
                f"n_images must be positive, got {self.n_images}")
        _validate_positive("wire_latency", self.wire_latency)
        _validate_positive("self_latency", self.self_latency)
        _validate_positive("bandwidth", self.bandwidth)
        if self.o_send < 0 or self.o_recv < 0:
            raise ValueError("overheads must be non-negative")
        if self.am_medium_max <= 0:
            raise ValueError("am_medium_max must be positive")
        if self.ack_latency_factor < 0:
            raise ValueError(
                f"ack_latency_factor must be non-negative, got "
                f"{self.ack_latency_factor!r}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.flow_credits is not None and self.flow_credits <= 0:
            raise ValueError("flow_credits must be positive or None")
        if self.retry_cap < 0:
            raise ValueError("retry_cap must be non-negative")

    def transfer_time(self, size: int) -> float:
        """Serialization time for ``size`` payload bytes."""
        if size < 0:
            raise ValueError(f"negative message size {size!r}")
        return size / self.bandwidth

    @classmethod
    def uniform(cls, n_images: int, **kwargs) -> "MachineParams":
        """A machine of ``n_images`` images with default parameters, any
        field overridden by keyword (``wire_latency=``, ``jitter=``, …)."""
        return cls(n_images, **kwargs)
