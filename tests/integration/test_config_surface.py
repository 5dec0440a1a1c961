"""The configuration surface: every settable value of the run-level
configuration objects.

An option stays settable only while two callers outside the tests set
it to different values; any other value is a module constant.  A change
that adds or removes a knob therefore edits this list in its own diff.
"""

import dataclasses
import inspect

import pytest

from repro import FailureConfig, MachineParams
from repro.apps.producer_consumer import PCConfig
from repro.apps.uts import UTSConfig
from repro.explore import Explorer
from repro.explore.fuzz import FuzzConfig
from repro.net.flowcontrol import CreditManager


def _knobs(obj) -> list[str]:
    if dataclasses.is_dataclass(obj):
        return [f.name for f in dataclasses.fields(obj)]
    return [name for name in inspect.signature(obj).parameters
            if name != "self"]


SURFACE = {
    MachineParams: ["n_images", "wire_latency", "self_latency",
                    "bandwidth", "o_send", "o_recv", "am_medium_max",
                    "ack_latency_factor", "jitter", "flow_credits",
                    "reliable", "retry_cap"],
    FailureConfig: ["period", "timeout", "recover", "detector",
                    "confirm_timeout"],
    UTSConfig: ["tree", "node_cost", "init_sharing_depth", "detector"],
    PCConfig: ["iterations", "variant"],
    FuzzConfig: ["budget", "seed", "max_findings", "minimize_budget",
                 "sync_every", "lag_steps"],
    CreditManager.__init__: ["sim", "credits", "stats"],
    Explorer.run_strategy: ["strategy"],
}


@pytest.mark.parametrize("obj", SURFACE, ids=lambda obj: obj.__qualname__)
def test_settable_values(obj):
    assert _knobs(obj) == SURFACE[obj]
