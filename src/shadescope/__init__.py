"""Directory-visibility analysis toolkit for I2P-style overlays.

The package root exports the names that the README's library example and
the benchmark harness (``perfbench/``) use; everything else is imported
from its module (``shadescope.dht``, ``shadescope.sim``, ...).
"""

from .encoding import hash_to_b32, hash_to_b64
from .netdb import load_netdb_dir
from .protocol import ProbePlan, SnapshotSource, classify_remote, shade8_certificate
from .sim import NetworkSpec, export_curves, generate_network, run_probe_experiment
from .wire import encode_router_info

__version__ = "0.1.0"

__all__ = [
    "NetworkSpec",
    "ProbePlan",
    "SnapshotSource",
    "classify_remote",
    "encode_router_info",
    "export_curves",
    "generate_network",
    "hash_to_b32",
    "hash_to_b64",
    "load_netdb_dir",
    "run_probe_experiment",
    "shade8_certificate",
]
