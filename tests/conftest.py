import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# tests that run ``python -m patrolplan.cli`` import the package from src/ too
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

from patrolplan.model import TargetSpec, TargetNetwork, FleetSpec

from oracles import TABLE1


def build_table1_network(seed: int = 2020) -> TargetNetwork:
    """The five published scalar targets on seeded random positions."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 0.5, size=(5, 2))
    targets = [
        TargetSpec(id=k + 1, A=TABLE1["A"][k], Q=TABLE1["Q"][k], H=1.0, R=TABLE1["R"][k])
        for k in range(5)
    ]
    edges = []
    for a in range(5):
        for b in range(a + 1, 5):
            edges.append((a + 1, b + 1, float(np.hypot(*(pos[a] - pos[b])))))
    return TargetNetwork(
        targets=targets,
        edges=edges,
        positions={k + 1: tuple(map(float, pos[k])) for k in range(5)},
    )


@pytest.fixture(scope="session")
def table1_network() -> TargetNetwork:
    return build_table1_network()


@pytest.fixture(scope="session")
def table1_fleet() -> FleetSpec:
    return FleetSpec(num_agents=1)
