"""The library runs without networkx installed.

networkx is a test-only dependency: the oracles under ``tests/`` build
their reference graphs with it.  A fresh interpreter with networkx
blocked must import every ``repro`` module, run a default enrichment
(Step II's graph features) and CLUTO's ``graph`` clustering (Step III),
which both call Louvain on CSR arrays.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PROGRAM = """
import sys
sys.modules["networkx"] = None  # any import of networkx now fails

import importlib, json, pkgutil
import numpy as np
import repro

modules = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in modules:
    importlib.import_module(name)

from repro.clustering import cluster
from repro.scenarios import make_enrichment_scenario
from repro.workflow.pipeline import OntologyEnricher

scenario = make_enrichment_scenario(seed=3, n_concepts=12, docs_per_concept=4)
report = OntologyEnricher(
    scenario.ontology, pos_lexicon=scenario.pos_lexicon
).enrich(scenario.corpus)
matrix = np.random.default_rng(0).random((30, 8))
solution = cluster(matrix, 3, method="graph", seed=0)
print(json.dumps({
    "modules": len(modules),
    "terms": len(report.terms),
    "labels": sorted(set(solution.labels.tolist())),
}))
"""


class TestWithoutNetworkx:
    def test_import_enrich_and_graph_clustering(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-c", PROGRAM],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout)
        assert result["modules"] > 50
        assert result["terms"] > 0
        assert result["labels"] == [0, 1, 2]
