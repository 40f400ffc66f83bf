"""Reports and rankings do not depend on the string hash seed.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so a set
of strings iterates in a different order in every process.  Any sum or
tie-break that follows such an order changes the output from one run to
the next.  The sweep runs the golden enrichment scenario and every
Step I measure's full ranking in two processes with different hash
seeds, and requires the same bytes from both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

from test_golden_enrichment import CONFIG_KWARGS, SCENARIO_KWARGS

# Prints the golden scenario's report (without its timings and cache
# counters) and the full ranking of every measure, floats bit for bit.
SWEEP = """
import json, sys
from repro.extraction.extractor import BioTexExtractor
from repro.extraction.measures import MEASURE_NAMES
from repro.scenarios import make_enrichment_scenario
from repro.text.postag import LexiconTagger
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import OntologyEnricher

scenario_kwargs, config_kwargs = json.loads(sys.argv[1])
scenario_kwargs["polysemy_histogram"] = {
    int(k): v for k, v in scenario_kwargs["polysemy_histogram"].items()
}
scenario = make_enrichment_scenario(**scenario_kwargs)
report = OntologyEnricher(
    scenario.ontology,
    config=EnrichmentConfig(**config_kwargs),
    pos_lexicon=scenario.pos_lexicon,
).enrich(scenario.corpus).to_dict()
del report["timings"], report["cache"]
extractor = BioTexExtractor(tagger=LexiconTagger(scenario.pos_lexicon))
rankings = {
    measure: [
        [term.term, term.score.hex(), term.frequency]
        for term in extractor.extract(scenario.corpus, measure=measure)
    ]
    for measure in MEASURE_NAMES
}
print(json.dumps({"report": report, "rankings": rankings}))
"""


class TestHashSeedSweep:
    def test_report_and_rankings_ignore_the_string_hash_seed(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        arguments = json.dumps([SCENARIO_KWARGS, CONFIG_KWARGS])
        runs = [
            subprocess.run(
                [sys.executable, "-c", SWEEP, arguments],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                check=True,
                timeout=300,
            ).stdout
            for seed in ("0", "1")
        ]
        first, second = (json.loads(run) for run in runs)
        terms = first["report"]["terms"]
        assert len(terms) == CONFIG_KWARGS["n_candidates"]
        assert any(term["propositions"] for term in terms)
        assert all(len(ranking) > 1000 for ranking in first["rankings"].values())
        # Compare section by section: a diff of the whole output is slow.
        same = first["report"] == second["report"]
        assert same, "the report differs between hash seeds 0 and 1"
        for measure, ranking in first["rankings"].items():
            same = ranking == second["rankings"][measure]
            assert same, f"the {measure} ranking differs between hash seeds 0 and 1"
        same = runs[0] == runs[1]
        assert same, "the output's bytes differ between hash seeds 0 and 1"
