"""Rendering experiment results next to the paper's published numbers.

Used by ``examples/reproduce_paper.py`` and handy for notebooks: each
``render_*`` function takes the corresponding experiment result object
and returns a printable report block.
"""

from __future__ import annotations

from repro.eval import paper
from repro.eval.experiments import (
    SenseNumberResult,
    Table1Result,
    Table3Result,
)
from repro.linkage.evaluation import LinkageEvaluation
from repro.utils.tables import format_table


def render_table1(result: Table1Result) -> str:
    """Table 1 measured vs paper (counts + shape statistics)."""
    lines = [result.table(), ""]
    en = result.statistics.histograms[("umls", "en")]
    en_paper = paper.TABLE1_POLYSEMY_COUNTS[("umls", "en")]
    share = en[2] / max(sum(en.values()), 1)
    share_paper = en_paper[2] / sum(en_paper.values())
    lines.append(
        format_table(
            ["quantity", "paper", "measured"],
            [
                ["UMLS-EN k=2 share", f"{share_paper:.3f}", f"{share:.3f}"],
                [
                    "UMLS-EN polysemy rate",
                    "~1/200",
                    f"1/{round(1 / max(result.statistics.polysemy_ratio(('umls', 'en')), 1e-9))}",
                ],
            ],
            title="Table 1 — shape check",
        )
    )
    return "\n".join(lines)


def render_sense_number(result: SenseNumberResult) -> str:
    """The §3(i) accuracy grid with the paper headline."""
    by_index = result.best_by_index()
    rows = [
        [index, f"{acc:.3f}"]
        for index, acc in sorted(by_index.items(), key=lambda kv: -kv[1])
    ]
    __, best_acc = result.best()
    tied = sorted(
        index for index, acc in by_index.items() if acc == max(by_index.values())
    )
    lines = [
        format_table(
            ["index", "best accuracy"],
            rows,
            title=(
                f"Sense-number prediction ({result.n_entities} entities, "
                f"k distribution {result.k_distribution})"
            ),
        ),
        "",
        format_table(
            ["quantity", "paper", "measured"],
            [
                ["best accuracy", f"{paper.SENSE_PREDICTION_BEST_ACCURACY:.3f}",
                 f"{best_acc:.3f}"],
                ["best index", paper.SENSE_PREDICTION_BEST_INDEX,
                 ", ".join(tied) + (" (tied)" if len(tied) > 1 else "")],
            ],
            title="§3(i) — headline",
        ),
    ]
    return "\n".join(lines)


def render_table3(result: Table3Result) -> str:
    """Table 3 measured rows with correctness flags."""
    rows = [
        [p.rank, p.term, f"{p.cosine:.4f}", "*" if ok else ""]
        for p, ok in zip(result.propositions, result.correct_flags(), strict=True)
    ]
    lines = [
        format_table(
            ["#", "where", "cosine", "correct"],
            rows,
            title='Table 3 — propositions for "corneal injuries"',
        ),
        f"correct in top 10: paper {paper.TABLE3_CORRECT_IN_TOP10}, "
        f"measured {result.n_correct()}",
    ]
    return "\n".join(lines)


def render_table4(evaluation: LinkageEvaluation) -> str:
    """Table 4 measured vs paper."""
    row = evaluation.as_row()
    return format_table(
        ["quantity", "paper", "measured"],
        [
            [f"Top {k}", f"{paper.TABLE4_PRECISION_AT[k]:.3f}", f"{row[k]:.3f}"]
            for k in (1, 2, 5, 10)
        ],
        title=f"Table 4 — hit@k over {evaluation.n_terms} held-out terms",
    )


def render_polysemy_detection(results: dict[str, float]) -> str:
    """The §2(II) F-measures per classifier with the paper headline."""
    rows = [
        [name, f"{f1:.3f}"]
        for name, f1 in sorted(results.items(), key=lambda kv: -kv[1])
    ]
    best = max(results.values())
    lines = [
        format_table(
            ["classifier", "F-measure"],
            rows,
            title="Polysemy detection (23 features, stratified CV)",
        ),
        f"best F-measure: paper {paper.POLYSEMY_DETECTION_F_MEASURE:.2f}, "
        f"measured {best:.3f}",
    ]
    return "\n".join(lines)
