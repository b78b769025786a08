"""A self-contained Figure 6 experiment (Section 6.1) at example scale.

Generates a corpus and a TREC-Genomics-style topic set, evaluates every
topic under conventional and context-sensitive ranking, and prints the
per-topic precision@20 / reciprocal-rank series plus the summary the
paper quotes.  For the full-scale version, run
``python examples/reproduce_paper.py --full`` (Figure 6 is its E1).

Run:  python examples/ranking_quality_experiment.py
"""

from repro import ContextSearchEngine, CorpusConfig, generate_corpus
from repro.data import generate_benchmark
from repro.eval import run_quality_comparison


def main():
    print("generating corpus (8,000 citations) and 20 topics...")
    corpus = generate_corpus(CorpusConfig(num_docs=8000, seed=606))
    index = corpus.build_index()
    benchmark = generate_benchmark(
        corpus, index, num_topics=20, min_result_size=30, min_relevant=5, seed=11
    )

    engine = ContextSearchEngine(index)
    comparison = run_quality_comparison(engine, benchmark, k=20)

    print("\ntopic  P@20 conv  P@20 ctx  RR conv  RR ctx   question")
    for outcome in comparison.outcomes:
        print(
            f"Q{outcome.topic_id:<5} {outcome.precision_conventional:^9} "
            f"{outcome.precision_context:^8} "
            f"{outcome.rr_conventional:^7.2f}  {outcome.rr_context:^6.2f}  "
            f"{outcome.question[:50]}..."
        )

    summary = comparison.summary()
    print(
        f"\ncontext-sensitive wins {summary['context_wins']} topics, "
        f"loses {summary['conventional_wins']}, ties {summary['ties']} "
        f"(paper at PubMed scale: 21/30 wins)"
    )
    print(
        f"mean precision@20: {summary['mean_precision_conventional']:.1f} -> "
        f"{summary['mean_precision_context']:.1f} "
        f"(paper: 7.9 -> 10.2)"
    )
    print(
        f"mean reciprocal rank: {summary['mrr_conventional']:.2f} -> "
        f"{summary['mrr_context']:.2f} (paper: 0.62 -> 0.78)"
    )


if __name__ == "__main__":
    main()
