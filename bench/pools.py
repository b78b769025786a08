"""Request pools: pinned populations and the seeded, work-stratified draws.

The populations are functions of the pinned corpus alone; ``--seed``
decides which members a run sends and in which order.  A plain random
sample of 400 queries moves ``latency_p95_ms`` by 30% from seed to seed,
because the tail is set by the few queries with large result sets.  So
each population is ranked by a deterministic proxy of the work a request
causes (counts, never timings), thinned to two members per wanted
request, and the seed picks one of each pair: every seed gets the same
distribution of work and a different set of requests.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro import generate_performance_workload
from repro.core.query import ContextQuery, parse_query
from repro.errors import ReproError
from repro.index.searcher import BooleanSearcher

MODE_CONTEXT = "context"
MODE_DISJUNCTIVE = "disjunctive"
DISJUNCTIVE_TOP_K = 10

Outcome = Tuple[str, object]  # ("ok", [(external id, score)]) | (status, error)


class Request(NamedTuple):
    """One benchmark request: wire text plus evaluation mode."""

    text: str
    mode: str


def error_outcome(exc: ReproError) -> Outcome:
    """The error as the serving tier words it."""
    return "error", f"{type(exc).__name__}: {exc}"


def ranking_outcome(results) -> Outcome:
    return "ok", [(hit.external_id, hit.score) for hit in results.hits]


def outcome_of(call) -> Tuple[Outcome, object]:
    """Run ``call``; its ranking or readable error as an outcome, with
    the execution report (``None`` on error)."""
    try:
        results = call()
    except ReproError as exc:
        return error_outcome(exc), None
    return ranking_outcome(results), results.report


def reference_outcome(engine, request: Request) -> Tuple[Outcome, object]:
    """The full ranking from the forced straightforward path of a
    catalog-free flat engine: external ids and float scores, or the
    error text."""
    if request.mode == MODE_DISJUNCTIVE:
        return outcome_of(
            lambda: engine.search_disjunctive(
                request.text, top_k=DISJUNCTIVE_TOP_K, path="straightforward"
            )
        )
    return outcome_of(
        lambda: engine.search(request.text, path="straightforward")
    )


def request_text(query: ContextQuery) -> str:
    """``"kw1 kw2 | pred1 pred2"``: the explicit joiner ``parse_query``
    accepts (``str(ContextQuery)`` renders ``∧`` and does not parse)."""
    text = " ".join(query.keywords) + " | " + " ".join(query.predicates)
    if parse_query(text) != query:
        raise AssertionError(f"request text does not round-trip: {text!r}")
    return text


def analyzed_terms(index, query: ContextQuery) -> Tuple[List[str], List[str]]:
    """Query terms through the index's analyzers, as the engines do."""
    keywords = [index.analyzer.analyze_query_term(w) for w in query.keywords]
    predicates = [
        index.predicate_analyzer.analyze_query_term(m)
        for m in query.predicates
    ]
    if None in keywords or None in predicates:
        raise AssertionError(f"query term removed by analysis: {query}")
    return keywords, predicates


def stratified_sample(
    population: Sequence,
    work: Callable[[object], tuple],
    count: int,
    rng: random.Random,
) -> list:
    """One member from each of ``count`` equal blocks of the population
    ranked by ``work`` (ties by the member itself), in rank order.

    A population of more than two members per block is first thinned,
    evenly along the ranking, to two: the seed then chooses between
    neighbours in work, not across a range of it.
    """
    if len(population) < count:
        raise AssertionError(
            f"population of {len(population)} cannot fill {count} requests"
        )
    ranked = thinned(
        sorted(population, key=lambda member: (work(member), member)),
        2 * count,
    )
    picked = []
    for block in range(count):
        lo = block * len(ranked) // count
        hi = (block + 1) * len(ranked) // count
        picked.append(ranked[rng.randrange(lo, hi)])
    return picked


def thinned(ranked: Sequence, size: int) -> list:
    """``size`` members spaced evenly along a ranking (all, if fewer)."""
    if len(ranked) <= size:
        return list(ranked)
    return [ranked[i * len(ranked) // size] for i in range(size)]


def shuffled(members: list, rng: random.Random) -> list:
    rng.shuffle(members)
    return members


def large_population(
    corpus, index, t_c, per_count, contexts, seed
) -> List[ContextQuery]:
    """Figure-7-shape queries (2-5 keywords, ``per_count`` of each count,
    ``|D_P| >= T_C``) over the ``contexts`` most requested contexts.

    The cut is a time budget, not a model of traffic.  Selection builds
    one view per context and each view costs a scan of the index: 0.04 s
    to select and 0.07 s per shard to re-materialise in the workers, a
    quarter of a second summed over the runs that need the catalog.  At
    full scale the generator yields 2,000 queries over 311 contexts; the
    40 most requested keep 1,229 of them (61%) and drop 271 contexts.
    """
    workload = generate_performance_workload(
        corpus, index, t_c, kind="large", queries_per_count=per_count,
        seed=seed,
    )
    queries = [entry.query for entry in workload.all_queries()]
    frequency = Counter(query.context for query in queries)
    kept = {context for context, _ in frequency.most_common(contexts)}
    return [q for q in queries if q.context in kept]


def heavy_population(index, t_c, contexts, keywords) -> List[ContextQuery]:
    """Three of the most frequent predicates per context (verified
    ``|D_P| >= T_C``) crossed with distinct mid-frequency keywords."""
    searcher = BooleanSearcher(index)
    frequent = sorted(
        index.predicate_vocabulary, key=index.predicate_frequency
    )[-8:]
    heavy = [
        combo
        for combo in itertools.combinations(frequent, 3)
        if searcher.context_size(list(combo)) >= t_c
    ][:contexts]
    terms = [
        term
        for term in sorted(index.vocabulary, key=index.document_frequency)
        if index.document_frequency(term) >= 2
    ]
    middle = len(terms) // 2
    band = terms[middle - keywords // 2: middle - keywords // 2 + keywords]
    return [
        parse_query(f"{keyword} | {' '.join(context)}")
        for context in heavy
        for keyword in band
    ]


class Pools:
    """This seed's request pools and the reference outcome of every
    request that was ever drawn.

    The large-context pool is drawn once per seed and shared by every
    workload that sends large-context requests, conjunctively or
    disjunctively, because the catalog is selected for exactly its
    contexts.
    """

    def __init__(self, corpus, index, t_c, scale, population_seed, rng_for,
                 reference):
        self.reference_engine = reference
        self.outcomes: Dict[Request, Outcome] = {}
        searcher = BooleanSearcher(index)
        # Conjunctive work: the result size sets the scoring cost, the
        # keyword count and list lengths the cost of everything before it.
        # Disjunctive latency follows the same ranking closely enough: a
        # pool drawn this way moves its median by 4% from seed to seed.
        queries, work = {}, {}
        for query in large_population(
            corpus, index, t_c, scale.large_per_count, scale.contexts,
            population_seed,
        ):
            text = request_text(query)
            keywords, predicates = analyzed_terms(index, query)
            queries[text] = query
            work[text] = (
                len(searcher.search_conjunction(keywords, predicates)),
                len(keywords),
                sum(index.document_frequency(w) for w in keywords),
            )
        self.large_ranked = stratified_sample(
            list(work), work.get, scale.requests, rng_for("large-pool")
        )
        # Kept as queries too: view selection reads their contexts.
        self.large_queries = [queries[text] for text in self.large_ranked]
        # Heavy contexts: the context size, then the keyword's list.
        self.heavy_work = {}
        for query in heavy_population(
            index, t_c, scale.heavy_contexts, scale.heavy_keywords
        ):
            keywords, predicates = analyzed_terms(index, query)
            self.heavy_work[request_text(query)] = (
                searcher.context_size(predicates),
                index.document_frequency(keywords[0]),
            )

    def reference(self, requests: Sequence[Request]) -> Dict[Request, Outcome]:
        """Reference outcomes of ``requests`` (computed once each)."""
        for request in requests:
            if request not in self.outcomes:
                self.outcomes[request], _ = reference_outcome(
                    self.reference_engine, request
                )
        return {request: self.outcomes[request] for request in requests}

    def large_requests(self, count, rng, mode=MODE_CONTEXT) -> List[Request]:
        """``count`` of the large-context pool, spaced evenly along its
        work ranking, in shuffled order."""
        texts = thinned(self.large_ranked, count)
        return shuffled([Request(text, mode) for text in texts], rng)

    def heavy_requests(self, count, rng) -> List[Request]:
        texts = stratified_sample(
            list(self.heavy_work), self.heavy_work.get, count, rng
        )
        return shuffled([Request(text, MODE_CONTEXT) for text in texts], rng)

    def mixed_requests(self, count, rng) -> List[Request]:
        """70% context/large, 15% context/heavy, 15% disjunctive, in
        shuffled order."""
        heavy = count * 15 // 100
        disjunctive = count * 15 // 100
        return shuffled(
            self.large_requests(count - heavy - disjunctive, rng)
            + self.heavy_requests(heavy, rng)
            + self.large_requests(disjunctive, rng, MODE_DISJUNCTIVE),
            rng,
        )
