"""Fig. 15 — IC-Cache augments SFT and RAG deployments.

Paper (win rate of Gemma-2-2B variants vs Gemma-2-27B):
Natural Questions: 2B 27.1 -> +SFT 29.5 -> +SFT+IC 47.3;
MS MARCO:          2B 41.1 -> +RAG 51.6 -> +RAG+IC 63.3.
"""

import numpy as np

from harness import (
    best_examples_for,
    build_topic_example_bank,
    judged,
    print_table,
    run_once,
)
from repro.baselines.rag import LongRAGRetriever, build_document_store
from repro.baselines.sft import SFTModel
from repro.llm.zoo import get_model_pair
from repro.pipeline import ServeContext
from repro.workload.datasets import SyntheticDataset


def _sft_column(seed: int = 15, n: int = 200):
    small, large = get_model_pair("gemma")
    dataset = SyntheticDataset("natural_questions", scale=0.001, seed=seed)
    bank = build_topic_example_bank(dataset, large, limit=400)
    sft = SFTModel(small, tuned_dataset="natural_questions")
    requests = dataset.online_requests(n)
    reference = [large.generate(r).quality for r in requests]

    plain = [small.generate(r).quality for r in requests]
    tuned = [sft.generate(r).quality for r in requests]
    tuned_ic = [
        sft.generate(r, best_examples_for(bank, r, k=5)).quality
        for r in requests
    ]
    return [
        judged(plain, reference, seed=seed).win_rate * 100,
        judged(tuned, reference, seed=seed).win_rate * 100,
        judged(tuned_ic, reference, seed=seed).win_rate * 100,
    ]


def _rag_column(seed: int = 15, n: int = 200):
    small, large = get_model_pair("gemma")
    dataset = SyntheticDataset("ms_marco", scale=0.001, seed=seed)
    bank = build_topic_example_bank(dataset, large, limit=400)
    documents, index = build_document_store(dataset.topics, seed=seed)
    retriever = LongRAGRetriever(documents, index, top_k=5)
    requests = dataset.online_requests(n)
    reference = [large.generate(r).quality for r in requests]

    plain = [small.generate(r).quality for r in requests]
    rag, rag_ic = [], []
    for request in requests:
        [docs] = retriever.retrieve_batch([ServeContext(request)])
        doc_boost = retriever.boost(docs)
        rag.append(float(np.clip(
            small.generate(request).quality + doc_boost, 0, 1
        )))
        ic_quality = small.generate(
            request, best_examples_for(bank, request, k=5)
        ).quality
        rag_ic.append(float(np.clip(ic_quality + doc_boost, 0, 1)))
    return [
        judged(plain, reference, seed=seed).win_rate * 100,
        judged(rag, reference, seed=seed).win_rate * 100,
        judged(rag_ic, reference, seed=seed).win_rate * 100,
    ]


def test_fig15_sft_and_rag_augmentation(benchmark):
    def experiment():
        return {"sft": _sft_column(), "rag": _rag_column()}

    results = run_once(benchmark, experiment)
    print_table(
        "Fig. 15: IC-Cache on top of SFT (NQ) and RAG (MS MARCO)",
        ["variant", "win rate %"],
        [["Gemma-2B", results["sft"][0]],
         ["  +SFT", results["sft"][1]],
         ["  +SFT+IC", results["sft"][2]],
         ["Gemma-2B (marco)", results["rag"][0]],
         ["  +RAG", results["rag"][1]],
         ["  +RAG+IC", results["rag"][2]]],
    )

    sft = results["sft"]
    rag = results["rag"]
    # Shape: each augmentation helps, and IC adds a large margin on top.
    assert sft[0] < sft[1] < sft[2]
    assert sft[2] > sft[1] + 8
    assert rag[0] < rag[1] < rag[2]
    assert rag[2] > rag[1] + 5
