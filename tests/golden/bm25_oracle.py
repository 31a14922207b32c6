"""BM25 restated with plain arithmetic, as an oracle for the package's ranking.

Intentionally independent of the package: `idf` and `score` spell out the
formula directly, and tests/test_acceptance.py compares the package's scores and
ranking with `score` on random corpora.
"""

from __future__ import annotations

import math

K1 = 1.2
B = 0.75


def idf(n_docs: int, df_term: int) -> float:
    return math.log((n_docs - df_term + 0.5) / (df_term + 0.5) + 1.0)


def score(query: list[str], doc: list[str], corpus: list[list[str]]) -> float:
    n_docs = len(corpus)
    avg_len = sum(len(d) for d in corpus) / n_docs
    total = 0.0
    for term in query:
        freq = doc.count(term)
        if freq == 0:
            continue
        df_term = sum(1 for d in corpus if term in d)
        norm = K1 * (1.0 - B + B * len(doc) / avg_len)
        total += idf(n_docs, df_term) * freq * (K1 + 1.0) / (freq + norm)
    return total
