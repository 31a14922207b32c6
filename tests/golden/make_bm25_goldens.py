"""Recompute the ranking-function golden values with plain arithmetic.

Intentionally independent of the package: the scoring formula is restated
here directly so the printed values act as an oracle for the implementation,
and tests/test_acceptance.py scores random corpora with `score` as well.
Run from the repository root: python tests/golden/make_bm25_goldens.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

OUT = Path(__file__).resolve().parent / "bm25_goldens.json"

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


def goldens() -> dict[str, float]:
    d1 = "a b a".split()
    d2 = "b c".split()
    return {
        "idf_two_docs_term_in_one": idf(2, 1),
        "idf_single_doc_term_present": idf(1, 1),
        "two_doc_score_query_a_doc_d1": score(["a"], d1, [d1, d2]),
    }


def main() -> None:
    values = goldens()
    OUT.write_text(json.dumps(values, indent=2) + "\n", encoding="utf-8")
    for name, value in values.items():
        print(f"{name} = {value!r}")


if __name__ == "__main__":
    main()
