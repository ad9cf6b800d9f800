"""Deterministic synthetic corpus and query generator for the test suite.

Documents are grouped into topics with disjoint vocabularies plus a small
pool of shared filler words; a little vocabulary bleed into the next
topic gives rankings a graded overlap structure. Queries sample terms
from one topic, so the top of each ranking is on-topic with scores that
decay down the list.
"""

from __future__ import annotations

import json
import random

import numpy as np

TOPICS = {
    "baking": [
        "flour", "dough", "yeast", "oven", "bread", "crust", "knead",
        "bake", "loaf", "sourdough", "starter", "crumb", "proof", "wheat",
    ],
    "astronomy": [
        "star", "galaxy", "orbit", "telescope", "planet", "comet", "nebula",
        "lunar", "solar", "eclipse", "asteroid", "cosmic", "meteor", "gravity",
    ],
    "gardening": [
        "soil", "seed", "compost", "bloom", "garden", "prune", "mulch",
        "root", "stem", "petal", "pollen", "sprout", "weed", "harvest",
    ],
    "sailing": [
        "sail", "hull", "anchor", "harbor", "tide", "rudder", "mast",
        "crew", "knot", "voyage", "deck", "keel", "breeze", "cargo",
    ],
    "cooking": [
        "simmer", "spice", "broth", "saute", "garlic", "onion", "pepper",
        "roast", "grill", "sauce", "stew", "marinade", "chop", "flavor",
    ],
    "finance": [
        "budget", "invest", "stock", "bond", "dividend", "profit", "margin",
        "asset", "equity", "credit", "loan", "interest", "audit", "ledger",
    ],
    "medicine": [
        "dose", "symptom", "therapy", "diagnosis", "clinic", "patient",
        "vaccine", "immune", "chronic", "remedy", "surgeon", "recovery",
        "prescription", "ailment",
    ],
    "music": [
        "chord", "melody", "rhythm", "tempo", "harmony", "verse", "chorus",
        "bass", "treble", "octave", "scale", "lyric", "ballad", "tune",
    ],
    "hiking": [
        "trail", "summit", "ridge", "valley", "terrain", "compass",
        "altitude", "camp", "peak", "slope", "forest", "river", "boulder",
        "path",
    ],
    "computing": [
        "server", "cache", "kernel", "thread", "compile", "buffer", "packet",
        "socket", "query", "database", "index", "cluster", "latency",
        "protocol",
    ],
    "weather": [
        "storm", "drizzle", "thunder", "frost", "humidity", "forecast",
        "cyclone", "hail", "fog", "monsoon", "drought", "overcast", "gust",
        "sleet",
    ],
    "pottery": [
        "clay", "glaze", "kiln", "wheel", "ceramic", "sculpt", "firing",
        "porcelain", "mold", "slip", "bisque", "pigment", "vessel", "potter",
    ],
}

FILLERS = [
    "guide", "notes", "review", "basics", "methods", "tips", "common",
    "simple", "daily", "early", "late", "small", "plain", "field",
    "handbook", "primer", "journal", "series", "volume", "edition",
]


def synthetic_corpus(
    docs_per_topic: int = 20, seed: int = 7
) -> list[str]:
    """JSONL corpus lines: ``docs_per_topic`` documents for every topic."""
    rng = random.Random(seed)
    names = list(TOPICS)
    lines = []
    for t_index, name in enumerate(names):
        own = TOPICS[name]
        neighbor = TOPICS[names[(t_index + 1) % len(names)]]
        for d_index in range(docs_per_topic):
            n_sentences = rng.randint(3, 5)
            sentences = []
            for _ in range(n_sentences):
                n_words = rng.randint(6, 9)
                words = []
                for _ in range(n_words):
                    roll = rng.random()
                    if roll < 0.72:
                        words.append(rng.choice(own))
                    elif roll < 0.86:
                        words.append(rng.choice(neighbor))
                    else:
                        words.append(rng.choice(FILLERS))
                sentences.append(" ".join(words) + ".")
            lines.append(
                json.dumps(
                    {"id": f"{name}-{d_index:03d}", "text": " ".join(sentences)}
                )
            )
    return lines


def synthetic_queries(n_queries: int = 60, seed: int = 11) -> list[str]:
    """Topic-focused queries of 3-5 terms."""
    rng = random.Random(seed)
    names = list(TOPICS)
    queries = []
    for i in range(n_queries):
        topic = TOPICS[names[i % len(names)]]
        terms = rng.sample(topic, rng.randint(3, 5))
        if rng.random() < 0.3:
            terms.append(rng.choice(FILLERS))
        queries.append(" ".join(terms))
    return queries


def zipf_corpus(seed: int, n_words: int = 30, n_docs: int = 40) -> list[str]:
    """JSONL corpus lines: documents of 5-14 words ``w0``, ``w1``, ...
    drawn from a Zipf distribution over ``n_words`` words."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    weights = 1.0 / np.arange(1, n_words + 1)
    weights /= weights.sum()
    return [
        json.dumps({
            "id": f"d{i}",
            "text": " ".join(rng.choice(words, size=int(rng.integers(5, 15)), p=weights)),
        })
        for i in range(n_docs)
    ]
