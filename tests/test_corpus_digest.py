"""The seeded corpus of tools/corpus_digest.py prints its pinned part
digests: every output byte it covers stays as it was."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "corpus_digest.py"

# Each part's record count and SHA-256. Recording a dataclass by its
# fields and properties moved the states digest and none of the others.
# The coalitions part was pinned before coalition_reduction moved to
# floats, the screens part before the lattice screen skipped slope
# planes by their corners, and again, with its flat-boundary tables,
# before it skipped the planes of flat players, and with its corner-range
# tables before a player's flatness was read from its corner range.
PINNED = {
    "scenarios": (352, "517384512e6bdff769d9bf4d149061361962ccfe10a804d5a4091ec64cba8be2"),
    "ne": (252, "a9df8c5fffcb704d1c0736ed097f5607e8a8d06ba642adee0ab7e56b205be21a"),
    "payoffs": (4060, "b329b0be5f786c83b43ac772aec9deaa995efe4964c6fbacf675a6a4fb9ce301"),
    "states": (3238, "d666b2a4cd3eab001d428b9ff44371a891db008a8436c76b3ae81465bbe98508"),
    "coalitions": (1368, "65ba76c92b6bf2f6ac57be5358694f40328a0483fed9d697c9cd166135360231"),
    "screens": (504, "81af44aa799a77733c595286f7bff4302840e759a3e2a4450141a295862eb36c"),
}


def test_corpus_part_digests_are_pinned():
    spec = importlib.util.spec_from_file_location("corpus_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.part_digests() == PINNED
