"""Seeded inputs for the benchmark's four workloads.

Every workload is one cycle of page visits that the timed loop repeats
back to back.  All inputs derive from the seed; the program only ever
sees the generated HTML and the JSON input files written here.  The
repository's own fixtures (``tests/genhtml.py`` and ``tests/data``) are
read, never written.

Sizes are stated in SIZES (full runs) and SMOKE_SIZES (the self-test);
BENCHMARK.json repeats the full sizes and the reason for each workload.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TESTS_DIR = REPO / "tests"
DATA_DIR = TESTS_DIR / "data"

if str(TESTS_DIR) not in sys.path:
    sys.path.append(str(TESTS_DIR))

from genhtml import VOCAB, random_document  # noqa: E402

QUERY = "web search engines"

SIZES = {
    "corpus_session": {
        "generated_pages": 26, "flat_every": 3, "session_pages": 6,
        "visits_per_page": 2, "edit_share": 0.1, "gazetteer_phrases": 1000,
    },
    "large_pages": {
        "pages": 5, "min_blocks": 200, "max_blocks": 1000, "flat_page": 1,
    },
    "revisit_churn": {
        "pages": 3, "segments": 400, "visits_per_page": 6, "churn_share": 0.15,
        "insert_chance": 0.5, "vocabulary": 5000,
    },
    "remote_annotate": {
        "pages": 50, "min_blocks": 6, "max_blocks": 12, "outage_pages": 2,
        "fault_one_in": 10, "stub_delay_ms": 2.0, "backoff_s": 0.002,
    },
}

SMOKE_SIZES = {
    "corpus_session": dict(SIZES["corpus_session"], generated_pages=3, gazetteer_phrases=50),
    "large_pages": dict(SIZES["large_pages"], pages=3, min_blocks=20, max_blocks=40),
    "revisit_churn": dict(SIZES["revisit_churn"], pages=1, segments=20, visits_per_page=3,
                          vocabulary=300),
    "remote_annotate": dict(SIZES["remote_annotate"], pages=6, outage_pages=1),
}


@dataclass(frozen=True)
class Visit:
    """One score_page call of a cycle: page id, HTML, session it belongs to."""

    page: str
    html: bytes
    session: int


@dataclass
class Workload:
    name: str
    sizes: dict
    visits: list[Visit]
    profile_path: Path
    coeffs_path: Path
    gazetteer_path: Path | None   # None: no gazetteer provider
    uses_store: bool
    remote: bool
    flat_pages: list[str] = field(default_factory=list)  # oracle-checkable pages
    outage_visits: frozenset[int] = frozenset()        # remote: visit indices in outage

    @property
    def url_base(self) -> str:
        return f"https://bench.invalid/{self.name}/"


# ── text material ───────────────────────────────────────────────────

_SYLLABLES = (
    "ka", "lo", "mi", "ten", "ra", "vos", "pel", "dun", "shi", "gor", "bel",
    "ax", "qui", "zen", "tor", "mal", "ne", "sur", "fa", "dro", "lin", "cae",
    "bru", "hov",
)
_FLAT_TAGS = ("p", "div", "section", "article", "blockquote")
_EMPHASIS = ("b", "strong", "em", "i", "u")


def make_vocabulary(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct pronounceable words plus the fixture vocabulary."""
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4))))
    return sorted(words) + list(VOCAB)


def _words(rng: random.Random, vocab: list[str], lo: int, hi: int) -> list[str]:
    return [rng.choice(vocab) for _ in range(rng.randint(lo, hi))]


def _inline_extra(rng: random.Random, vocab: list[str]) -> str:
    roll = rng.random()
    if roll < 0.3:
        href = f"/{rng.choice(vocab)}/{rng.choice(vocab)}?q={rng.choice(vocab)}"
        return f' <a href="{href}">{" ".join(_words(rng, vocab, 1, 3))}</a>'
    if roll < 0.5:
        tag = rng.choice(_EMPHASIS)
        return f" <{tag}>{' '.join(_words(rng, vocab, 1, 3))}</{tag}>"
    if roll < 0.6:
        alt = " ".join(_words(rng, vocab, 1, 3))
        return f' <img src="/img/{rng.choice(vocab)}-{rng.choice(vocab)}.png" alt="{alt}">'
    return ""


# A flat block is (tag, words, inline suffix): at least 10 plain words, so
# every block becomes exactly one segment and tests/oracle.py can score it.
Block = tuple[str, tuple[str, ...], str]


def flat_block(rng: random.Random, vocab: list[str], lo: int = 10, hi: int = 30) -> Block:
    return (rng.choice(_FLAT_TAGS), tuple(_words(rng, vocab, lo, hi)), _inline_extra(rng, vocab))


def render_flat(title: str, blocks: list[Block]) -> str:
    body = "\n".join(f"<{tag}>{' '.join(words)}{extra}</{tag}>" for tag, words, extra in blocks)
    return f"<html><head><title>{title}</title></head><body>\n{body}\n</body></html>\n"


def flat_page(rng: random.Random, vocab: list[str], n_blocks: int,
              lo: int = 10, hi: int = 30) -> str:
    title = " ".join(_words(rng, vocab, 2, 4))
    return render_flat(title, [flat_block(rng, vocab, lo, hi) for _ in range(n_blocks)])


_EDITABLE_WORD = re.compile(r"(?<![&#\w])[A-Za-z]{3,}(?![\w;])")
_MARKUP = re.compile(r"(<[^>]*>)")
_HIDDEN = re.compile(r"<(script|style|title)\b.*?</\1>|<!--.*?-->", re.S)
_WORD = re.compile(r"[^\W_]+")


def edit_words(html: str, rng: random.Random, share: float, vocab: list[str]) -> str:
    """Replace a seeded share of the words in text content (never in tags)."""
    pieces = _MARKUP.split(html)
    for i in range(0, len(pieces), 2):  # even pieces are text between tags
        pieces[i] = _EDITABLE_WORD.sub(
            lambda m: rng.choice(vocab) if rng.random() < share else m.group(0), pieces[i])
    return "".join(pieces)


def large_page(rng: random.Random, vocab: list[str], n_blocks: int) -> str:
    """Nested sections of dense prose, emphasis runs and sparse link lists.

    Sections exceed the segmenter's max_tokens and mix dense paragraphs
    with low-density link lists, so the density-split rule fires.
    """
    sections: list[str] = []
    count = 0
    while count < n_blocks:
        blocks = [f"<h2>{' '.join(_words(rng, vocab, 3, 7))}</h2>"]
        for _ in range(rng.randint(6, 12)):
            text = " ".join(_words(rng, vocab, 20, 50))
            if rng.random() < 0.4:
                run = " ".join(f"<{t}>{rng.choice(vocab)}</{t}>"
                               for t in (rng.choice(_EMPHASIS) for _ in range(rng.randint(3, 8))))
                text = f"{text} {run}"
            blocks.append(f"<p>{text}{_inline_extra(rng, vocab)}</p>")
        if rng.random() < 0.6:
            items = "".join(
                f'<li><a href="/{rng.choice(vocab)}/{rng.choice(vocab)}">{rng.choice(vocab)}</a></li>'
                for _ in range(rng.randint(5, 15)))
            blocks.append(f"<ul>{items}</ul>")
        count += len(blocks) + 1
        if rng.random() < 0.5:
            cut = rng.randint(1, len(blocks) - 1)
            blocks[cut:] = [f"<div>{''.join(blocks[cut:])}</div>"]
            count += 1
        sections.append(f"<div>{''.join(blocks)}</div>")
    title = " ".join(_words(rng, vocab, 2, 5))
    body = "\n".join(sections)
    return f"<html><head><title>{title}</title></head><body>\n{body}\n</body></html>\n"


# ── workloads ───────────────────────────────────────────────────────


def _corpus_gazetteer(rng: random.Random, n_phrases: int, corpus_words: list[str]) -> dict:
    """Seeded category -> phrases map; about a third of phrases can match pages."""
    categories = ("Organization", "Person", "Place", "Product", "Topic")
    synthetic = make_vocabulary(rng, 800)[:800]
    known = sorted(set(corpus_words) | set(VOCAB))
    phrases = {"web search", "semantic ranking", "acme labs"}
    while len(phrases) < n_phrases:
        pool = known if rng.random() < 0.33 else synthetic
        phrases.add(" ".join(rng.choice(pool) for _ in range(rng.randint(1, 3))))
    out: dict[str, list[str]] = {c: [] for c in categories}
    for phrase in sorted(phrases):
        out[rng.choice(categories)].append(phrase)
    return out


def _visible_token_count(html: str) -> int:
    return len(_WORD.findall(_MARKUP.sub(" ", _HIDDEN.sub(" ", html))))


def sized_documents(rng: random.Random, count: int, pool_factor: int = 20) -> list[str]:
    """``count`` genhtml pages taken at evenly spaced size quantiles of a pool.

    Sizes then follow the generator's own distribution closely for every
    seed, so the seed changes the content but hardly the amount of work.
    """
    docs = [random_document(rng) for _ in range(count * pool_factor)]
    pool = sorted(range(len(docs)), key=lambda i: (_visible_token_count(docs[i]), i))
    return [docs[pool[(2 * k + 1) * pool_factor // 2]] for k in range(count)]


def corpus_session(rng: random.Random, sizes: dict, work: Path) -> Workload:
    pages: list[tuple[str, str]] = [
        (p.stem, p.read_text("utf-8")) for p in sorted((DATA_DIR / "corpus").glob("*.html"))
    ]
    every = sizes["flat_every"]
    count = sizes["generated_pages"]
    documents = iter(sized_documents(rng, count - count // every))
    flat: list[str] = []
    for i in range(count):
        if i % every == every - 1:
            # fixed block lengths: the largest pages, which set the 90th
            # percentile, then have the same size for every seed
            html = flat_page(rng, VOCAB, 3 + (i // every) % 6, lo=20, hi=20)
            flat.append(html)
        else:
            html = next(documents)
        pages.append((f"gen{i:02d}", html))
    rng.shuffle(pages)

    corpus_words = sorted({w.lower() for _, html in pages for w in _EDITABLE_WORD.findall(html)})
    gazetteer = _corpus_gazetteer(rng, sizes["gazetteer_phrases"], corpus_words)
    gazetteer_path = work / "gazetteer.json"
    gazetteer_path.write_text(json.dumps(gazetteer, indent=2, sort_keys=True), "utf-8")

    visits: list[Visit] = []
    per = sizes["session_pages"]
    for session, start in enumerate(range(0, len(pages), per)):
        group = pages[start:start + per]
        for name, html in group:  # first visits, then revisits after edits
            visits.append(Visit(name, html.encode("utf-8"), session))
        for _ in range(sizes["visits_per_page"] - 1):
            group = [(name, edit_words(html, rng, sizes["edit_share"], VOCAB)) for name, html in group]
            for name, html in group:
                visits.append(Visit(name, html.encode("utf-8"), session))
    return Workload("corpus_session", sizes, visits, DATA_DIR / "profile.json",
                    DATA_DIR / "coeffs.json", gazetteer_path, uses_store=True,
                    remote=False, flat_pages=flat)


def large_pages(rng: random.Random, sizes: dict, work: Path) -> Workload:
    """Pages at evenly spaced sizes, so every seed offers the same size mix.

    With an odd page count the median page time falls inside one page's
    cluster of samples, never on the edge between two.
    """
    vocab = make_vocabulary(rng, 2000)
    visits: list[Visit] = []
    flat: list[str] = []
    count, lo, hi = sizes["pages"], sizes["min_blocks"], sizes["max_blocks"]
    for i in range(count):
        n_blocks = lo + (hi - lo) * i // (count - 1)
        if i == sizes["flat_page"]:
            html = flat_page(rng, vocab, n_blocks)
            flat.append(html)
        else:
            html = large_page(rng, vocab, n_blocks)
        visits.append(Visit(f"large{i:02d}", html.encode("utf-8"), 0))
    rng.shuffle(visits)
    return Workload("large_pages", sizes, visits, DATA_DIR / "profile.json",
                    DATA_DIR / "coeffs.json", DATA_DIR / "gazetteer.json",
                    uses_store=False, remote=False, flat_pages=flat)


def next_churn_visit(rng: random.Random, blocks: list[Block], vocab: list[str],
                     share: float, insert_chance: float) -> list[Block]:
    """Next visit of a flat page: rewrite a share of blocks, maybe insert one.

    Half the rewritten blocks keep most words (a Jaccard match), half are
    replaced outright (no prior matches).
    """
    out = list(blocks)
    for index in rng.sample(range(len(out)), max(1, round(share * len(out)))):
        tag, words, extra = out[index]
        if rng.random() < 0.5:
            words = tuple(rng.choice(vocab) if rng.random() < 0.25 else w for w in words)
            out[index] = (tag, words, extra)
        else:
            out[index] = flat_block(rng, vocab)
    if rng.random() < insert_chance:
        out.insert(rng.randint(0, len(out)), flat_block(rng, vocab))
    return out


def revisit_churn(rng: random.Random, sizes: dict, work: Path) -> Workload:
    vocab = make_vocabulary(rng, sizes["vocabulary"])
    visits: list[Visit] = []
    flat: list[str] = []
    for i in range(sizes["pages"]):
        title = " ".join(_words(rng, vocab, 2, 4))
        blocks = [flat_block(rng, vocab) for _ in range(sizes["segments"])]
        for visit in range(sizes["visits_per_page"]):
            if visit:
                blocks = next_churn_visit(rng, blocks, vocab, sizes["churn_share"],
                                          sizes["insert_chance"])
            html = render_flat(title, blocks)
            if i == 0 and visit < 2:
                flat.append(html)
            visits.append(Visit(f"churn{i:02d}", html.encode("utf-8"), i))
    return Workload("revisit_churn", sizes, visits, DATA_DIR / "profile.json",
                    DATA_DIR / "coeffs.json", None, uses_store=True, remote=False,
                    flat_pages=flat)


def remote_annotate(rng: random.Random, sizes: dict, work: Path) -> Workload:
    vocab = make_vocabulary(rng, 300)
    visits: list[Visit] = []
    flat: list[str] = []
    for i in range(sizes["pages"]):
        html = flat_page(rng, vocab, rng.randint(sizes["min_blocks"], sizes["max_blocks"]))
        flat.append(html)
        visits.append(Visit(f"remote{i:02d}", html.encode("utf-8"), i // 10))
    start = rng.randrange(sizes["pages"] - sizes["outage_pages"] + 1)
    outage = frozenset(range(start, start + sizes["outage_pages"]))
    return Workload("remote_annotate", sizes, visits, DATA_DIR / "profile.json",
                    DATA_DIR / "coeffs.json", None, uses_store=False, remote=True,
                    flat_pages=flat[:5], outage_visits=outage)


_GENERATORS = {
    "corpus_session": corpus_session,
    "large_pages": large_pages,
    "revisit_churn": revisit_churn,
    "remote_annotate": remote_annotate,
}
WORKLOADS = tuple(_GENERATORS)


def build(name: str, seed: int, work: Path, smoke: bool = False) -> Workload:
    """Generate one workload's inputs; the same seed gives the same inputs."""
    sizes = (SMOKE_SIZES if smoke else SIZES)[name]
    return _GENERATORS[name](random.Random(f"{name}:{seed}"), sizes, work)
