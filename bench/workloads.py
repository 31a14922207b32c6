"""Seeded inputs for the benchmark workloads.

Each workload gets a dataset file and a plan. The plan holds every choice the
fake model, search engine and web server make, so their answers are a pure
function of (seed, request). Counts that set the amount of work (keyword
occurrences, distinct keywords, fetched pages, faults, skips) are fixed per
workload; the seed only chooses which texts, keywords and URLs carry them, so
runs on different seeds do the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field


def digest_int(*parts: object) -> int:
    h = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def message_key(messages) -> str:
    """Key of a chat request, equal on the server (JSON payload) and in the client (ChatMessage)."""
    pairs = [
        [m["role"], m["content"]] if isinstance(m, dict) else [m.role.value, m.content]
        for m in messages
    ]
    return hashlib.sha1(json.dumps(pairs, ensure_ascii=False).encode("utf-8")).hexdigest()


def text_tag(text: str) -> str:
    """Short content tag the fake model writes into its answers to find the sample again."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:10]


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    dataset: str  # DatasetKind value
    variant: str
    chat_path: str  # selects the Ollama or the OpenAI response shape
    chat_delay_s: float
    search_delay_s: float
    n_samples: int
    n_unique_keywords: int
    slots: tuple[int, ...]  # keywords per sample, repeated cyclically before shuffling
    duplicate_share: float
    no_verdict: int
    prose_clean: int = 0
    chat_faults: tuple[tuple[str, str], ...] = ()  # (purpose, fault class)
    search_429: int = 0
    page_500: int = 0
    page_oversized: int = 0
    refine_long_share: float = 0.0
    replay_pass: bool = False  # replay the last live child's recording after the timed children


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="live-semeval-pmpwl",
            why="live chat at 50 ms per call from an empty store and cache, Zipf-repeated names: only calls "
            "removed or overlapped move it; then one checked replay of the recording",
            dataset="semeval",
            variant="pmpwl",
            replay_pass=True,
            chat_path="/api/chat",
            chat_delay_s=0.050,
            search_delay_s=0.0,
            n_samples=60,
            n_unique_keywords=40,
            slots=(2,),
            duplicate_share=0.05,
            no_verdict=2,
        ),
        WorkloadSpec(
            name="live-twitterid-pmpwg",
            why="Indonesian web path with seeded faults: the only workload reaching search, fetch, "
            "markup stripping, chunking, BM25, refinement and retries",
            dataset="twitter-id",
            variant="pmpwg",
            chat_path="/v1/chat/completions",
            chat_delay_s=0.020,
            search_delay_s=0.040,
            n_samples=60,
            n_unique_keywords=30,
            slots=(0, 1, 1, 2, 2),
            duplicate_share=0.05,
            no_verdict=1,
            prose_clean=2,
            chat_faults=(
                ("P1", "500"),
                ("KeywordIdentify", "429"),
                ("P1", "400"),
                ("P2", "malformed"),
                ("KeywordIdentify", "empty"),
            ),
            search_429=2,
            page_500=3,
            page_oversized=1,
            refine_long_share=0.2,
        ),
    )
}

# Chat faults that the client sees on every attempt; the others fail only the first one.
PERMANENT_FAULTS = {"400", "malformed", "empty"}

RESULTS_PER_SEARCH = 5

EN_NAMES = """
Heathrow Pasadena Christmas Monday Netflix Starbucks Boston Chicago Dallas Denver Seattle Portland
Austin Miami Atlanta Phoenix Vegas Brooklyn Manhattan Texas Florida Ohio Oregon Canada Mexico
Paris London Berlin Madrid Rome Dublin Tokyo Sydney Toronto Amazon Google Apple Twitter Facebook
Spotify Uber Tesla Walmart Target Costco Comcast Verizon Ryanair Delta Amtrak Disney Pixar
Marvel Batman Superman Hogwarts Gotham Friday Thanksgiving Halloween Easter Valentine Olympics
Wimbledon Superbowl Coachella Broadway Hollywood Penny Sheldon Chandler Monica Rachel Joey Ross
Phoebe Kevin Brian Linda Susan Karen Gary Steve Oprah Beyonce Adele Drake Rihanna Shakira
Messi Ronaldo Federer Nadal Serena Lebron Kobe Jordan Brady Arsenal Chelsea Liverpool Barcelona
Juventus Yankees Lakers Celtics Warriors Patriots Cowboys Packers Steelers Dodgers Cubs
Mondays Tinder Instagram Snapchat Youtube Zoom Slack Outlook Windows Excel Photoshop Kindle
Xbox Playstation Nintendo Fortnite Minecraft Pokemon Lego Nutella Pringles Oreo Pepsi Heinz
Ikea Primark Gucci Prada Rolex Nike Adidas Puma Reebok Hilton Marriott Airbnb Expedia
""".split() + [
    "United Nations", "New York", "Los Angeles", "San Francisco", "Las Vegas", "New Jersey",
    "Black Friday", "Cyber Monday", "Taylor Swift", "Justin Bieber", "Kanye West", "Elon Musk",
    "Bill Gates", "Mark Zuckerberg", "Harry Potter", "Star Wars", "Premier League",
    "World Cup", "White House", "Wall Street", "British Airways", "Southwest Airlines", "Whole Foods",
    "Dunkin Donuts", "Burger King", "Pizza Hut", "Taco Bell", "Best Buy", "Home Depot",
]

EN_TEMPLATES = (
    "so glad {0} decided to cancel again, clearly {1} is the place to be tonight",
    "love how {0} keeps sending emails about {1} at six in the morning",
    "nothing says a relaxing weekend like {0} traffic and a queue at {1}",
    "the new update from {0} is great, now i get to wait for {1} all day",
    "stuck between {0} and {1} for three hours, what a lovely way to spend the day",
    "finally booked the trip to {0}, and the hotel near {1} looks quite nice",
    "watched the game with {0} fans last night and then ate at {1}",
    "my favourite part of the week is when {0} and {1} both raise their prices",
    "thanks {0} for the free upgrade, the seat next to {1} was worth the wait",
    "the coffee at {0} was warm and the walk past {1} was quick this morning",
    "can't wait to spend another holiday listening to {0} talk about {1}",
    "just got back from {0}, the staff there were friendly and {1} was open late",
    "brilliant idea to schedule the meeting at {0} right before {1} starts",
    "reading about {0} again while my order from {1} is three weeks late",
    "the report about {0} is ready for review and {1} sent the figures",
    "nine hours stuck at {0}, what a treat, and {1} lost my bag too",
)

EN_FILLER = (
    "honestly", "again", "today", "as usual", "really", "this week", "right now", "lol",
    "of course", "seriously", "apparently", "tonight",
)

ID_SLANG = """
wkwk gabut mager baper kepo santuy gercep mabar bucin julid receh ambyar gaje pansos caper
sotoy garing nolep jamet alay lebay modus otw btw gws kuy anjay mantul ciyus unyu galau
gapapa mantap sabi gokil woles cmiiw salfok spill mimin ngab bestie jomblo kudet ngabuburit
takjil mudik nyinyir halu gemoy ges kw
""".split() + ["IPB", "KRL", "DPR", "UMR", "THR", "BPJS", "KTP", "UKT", "TransJakarta", "Gojek"]

ID_FILLER = """
hari ini aku lagi di rumah terus tiba tiba hujan deras banget padahal mau jalan ke kampus sama
teman teman kemarin malam nonton film bareng keluarga sambil makan nasi goreng enak sekali kerja
lembur sampai pagi gaji belum turun juga jalanan macet parah motor mogok di tengah jalan tugas
numpuk dosen minta revisi lagi kopi susu dingin cuaca panas sekali akhirnya libur panjang tiba
""".split()

PAGE_WORDS = """
the a of and to in is was for on that with as by at from this it an be are which or his her
their has have had not but were its also after first new one two year years time people city
state world school public history known called used most during between into over under such
these those many other some while where when since part name company music film series game
team season club national local government university service system market news report page
sejarah kota negara orang tahun pertama baru bagian nama layanan sistem berita kata bahasa
istilah sering digunakan anak muda media sosial percakapan sehari hari arti makna ungkapan
""".split()


@dataclass
class Plan:
    """Everything the fake services need to answer, and the outcome each sample must have."""

    seed: int
    workload: str
    language: str
    rows: list[dict] = field(default_factory=list)  # id, label, text
    keywords: dict[str, list[str]] = field(default_factory=dict)  # tag -> keywords in order
    verdicts: dict[str, str] = field(default_factory=dict)  # tag -> YES / NO
    no_verdict: list[str] = field(default_factory=list)  # tags whose P2 answer has no verdict
    prose_clean: list[str] = field(default_factory=list)  # tags whose KeywordClean answer is prose
    chat_faults: dict[str, dict[str, str]] = field(default_factory=dict)  # tag -> purpose -> fault
    search_429: list[str] = field(default_factory=list)  # keywords
    long_snippet_rank: dict[str, int] = field(default_factory=dict)  # keyword -> rank
    refine_long: list[str] = field(default_factory=list)  # keywords
    page_faults: dict[str, str] = field(default_factory=dict)  # page path -> "500" / "oversized"
    expected: dict[str, str] = field(default_factory=dict)  # sample id -> YES / NO / skip class



def slug(keyword: str) -> str:
    return "-".join(keyword.casefold().split())


def page_path(keyword: str, rank: int) -> str:
    return f"/pages/{slug(keyword)}/{rank}"


def _zipf_counts(total: int, unique: int) -> list[int]:
    """Occurrence counts for `unique` keywords summing to `total`, roughly 1/rank."""
    weights = [1.0 / r for r in range(1, unique + 1)]
    scale = (total - unique) / sum(weights)
    counts = [1 + int(w * scale) for w in weights]
    rank = 0
    while sum(counts) < total:
        counts[rank % max(1, unique // 4)] += 1
        rank += 1
    return counts


def _assign_keywords(rng: random.Random, slots: list[int], vocab: list[str], unique: int) -> list[list[str]]:
    """Fill per-sample keyword slots from a fixed Zipf multiset, never twice in one sample."""
    names = rng.sample(vocab, unique)
    pool: list[str] = []
    for name, count in zip(names, _zipf_counts(sum(slots), unique)):
        pool.extend([name] * count)
    rng.shuffle(pool)
    out: list[list[str]] = []
    position = 0
    for n in slots:
        chosen: list[str] = []
        for _ in range(n):
            # Swap a later occurrence in if this one repeats a keyword of the sample.
            for j in range(position, len(pool)):
                if pool[j] not in chosen:
                    pool[position], pool[j] = pool[j], pool[position]
                    break
            chosen.append(pool[position])
            position += 1
        out.append(chosen)
    return out


def _english_text(rng: random.Random, names: list[str]) -> str:
    template = rng.choice(EN_TEMPLATES)
    return f"{template.format(*names)} {rng.choice(EN_FILLER)}"


def _indonesian_text(rng: random.Random, words: list[str]) -> str:
    body = rng.sample(ID_FILLER, rng.randint(8, 12))
    for word in words:
        body.insert(rng.randint(1, len(body)), word)
    return " ".join(body)


def make_plan(spec: WorkloadSpec, seed: int) -> Plan:
    rng = random.Random(digest_int("plan", spec.name, seed))
    english = spec.dataset == "semeval"
    n_dupes = int(spec.n_samples * spec.duplicate_share)
    n_unique = spec.n_samples - n_dupes
    slots = [spec.slots[i % len(spec.slots)] for i in range(n_unique)]
    rng.shuffle(slots)
    vocab = EN_NAMES if english else ID_SLANG
    per_sample = _assign_keywords(rng, slots, vocab, spec.n_unique_keywords)

    texts: list[str] = []
    keywords_of: dict[str, list[str]] = {}
    for names in per_sample:
        while True:
            text = _english_text(rng, names) if english else _indonesian_text(rng, names)
            if text_tag(text) not in keywords_of:
                break
        keywords_of[text_tag(text)] = names
        texts.append(text)
    # Verbatim duplicates are copies of earlier texts placed later in the file.
    for _ in range(n_dupes):
        position = rng.randint(len(texts) // 4, len(texts))
        texts.insert(position, rng.choice(texts[:position]))

    plan = Plan(seed=seed, workload=spec.name, language="en" if english else "id")
    plan.keywords = keywords_of
    counts: dict[str, int] = {}
    for text in texts:
        counts[text_tag(text)] = counts.get(text_tag(text), 0) + 1
    for index, text in enumerate(texts):
        plan.rows.append({"id": str(index), "label": rng.randint(0, 1), "text": text})
    for tag in keywords_of:
        plan.verdicts[tag] = "YES" if digest_int("verdict", seed, tag) % 2 else "NO"

    # Planned outcomes go to texts that occur once, in the first part of the run, so a
    # retry backoff never sits alone at the tail of a run.
    lo, hi = len(texts) // 10, (len(texts) * 6) // 10
    candidates = []
    for part in (texts[lo:hi], texts[:lo] + texts[hi:]):
        tags = [text_tag(x) for x in part if counts[text_tag(x)] == 1]
        rng.shuffle(tags)
        candidates += tags
    keyword_count: dict[str, int] = {}
    for text in texts:
        for kw in keywords_of[text_tag(text)]:
            keyword_count[kw] = keyword_count.get(kw, 0) + 1

    def take(predicate=lambda tag: True) -> str:
        for i, tag in enumerate(candidates):
            if predicate(tag):
                return candidates.pop(i)
        raise ValueError(f"{spec.name}: not enough texts for the planned outcomes")

    skip_of: dict[str, str] = {}
    # The most constrained choice comes first.
    for _ in range(spec.search_429):
        # A refused keyword must occur in this one text only, so exactly one sample skips.
        tag = take(lambda t: any(keyword_count[k] == 1 for k in keywords_of[t]))
        plan.search_429.append(next(k for k in keywords_of[tag] if keyword_count[k] == 1))
        skip_of[tag] = "SearchQuotaExceeded"
    for _ in range(spec.no_verdict):
        tag = take()
        plan.no_verdict.append(tag)
        skip_of[tag] = "VerdictNotFound"
    for _ in range(spec.prose_clean):
        tag = take(lambda t: bool(keywords_of[t]))
        plan.prose_clean.append(tag)
        skip_of[tag] = "MalformedCSV"
    for purpose, fault in spec.chat_faults:
        tag = take()
        plan.chat_faults.setdefault(tag, {})[purpose] = fault
        if fault in PERMANENT_FAULTS:
            skip_of[tag] = "EmptyResponse" if fault == "empty" else "TransportError"

    if spec.variant.startswith("pmpwg"):
        web_keywords = sorted({k for names in keywords_of.values() for k in names})
        for kw in web_keywords:
            plan.long_snippet_rank[kw] = 1 + digest_int("snippet", seed, kw) % RESULTS_PER_SEARCH
        plan.refine_long = sorted(rng.sample(web_keywords, round(len(web_keywords) * spec.refine_long_share)))
        fetched = [
            page_path(kw, rank)
            for kw in web_keywords
            if kw not in plan.search_429
            for rank in range(1, RESULTS_PER_SEARCH + 1)
            if rank != plan.long_snippet_rank[kw]
        ]
        # Oversized pages belong to one keyword that occurs once, so each is fetched once per
        # child. With three of them, whether an earlier one was still held when the next
        # arrived made peak RSS bimodal, so the workload has one.
        planned = {k for tag in skip_of for k in keywords_of[tag]}
        big = rng.choice(
            [k for k in web_keywords if keyword_count[k] == 1 and k not in planned]
            or [k for k in web_keywords if k not in planned]
        )
        big_pages = [p for p in fetched if p.startswith(page_path(big, 0)[:-1])]
        for path in rng.sample(big_pages, spec.page_oversized):
            plan.page_faults[path] = "oversized"
        small_pages = [p for p in fetched if p not in big_pages]
        for path in rng.sample(small_pages, spec.page_500):
            plan.page_faults[path] = "500"

    for row in plan.rows:
        tag = text_tag(row["text"])
        plan.expected[row["id"]] = "skip:" + skip_of[tag] if tag in skip_of else plan.verdicts[tag]
    return plan


def dataset_file_text(plan: Plan) -> str:
    """The dataset file in the loader's format: SemEval TSV or twitter-id CSV."""
    if plan.language == "en":
        lines = ["Tweet index\tLabel\tTweet text"]
        lines += [f"{r['id']}\t{r['label']}\t{r['text']}" for r in plan.rows]
    else:
        lines = ["tweet,label"]
        lines += [f'"{r["text"]}",{r["label"]}' for r in plan.rows]
    return "\n".join(lines) + "\n"


def sample_id(plan: Plan, row_id: str) -> str:
    """The id the package's loader gives a row."""
    return f"{'semeval' if plan.language == 'en' else 'twitter-id'}:{row_id}"


def property_shares(plan: Plan) -> dict[str, float]:
    """Measured shares of the input properties the workload is built around."""
    occurrences = [k for r in plan.rows for k in plan.keywords[text_tag(r["text"])]]
    seen: set[str] = set()
    repeats = 0
    for kw in occurrences:
        repeats += kw in seen
        seen.add(kw)
    tags = [text_tag(r["text"]) for r in plan.rows]
    n = len(plan.rows)
    shares = {
        "repeated_keyword_occurrences": repeats / max(1, len(occurrences)),
        "verbatim_duplicate_texts": (n - len(set(tags))) / n,
        "planned_skips": sum(v.startswith("skip:") for v in plan.expected.values()) / n,
    }
    if plan.long_snippet_rank:
        results = len(plan.long_snippet_rank) * RESULTS_PER_SEARCH
        shares["results_needing_fetch"] = (results - len(plan.long_snippet_rank)) / results
        shares["oversized_pages"] = sum(v == "oversized" for v in plan.page_faults.values()) / results
    return shares


def fault_counts(plan: Plan) -> dict[str, int]:
    """Injected faults by class."""
    faults: dict[str, int] = {}
    for by_purpose in plan.chat_faults.values():
        for fault in by_purpose.values():
            faults[f"chat_{fault}"] = faults.get(f"chat_{fault}", 0) + 1
    if plan.search_429:
        faults["search_429"] = len(plan.search_429)
    for fault in plan.page_faults.values():
        faults[f"page_{fault}"] = faults.get(f"page_{fault}", 0) + 1
    return faults
