"""Regenerate the golden prompt files from the template text files.

Intentionally independent of the package: composition is restated here with
plain string operations so the goldens act as an oracle for the builders.
`goldens()` composes the files and `main()` writes them; tests/test_acceptance.py
checks that the committed files equal `goldens()`.
Run from the repository root: python tests/golden/make_prompt_goldens.py
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TEMPLATES = ROOT / "src" / "sarcrag" / "templates"
OUT = Path(__file__).resolve().parent / "prompts"

SAMPLE_TEXT = {
    "en": "Sweet United Nations video. Just in time for Christmas.",
    "id": "Keren banget jam kw ini, baru seminggu udah mati wkwk",
}

WORD_INFOS = {
    "en": [
        ("United Nations", "an international organization founded in 1945 to keep peace between countries."),
        ("Christmas", "a Christian holiday celebrated every 25 December."),
    ],
    "id": [
        ("kw", "singkatan yang merujuk pada barang tiruan dengan kualitas lebih rendah dari produk asli."),
        ("wkwk", "sebuah ekspresi tawa yang sering dipakai dalam percakapan di media sosial."),
    ],
}

A1_TEXT = {
    "en": (
        "The statement to analyze is: \"Sweet United Nations video. Just in time for Christmas.\"\n"
        "The speaker implies the video arrived at a convenient moment, but the praise feels exaggerated.\n"
        "The speaker appears unimpressed by the video despite the positive wording.\n"
        "What is implied and what is thought do not match, so the speaker may be pretending to be pleased."
    ),
    "id": (
        "Pernyataan yang dianalisis: \"Keren banget jam kw ini, baru seminggu udah mati wkwk\"\n"
        "Pembicara menyiratkan bahwa jam tiruan itu cepat rusak, bertentangan dengan pujian di awal kalimat.\n"
        "Pembicara sebenarnya kecewa dengan kualitas jam tersebut.\n"
        "Yang tersirat dan yang dipikirkan tidak sejalan, jadi pembicara tampak berpura-pura memuji."
    ),
}

CONNECTIVE = {"en": "is", "id": "adalah"}


def read_template(lang: str, name: str) -> str:
    path = TEMPLATES / lang / f"{name}.txt"
    return path.read_text(encoding="utf-8").removesuffix("\n")


def goldens() -> dict[str, str]:
    """Each golden prompt file's path under OUT, such as "en/p1_plain_user.txt", and its text."""
    files = {}
    for lang in ("en", "id"):
        text = SAMPLE_TEXT[lang]
        connective = CONNECTIVE[lang]

        p1_system = read_template(lang, "p1_system")
        p2_system = read_template(lang, "p2_system")
        header = read_template(lang, "wordinfo_user_header")
        suffix = read_template(lang, "wordinfo_system_suffix")
        fewshot = read_template(lang, "fewshot")

        infos = "\n".join(
            f"{keyword} {connective} {definition}" for keyword, definition in WORD_INFOS[lang]
        )

        prompts = {
            "p1_plain_system": p1_system,
            "p1_plain_user": text,
            "p1_wordinfo_system": p1_system + "\n" + suffix,
            "p1_wordinfo_user": text + "\n" + header + "\n" + infos,
            "p2_fewshot_system": p2_system + "\n" + fewshot,
            "p2_fewshot_user": A1_TEXT[lang],
        }
        files.update({f"{lang}/{name}.txt": content for name, content in prompts.items()})
    return files


def main() -> None:
    for name, content in goldens().items():
        path = OUT / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
        print(f"wrote {name} ({len(content)} chars)")


if __name__ == "__main__":
    main()
