"""Seeded synthetic CVE corpus with an exact hardware oracle.

A fixed number of records carries exactly one hardware keyword; every other
record is built from a vocabulary that contains none of the keywords as a
substring.  The mock classifier matches substrings, so a software word such as
"associated" (which holds "soc") or "socket" would silently turn a software
record into a hardware one.  Vendor names from the topic blocklist are avoided
as well, so no cluster label is ever blocked and the review queue stays empty.

The same (seed, records, share) always gives the same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# The mock chat provider's keyword list (cveminer.gateway.DEFAULT_HW_KEYWORDS);
# kept here so the benchmark's inputs do not change when program code does.
# The generator test checks that the two lists agree.
HW_KEYWORDS = (
    "firmware", "bios", "spi", "jtag", "dram",
    "cpu", "soc", "bootloader", "debug port", "physical access",
)

# Share of the hardware records that carries each keyword.  The shares are
# uneven and fixed, so every seed gives the same cluster sizes.
KEYWORD_WEIGHTS = (0.24, 0.18, 0.14, 0.11, 0.09, 0.07, 0.06, 0.05, 0.03, 0.03)

HW_PHRASES = {
    "firmware": ("the firmware update handler", "the signed firmware image parser",
                 "the firmware recovery path"),
    "bios": ("the bios setup menu", "the bios password check", "the bios boot order service"),
    "spi": ("the spi flash controller", "the spi flash write protection",
            "the spi bus interface"),
    "jtag": ("the jtag test access logic", "the jtag boundary scan chain",
             "the jtag unlock sequence"),
    "dram": ("the dram refresh logic", "the dram row buffer", "the dram training routine"),
    "cpu": ("the cpu microcode loader", "the cpu branch predictor", "the cpu power state logic"),
    "soc": ("the soc power manager", "the soc secure enclave", "the soc fuse controller"),
    "bootloader": ("the bootloader image verifier", "the bootloader command console",
                   "the bootloader rollback counter"),
    "debug port": ("the exposed debug port", "the debug port authentication",
                   "the serial debug port"),
    "physical access": ("the tamper sensor when an attacker has physical access",
                        "the enclosure lock given physical access",
                        "the recovery button given physical access"),
}

VULNS = (
    "Improper input validation", "A heap buffer overflow", "A stack buffer overflow",
    "An integer overflow", "A use after free", "A double free", "A null pointer dereference",
    "Improper authentication", "Missing authorization", "Cross-site scripting",
    "Cross-site request forgery", "A path traversal flaw", "A race condition",
    "An out-of-bounds read", "An out-of-bounds write", "Improper certificate validation",
    "Uncontrolled resource consumption", "A format string flaw", "Insecure deserialization",
    "Improper privilege management",
)
COMPONENTS = (
    "login form", "account manager", "template engine", "image decoder", "archive extractor",
    "query planner", "report exporter", "upload handler", "password reset flow",
    "search endpoint", "plugin loader", "configuration parser", "logging module",
    "cache layer", "message broker client", "payment callback", "admin dashboard",
    "markdown renderer", "calendar widget", "metrics collector", "thumbnail generator",
    "license checker", "mail gateway", "proxy router", "font parser",
)
PRODUCTS = (
    "Orbweaver Portal", "Lumen CMS", "Tallow Mail", "Quartzline ERP", "Brightfield Wiki",
    "Cobalt Tracker", "Hollow Forum", "Nimbus Ledger", "Pinecone Gallery", "Verdant Shop",
    "Falcon Notes", "Granite Helpdesk", "Harbor Chat", "Ironleaf Office", "Juniper Board",
    "Kestrel Analytics", "Maple Router", "Northwind Games", "Oakmoss Reader", "Riverbend CRM",
)
ACTORS = (
    "a remote attacker", "an unauthenticated user", "a local user", "an authenticated user",
    "a privileged attacker", "a malicious administrator", "an adjacent attacker",
)
IMPACTS = (
    "execute arbitrary code", "read sensitive files", "escalate privileges",
    "cause a denial of service", "bypass authentication", "modify stored data",
    "disclose memory contents", "hijack user accounts", "inject arbitrary commands",
    "forge requests",
)
VECTORS = (
    "a crafted request", "a malformed header", "a long filename", "an oversized payload",
    "a manipulated cookie", "a nested archive", "a modified parameter", "a crafted document",
    "a poisoned cache entry", "a replayed token",
)

YEARS = tuple(range(2015, 2025))


@dataclass(frozen=True)
class Corpus:
    """Canonical-jsonl bytes plus the records the mock classifier must call hardware."""

    data: bytes
    hardware: dict[str, str]  # id -> description, in file order


def _software_text(rng: random.Random) -> str:
    return (f"{rng.choice(VULNS)} in the {rng.choice(COMPONENTS)} of {rng.choice(PRODUCTS)} "
            f"{rng.randint(1, 12)}.{rng.randint(0, 30)} allows {rng.choice(ACTORS)} to "
            f"{rng.choice(IMPACTS)} via {rng.choice(VECTORS)}.")


def _hardware_text(rng: random.Random, keyword: str) -> str:
    return (f"{rng.choice(VULNS)} in {rng.choice(HW_PHRASES[keyword])} of "
            f"{rng.choice(PRODUCTS)} {rng.randint(1, 12)}.{rng.randint(0, 30)} allows "
            f"{rng.choice(ACTORS)} to {rng.choice(IMPACTS)}.")


def generate(seed: int, records: int, hardware_share: float) -> Corpus:
    """Build `records` records of which round(records * share) are hardware."""
    rng = random.Random(seed)
    n_hw = round(records * hardware_share)
    hw_positions = set(rng.sample(range(records), n_hw))
    # fixed keyword counts per weight, shuffled over the hardware positions
    counts = [int(w * n_hw) for w in KEYWORD_WEIGHTS]
    counts[0] += n_hw - sum(counts)
    keywords = [kw for kw, c in zip(HW_KEYWORDS, counts) for _ in range(c)]
    rng.shuffle(keywords)

    per_year = -(-records // len(YEARS))
    lines, hardware = [], {}
    for i in range(records):
        cve_id = f"CVE-{YEARS[i // per_year]}-{10000 + i % per_year}"
        if i in hw_positions:
            text = _hardware_text(rng, keywords.pop())
            hardware[cve_id] = text
        else:
            text = _software_text(rng)
        lines.append(json.dumps({"id": cve_id, "description": text, "source": "synthetic"}))
    return Corpus(data=("\n".join(lines) + "\n").encode("utf-8"), hardware=hardware)
