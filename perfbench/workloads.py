"""Seeded request lists for the eulersum benchmark.

Each workload is a fixed list of distinct requests. The seed sets the
order of the eval lists and the brute: entry of the verify list; all else
is fixed, because members drawn from pools, or a seeded order on reduce
and verify, moved run medians by 25-35% between seeds and would hide the
changes the benchmark is for. The program under test sees nothing but
the generated spec texts, digit counts and tags.

The module also holds the benchmark's own reading of the sum grammar
(`Spec`), which the reference evaluator and the output checks use, so
neither depends on the package being measured.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass

DEFAULT_SEED = 1
WORKLOADS = ("eval-alternating", "eval-positive", "reduce", "verify")
# workloads whose set-up includes the frozen-table self-check
TABLE_WORKLOADS = ("reduce", "verify")

_FACTOR_RE = re.compile(r"([hl])\((\d+)\)(?:\^(\d+))?\Z")
_SPEC_RE = re.compile(r"(.+?)/n(?:\^(\d+))?( alt)?\Z")


@dataclass(frozen=True)
class Spec:
    """A sum `factors/n^power [alt]`; factors are (kind, order, exponent)
    in canonical order: h before l, then by order."""

    factors: tuple[tuple[str, int, int], ...]
    power: int
    alt: bool = False

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(sorted(self.factors)))

    @classmethod
    def parse(cls, text: str) -> "Spec":
        m = _SPEC_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not a sum spec: {text!r}")
        factors = []
        for chunk in m.group(1).split("*"):
            f = _FACTOR_RE.match(chunk)
            if f is None:
                raise ValueError(f"bad factor {chunk!r} in {text!r}")
            factors.append((f.group(1), int(f.group(2)), int(f.group(3) or 1)))
        return cls(tuple(factors), int(m.group(2) or 1), bool(m.group(3)))

    def __str__(self) -> str:
        parts = [f"{k}({o})" + (f"^{e}" if e > 1 else "")
                 for k, o, e in self.factors]
        tail = "/n" if self.power == 1 else f"/n^{self.power}"
        return "*".join(parts) + tail + (" alt" if self.alt else "")

    @property
    def weight(self) -> int:
        return sum(o * e for _, o, e in self.factors) + self.power

    @property
    def alternating_only(self) -> bool:
        """True when no piece of the sum is a positive series.

        Each l(k) factor splits into a constant plus (-1)^(n-1) times a
        positive amplitude, so l factors flip the sign pattern of the
        pieces they enter. Only two shapes keep every non-constant piece
        alternating: an alt sum of h factors, and a plain sum of a
        single l(k).
        """
        if self.alt:
            return all(kind == "h" for kind, _, _ in self.factors)
        return len(self.factors) == 1 and self.factors[0][::2] == ("l", 1)


# eval-alternating: every spec at 30 and 60 digits, in seeded order.
# Alternating-only specs take 0.1-0.5 s each; 50 requests allow a tail.
ALTERNATING_SPECS = [
    # alt sums of h factors with q >= 2
    "h(1)/n^2 alt", "h(1)/n^4 alt", "h(2)/n^3 alt", "h(3)/n^2 alt",
    "h(4)/n^4 alt", "h(1)^2/n^2 alt", "h(2)^2/n^3 alt", "h(1)*h(2)/n^3 alt",
    "h(1)*h(3)/n^2 alt", "h(1)^3/n^2 alt",
    # alt sums of two h factors over n
    "h(1)*h(2)/n alt", "h(1)*h(4)/n alt", "h(2)*h(3)/n alt",
    "h(2)*h(5)/n alt", "h(3)*h(4)/n alt", "h(4)*h(6)/n alt",
    # plain sums of one l(k)
    "l(1)/n^2", "l(1)/n^5", "l(2)/n^3", "l(2)/n^6", "l(3)/n^4", "l(4)/n^2",
    "l(4)/n^5", "l(5)/n^3", "l(6)/n^6",
]
ALTERNATING_DIGITS = (30, 60)

# eval-positive: five specs of about 2.5-3.5 s at 30 digits, two or one
# of each kind of positive piece, plus one at 60 digits for the precision
# scaling of the positive route, in seeded order. The median is then the
# mean of two of five similar requests rather than of two requests of
# different kinds. Mixed h and l factors (h(1)*l(2)/n^3, 5-6 s) and two
# l factors over n under the sign (l(a)*l(b)/n alt, 8-13 s) are left out
# to keep the run short.
POSITIVE_SPECS = [
    # one l(k) under the sign: its amplitude piece is positive
    "l(1)/n^3 alt", "l(2)/n^3 alt",
    # a power of an l factor without sign
    "l(1)^2/n^3", "l(2)^2/n^2",
    # one h(k) without sign
    "h(1)/n^4",
]
POSITIVE_REPEAT = "l(1)^2/n^3"

# reduce: every covered h(p)*h(p+2m+1)/n alt of weight <= 10 at 20 and
# then 40 digits. eval_sum at d digits runs at d+15 and d+25, and
# sv_numeric's atoms at d+25 and d+35, so the two levels share no cached
# value (levels 10 apart do). Within a level, requests share z(k), ln2,
# lih(k) and LS{...} atoms through the atom memo, so a request's cost
# depends on what ran before it. The list is therefore the same for every
# seed, in a fixed order: a seeded order moved the run median by a third
# between seeds, and seeded digit levels by a fifth.
REDUCE_SPECS = [f"h({p})*h({p + 2 * m + 1})/n alt"
                for p in range(2, 5) for m in range(0, 3)
                if 2 * p + 2 * m + 2 <= 10]
REDUCE_DIGITS = (20, 40)

# verify: two sub-second entries, S1:l(1)/n^3 alt (about 4 s, positive
# route), one brute: entry drawn by the seed (all share one 10^5-term
# pass, about 10 s) and the negative control (about 18 s), in this order.
# The median request is then always the 4-s one; with more short
# entries, or a seeded order, it was one sub-second request or fell
# between two whose costs depend on which ran first, and moved by a third
# between runs. Tags that share a sum with NegControl:Eq(3.6) (Eq(3.6),
# Eq(3.10), Eq(3.11) and two table entries) are left out. Family
# instances take 13-61 s each today and are left out to keep a run short.
VERIFY_DIGITS = 25
BRUTE_TAGS = ([f"brute:euler({k})" for k in range(2, 9)]
              + ["brute:fs(2,3)", "brute:fs(3,2)", "brute:fs(2,5)",
                 "brute:fs(4,3)"])
VERIFY_HEAD = ["table:h(2)/n^4 alt", "Eq(3.7)", "S1:l(1)/n^3 alt"]
VERIFY_CONTROL = "NegControl:Eq(3.6)"


def verify_kind(tag: str) -> str:
    """How worker.py splits a traced request: "identity" tags resolve
    through resolve_tag; verify() answers "special" (table:) tags itself."""
    if tag.startswith("brute:"):
        return "brute"
    if tag.startswith("NegControl:"):
        return "control"
    return "special" if tag.startswith("table:") else "identity"


def requests(workload: str, seed: int) -> list[dict]:
    """The request list of one run of `workload`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "eval-alternating":
        reqs = [{"spec": s, "digits": d}
                for s in ALTERNATING_SPECS for d in ALTERNATING_DIGITS]
    elif workload == "eval-positive":
        reqs = [{"spec": s, "digits": 30} for s in POSITIVE_SPECS]
        reqs.append({"spec": POSITIVE_REPEAT, "digits": 60})
    elif workload == "reduce":
        return [{"spec": s, "digits": d}
                for d in REDUCE_DIGITS for s in REDUCE_SPECS]
    elif workload == "verify":
        tags = VERIFY_HEAD + [rng.choice(BRUTE_TAGS), VERIFY_CONTROL]
        return [{"tag": t, "digits": VERIFY_DIGITS, "kind": verify_kind(t)}
                for t in tags]
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng.shuffle(reqs)
    return reqs
