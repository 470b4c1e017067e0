"""Structured verdicts shared by the membership oracles and probes, and
the names of the chain families, which the command line offers without
loading the ideal code.

A witness never claims more than the truncation window can show:
``member`` and ``non_member`` are verdicts about the window, and
``undecided_at_truncation`` is the honest outcome when the window cannot
settle the question either way.
"""

from __future__ import annotations

from typing import NamedTuple

MEMBER = "member"
NON_MEMBER = "non_member"
UNDECIDED = "undecided_at_truncation"

CHAIN_FAMILIES = ("P_ascending", "J_descending", "I_descending", "K_ascending")


class Witness(NamedTuple):
    verdict: str
    index: int | None = None
    pair: tuple[int, int] | None = None
    note: str = ""
    elements: tuple = ()

    @property
    def is_member(self) -> bool:
        return self.verdict == MEMBER

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.index is not None:
            out["index"] = self.index
        if self.pair is not None:
            out["pair"] = list(self.pair)
        if self.note:
            out["note"] = self.note
        return out
