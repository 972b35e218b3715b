"""Declared domains of numeric inputs, and the checks that apply them.

A domain is an interval as the paper writes it, "(1, inf]" for tau: a
bracket keeps its end and a parenthesis leaves it out, so "[0, inf)"
refuses +inf.  NaN lies in no domain.
"""
from __future__ import annotations

import math

import numpy as np


class ConfigError(ValueError):
    """A refused input, named in the message; the CLI exits 2 with it."""


def _phrase(domain: str) -> str:
    lo = domain[1:].split(",")[0]
    if domain.endswith(" inf]"):
        if domain[0] == "(":
            return "be positive" if lo == "0" else f"exceed {lo}"
        return "be non-negative" if lo == "0" else f"be >= {lo}"
    return "be finite" if domain == "(-inf, inf)" else f"lie in {domain}"


def check_domains(values: dict, **domains: str) -> None:
    """Refuse the first field of `domains` whose value in `values`, such as
    vars(self) or locals(), lies outside its domain (an array: any entry)."""
    for name, domain in domains.items():
        x = np.asarray(values[name])
        lo, hi = (float(p) for p in domain[1:-1].split(","))
        inside = ((x > lo) if domain[0] == "(" else (x >= lo)) & (
            (x < hi) if domain[-1] == ")" else (x <= hi))
        if not inside.all():
            raise ConfigError(f"{name} must {_phrase(domain)}")


def check_derived(message: str, compute) -> float:
    """compute(), refused with `message`, naming its inputs, if it overflows."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(message)
    return value
