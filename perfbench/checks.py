"""Comparing what afcore answered with the known answer of an op.

An op carries a list of acceptable ``outcomes``.  Each outcome names an
exit code and, optionally, what the output must hold:

* ``stdout``: the exact text;
* ``json``: the parsed stdout, where ``ANY`` matches any value;
* ``lines``: lines that must all appear in stdout;
* ``error``: for exit 2, the refusal type (``"*"`` for any typed refusal).

A crash (an exception escaping ``cli.main``) never matches.
"""

from __future__ import annotations

import json

ANY = "<any>"


def match(actual, expected) -> bool:
    """Deep equality where ``ANY`` matches anything and bools stay bools."""
    if expected == ANY:
        return True
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(match(actual[k], v) for k, v in expected.items())
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(match(a, e) for a, e in zip(actual, expected))
        )
    if isinstance(expected, bool) or isinstance(actual, bool):
        return actual is expected
    return actual == expected


def _refusal_type(stderr: str, json_mode: bool):
    """The refusal type printed on stderr, or ``"*"`` when only typed-ness
    is visible (plain mode), or None when stderr is not a refusal."""
    if json_mode:
        try:
            return json.loads(stderr)["error"]["type"]
        except (ValueError, KeyError, TypeError):
            return None
    return "*" if stderr.startswith("error: ") else None


def _outcome_matches(outcome: dict, code: int, out: str, err: str, json_mode: bool) -> bool:
    if outcome["exit"] != code:
        return False
    if "error" in outcome:
        seen = _refusal_type(err, json_mode)
        return seen is not None and outcome["error"] in ("*", seen)
    if "stdout" in outcome and out != outcome["stdout"]:
        return False
    if "json" in outcome:
        try:
            parsed = json.loads(out)
        except ValueError:
            return False
        if not match(parsed, outcome["json"]):
            return False
    if "lines" in outcome:
        have = set(out.splitlines())
        if not all(line in have for line in outcome["lines"]):
            return False
    return True


def check_cli(op: dict, code, out: str, err: str):
    """None when the answer is acceptable, else a one-line reason."""
    if not isinstance(code, int):
        return f"crash: {code}"
    for outcome in op["outcomes"]:
        if _outcome_matches(outcome, code, out, err, op.get("json", False)):
            return None
    allowed = sorted({o["exit"] for o in op["outcomes"]})
    if code not in allowed:
        return f"exit {code}, expected one of {allowed}: {err.strip()[:120]}"
    return f"exit {code} with output that disagrees with the known answer"
