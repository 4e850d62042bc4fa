"""The table of malformed values that both fuzz tests draw from.

Each kind but "drop" (which removes a config entry) turns one valid value
into a malformed one: a scalar and a list swapped, a ragged list, NaN,
infinity, a negative or non-integral number, a word, a number written as a
string, a boolean, a null or a mapping.
"""

MUTATIONS = ("drop", "swap", "ragged", "nan", "inf", "negative",
             "fractional", "string", "numeral", "boolean", "null", "mapping")


def malformed(value, how):
    """value turned malformed by the mutation kind how (not "drop")."""
    number = value if isinstance(value, (int, float)) else 1.0
    if how == "swap":
        return (value[0] if value else 1.0) if isinstance(value, list) \
            else [value]
    if how == "ragged":
        return value + [[number]] if isinstance(value, list) \
            else [value, [value]]
    return {"nan": float("nan"), "inf": float("inf"),
            "negative": -abs(number) - 1.0, "fractional": number + 0.5,
            "string": "weird", "numeral": str(number), "boolean": True,
            "null": None, "mapping": {"a": 1}}[how]
