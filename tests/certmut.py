"""Shared helper: enumerate and apply single-numeric-field mutations to a
certificate JSON object. Used by the sensitivity unit test and the
acceptance fuzz."""

import copy

from slopewalk.serialize import rat_from_str


def numeric_fields(obj):
    fields = [("endpoints[0]", ("endpoints", 0)), ("endpoints[1]", ("endpoints", 1))]
    for j in range(len(obj["moves"])):
        for side in ("from", "to"):
            for name in ("k", "m"):
                fields.append((f"moves[{j}].{side}.{name}", ("moves", j, side, name)))
            for part in ("num", "den"):
                fields.append((f"moves[{j}].{side}.slope.{part}", ("moves", j, side, "slope", part)))
    for j in range(len(obj["assumptions"])):
        fields.append((f"assumptions[{j}].move", ("assumptions", j)))
    return fields


def apply_mutation(obj, path, delta):
    obj = copy.deepcopy(obj)
    if path[0] == "endpoints":
        obj["endpoints"][path[1]] += delta
        return obj
    if path[0] == "assumptions":  # the axiom's move is null: it becomes delta
        assumption = obj["assumptions"][path[1]]
        assumption["move"] = (assumption["move"] or 0) + delta
        return obj
    _, j, side, field = path[:4]
    point = obj["moves"][j][side]
    if field == "slope":
        fr = rat_from_str(point["slope"])
        if path[4] == "num":
            point["slope"] = f"{fr.numerator + delta}/{fr.denominator}"
        else:
            point["slope"] = f"{fr.numerator}/{fr.denominator + delta}"
    else:
        point[field] += delta
    return obj
