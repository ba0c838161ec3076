"""Text and JSON forms for modes, elements, states and input files.

The text grammar is the one the CLI prints, so outputs parse back in:

    mode          L(-3)
    element       2·L + 1/2·D^2L        (D-powers of generators)
    state         L(-2)L(-1)|0⟩        (modes applied to the vacuum, any order)

"*" is accepted wherever "·" is printed, and "|0>" wherever "|0⟩" is.  Keys
of B_L and V ⊗_φ ℂ[L] print as "h1(-2)h1(-2)|0⟩⊗e^{(3)}" (TensorPhiAlgebra's
format_key); that form, like the JSON of modes, is output only.  JSON forms use
exact rational strings throughout.  The row builders (state_to_json and the
rest) take a value's terms already sorted, so a caller that also prints the
value sorts it once.  to_json_text renders the CLI's JSON; for one call it
keeps the text of each list and of each dict of str/int values by
(id(object), indent), and each dict key layout by (keys, indent).
"""

import json
import re
from functools import cache

from .current import Mode
from .errors import InputError
from .lincomb import Fraction, LinComb, parse_rational
from .vla import NAME, Presentation, builtin, element_to_json, json_bool, json_int, json_terms

_WORD_RE = re.compile(rf"({NAME})\((-?\d+)\)")
_STATE_RE = re.compile(rf"^((?:{NAME}\(-?\d+\))*)\|0[⟩>]$")
_COEFF_RE = re.compile(r"^(\d+(?:/\d+)?)\s*[·*]\s*(.+)$")
_DTERM_RE = re.compile(rf"^D(?:\^(\d+))?({NAME})$")


def parse_mode(text):
    m = _WORD_RE.fullmatch(text.strip())
    if not m:
        raise InputError(f"cannot parse mode {text!r} (expected like \"L(-3)\")")
    return Mode(m.group(1), int(m.group(2)))


def mode_to_json(mode):
    return {"gen": mode.gen, "n": mode.n}


def _split_signed(text):
    """Top-level (sign, chunk) pairs of a sum; +/- inside brackets are atoms."""
    chunks, start, sign, depth = [], 0, 1, 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0 and ch in "+-":
            chunk = text[start:i].strip()
            if chunk:
                chunks.append((sign, chunk))
                sign = 1
            if ch == "-":
                sign = -sign
            start = i + 1
    chunk = text[start:].strip()
    if not chunk:
        raise InputError(f"dangling sign in {text!r}")
    return chunks + [(sign, chunk)]


def _parse_sum(text, term):
    """The signed sum of "coeff·body" terms in text, term(body) giving each
    body's value; "0" is the zero and a missing coeff reads 1."""
    out, text = LinComb(), text.strip()
    if text == "0":
        return out
    for sign, chunk in _split_signed(text):
        m = _COEFF_RE.match(chunk)
        try:
            coeff = parse_rational(m.group(1)) if m else Fraction(1)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        out.add_into(term(m.group(2).strip() if m else chunk), sign * coeff)
    return out


# -- elements of C ---------------------------------------------------------------


def parse_element(pres, text):
    """An element of C from "2·L + 1/2·D^2L" style text; "0" is the zero."""
    names = {g.name for g in pres.generators}

    def term(body):
        if body in names:
            return pres.make_element({(body, 0): 1})
        m = _DTERM_RE.match(body)
        if not m:
            raise InputError(f"cannot parse element term {body!r}")
        return pres.make_element({(m.group(2), int(m.group(1) or 1)): 1})
    return _parse_sum(text, term)


def element_from_json(pres, rows):
    try:
        terms = json_terms(rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed element JSON: {exc}") from exc
    return pres.make_element(terms)


# -- vacuum-module states ----------------------------------------------------------


def parse_state(vm, text):
    """A state from "L(-2)L(-1)|0⟩" style text; modes act right to left."""
    names = {g.name for g in vm.pres.generators}

    def term(body):
        m = _STATE_RE.match(body)
        if not m:
            raise InputError(f"cannot parse state term {body!r} "
                             f"(expected like \"L(-2)L(-1)|0⟩\")")
        modes = [(gen, int(n)) for gen, n in _WORD_RE.findall(m.group(1))]
        for gen, _ in reversed(modes):
            if gen not in names:
                raise InputError(f"unknown generator {gen!r} in state term {body!r}")
        return vm.straighten(vm.word_id(modes))
    return _parse_sum(text, term)


def _words_json(vm):
    """word id -> its modes as JSON: one list per word id, shared by every term that
    names the word (to_json_text renders it once per indent), of one dict per mode."""
    mode = cache(mode_to_json)
    return cache(lambda w: [mode(m) for m in vm.word(w)])


def state_to_json(vm, terms):
    """JSON rows of a state's (word id, coeff) terms, in the order given
    (state.sorted_items(vm.word) for word order)."""
    word = _words_json(vm)
    return [{"coeff": str(c), "word": word(w)} for w, c in terms]


def tensor_to_json(vm, terms):
    """JSON rows of a Delta value's ((word id, word id), coeff) terms, in the
    order given (tensor.sorted_items(vm.pair_order) for word order)."""
    word = _words_json(vm)
    return [{"coeff": str(c), "left": word(w1), "right": word(w2)}
            for (w1, w2), c in terms]


# -- differential / tensor keys (word, alpha) ----------------------------------------


def format_alpha(alpha):
    return "(" + ",".join(str(a) for a in alpha) + ")"


def diff_state_to_json(alg, terms):
    """JSON rows of a state of B_L or V (x)_phi C[L] (alg), from its ((word id,
    alpha), coeff) terms in the order given (state.sorted_items(alg.key_order)
    for (word, alpha) order)."""
    word = _words_json(alg.vm)
    return [{"coeff": str(c), "word": word(w), "alpha": list(al)}
            for (w, al), c in terms]


# -- JSON output -----------------------------------------------------------------

_encode_str = json.encoder.encode_basestring   # the escaping ensure_ascii=False uses


def to_json_text(value):
    """value rendered byte for byte as json.dumps(value, ensure_ascii=False,
    sort_keys=True, indent=2) renders it, for dicts with str keys, lists,
    tuples, str, int, bool and None; anything else raises TypeError.  CPython
    takes its C encoder only when indent is None, and its pure-Python one
    costs about twice this.

    Two memos live for this call only.  A list or tuple met again at the same
    indent, and a dict whose values are all str or int (a mode, shared by
    every word that holds it), is rendered once: that memo is keyed by
    (id(object), indent), and value keeps every object in it alive for the
    call, so no id is reused while the memo holds it.  Other dicts, mostly
    per-term rows met once, are not kept: their texts would hold most of a
    large output twice while it renders.  A dict's sorted keys and their
    rendered "key": prefixes are kept per (its keys in insertion order,
    indent), so each row of a payload sorts and escapes no key."""
    return _render(value, "\n", {}, {})


def _render(v, nl, seen, layouts):
    """v as JSON text; nl is the newline plus indent v's own lines start at, seen
    the call's texts by (id(object), indent), and layouts its dict key layouts
    by (keys in insertion order, indent)."""
    t = type(v)
    if t is str:
        return _encode_str(v)
    if t is list or t is tuple:
        return _sequence(v, nl, seen, layouts)
    if t is dict:
        return _mapping(v, nl, seen, layouts)
    if t is int:
        return int.__repr__(v)
    if isinstance(v, str):
        return _encode_str(v)
    if isinstance(v, dict):
        return _mapping(v, nl, seen, layouts)
    if isinstance(v, (list, tuple)):
        return _sequence(v, nl, seen, layouts)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _sequence(v, nl, seen, layouts):
    if not v:
        return "[]"
    key = (id(v), nl)
    text = seen.get(key)
    if text is None:
        inner = nl + "  "
        text = seen[key] = ("[" + inner + ("," + inner).join(
            [_render(x, inner, seen, layouts) for x in v]) + nl + "]")
    return text


def _mapping(v, nl, seen, layouts):
    if not v:
        return "{}"
    key = (id(v), nl)
    text = seen.get(key)
    if text is not None:
        return text
    inner = nl + "  "
    shape = (tuple(v), nl)
    layout = layouts.get(shape)
    if layout is None:
        # _encode_str raises TypeError on a non-str key, as sorted does on mixed keys
        keys = sorted(v)
        prefixes = [inner + _encode_str(k) + ": " for k in keys]
        prefixes = ["{" + prefixes[0]] + ["," + p for p in prefixes[1:]]
        layout = layouts[shape] = (keys, prefixes, nl + "}")
    keys, prefixes, close = layout
    parts = []
    leaves = True
    for k, prefix in zip(keys, prefixes):
        x = v[k]
        t = type(x)
        if t is str:
            x = _encode_str(x)
        elif t is int:
            x = int.__repr__(x)
        else:
            leaves = False
            x = _render(x, inner, seen, layouts)
        parts += (prefix, x)
    parts.append(close)
    text = "".join(parts)
    if leaves:
        seen[key] = text
    return text


# -- input files -----------------------------------------------------------------


def read_json_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_presentation(data):
    """A presentation from {"builtin": name[, "rank": r]} or inline JSON."""
    if not isinstance(data, dict):
        raise InputError("presentation must be a JSON object")
    if "builtin" in data:
        try:
            return builtin(str(data["builtin"]), json_int(data.get("rank", 1), "rank"))
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed builtin reference: {exc}") from exc
    return Presentation.from_json(data)


def is_construction(data):
    return isinstance(data, dict) and "semigroup" in data


def load_construction(data):
    """Pieces of a construction file: (presentation, rank, group, phi targets).

    Shape: {"presentation": {...}, "semigroup": {"rank": 1, "group": true},
    "phi": [[{"coeff": "1", "d": 0, "gen": "h"}], ...]} with one phi row per
    semigroup direction; a missing "phi" gives None, for the caller's default,
    PhiMap.canonical: the first rank free generators, of any weight.
    """
    if "presentation" not in data:
        raise InputError("construction file needs a \"presentation\" field")
    pres = load_presentation(data["presentation"])
    sg = data.get("semigroup")
    if not isinstance(sg, dict):
        raise InputError("construction file needs a \"semigroup\" object")
    try:
        rank = json_int(sg["rank"], "rank")
        group = json_bool(sg.get("group", True), "group")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed semigroup block: {exc}") from exc
    phi_rows = data.get("phi")
    targets = None
    if phi_rows is not None:
        if not isinstance(phi_rows, list) or len(phi_rows) != rank:
            raise InputError(f"phi must list {rank} target rows")
        targets = [element_from_json(pres, row) for row in phi_rows]
    return pres, rank, group, targets
