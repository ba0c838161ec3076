"""Vacuum modules over a presentation: the universal enveloping vertex algebra.

States are exact linear combinations of PBW words: tuples of negative modes
g(n), n <= -1, sorted by |n| descending, ties by generator index, torsion
modes last, acting on the vacuum |0>.  Inside a module each word is an
integer id (VacuumModule says how), so states are LinCombs over ids.  A mode
acts on a basis word by insertion: it moves past each letter that sorts before
it, adding the current-algebra bracket with that letter.  Straightening, D and
Delta fill a word's suffixes from the shortest up: with h the head and w the
rest, straighten(h·w) = h·straighten(w), D(h·w) = [D, h]·w + h·D(w) and
Delta(h·w) = (h(x)1 + 1(x)h)·Delta(w).  Vertex operator modes of arbitrary
states are computed by the iterate recursion in k = -1-m, g(m)|0> = D^k g / k!:

    (g(m)w)_n v = sum_i binom(i+k, i) [g(m-i) (w_{n+i} v) + (-1)^k w_{m+n-i} (g(i) v)],

whose i-sums terminate by the weight grading (every PBW word has weight
>= 0, so u_n v = 0 once n > wt u + wt v - 1).  A single letter takes neither sum:
by D-covariance, Y(Du, x) = d/dx Y(u, x), (g(m)|0>)_n = (-1)^k binom(n, k) g(n-k).
Memos are per module: the private per-word methods, bracket and delta_word return
shared entries, never to be mutated; the rest fresh.
"""

from functools import cache, partial
from itertools import chain, product as iproduct
from math import factorial, gcd

from .current import Mode, bracket, mode_index, mode_normalize, mode_weight
from .errors import UnsupportedError
from .lincomb import LinComb, binom, cleared, inv_factorial, sign_pow
from .report import CaseBlocks, ValidationReport

__all__ = ["VacuumModule", "PackedSum", "pack", "skew_defect_on", "commutator_defect_on",
           "jacobi_defect_on", "vacuum_creation_sweep", "skew_sweep", "commutator_sweep",
           "jacobi_sweep", "sweep_defect"]

_ZERO = LinComb()


class _WordTable:
    """The PBW words and modes of every VacuumModule: one table for the process,
    so that a state means the same words in every module, as a tuple of Modes
    would.  A mode id stands for a Mode together with what its presentation
    says of it (generator weight, torsion flag and index), so modules whose
    presentations agree on a generator share its mode ids, and a mode's sort
    key and weight are per id.  Id 0 is the empty word.  The table is filled
    as words are met and never emptied.  A sweep's forked workers
    (vertexkernel.workers) fill their own copies of it and of the module memos,
    which die with them: no word id leaves a worker, and the tables of the
    process that forked them grow only by what it computed itself."""

    def __init__(self):
        self.mode_ids = {}   # (Mode, weight, torsion, index) -> mode id
        # per mode id: its Mode, sort key, weight, whether it kills every state
        # (a torsion mode other than (-1)), and the ids of mode·w by word id w
        self.modes, self.mkey, self.mwt, self.dead, self.after = [], [], [], [], []
        # per word id: its word, head mode id, rest id and weight
        self.words, self.head, self.rest, self.wt = [()], [None], [None], [0]


_WORDS = _WordTable()


class VacuumModule:
    """The vacuum module V_C of a presentation, on its PBW basis.

    A word is a tuple of Modes, and words are the edge format: word_state,
    word_id, word, format_state and serialize take or give them.  Inside, every
    word is an integer id into the process-wide _WordTable, every mode an id
    into its mode table, states are LinCombs over word ids, and the memos are
    keyed by ids.  Id 0 is the empty word, the vacuum.  basis_words gives ids,
    in word order; printing sorts by the word, never by the id.  As ids are
    shared, a state of one module is a state of every module whose
    presentation has its generators.
    """

    def __init__(self, presentation):
        self.pres = presentation
        t = _WORDS
        self._words, self._head, self._rest, self._wt = t.words, t.head, t.rest, t.wt
        self._modes, self._mkey, self._mwt, self._dead = t.modes, t.mkey, t.mwt, t.dead
        self._after = t.after
        self._mode_ids = {}   # Mode -> mode id, for this presentation
        self._runs = {}       # mode id -> its _mode_runs lists
        self._bracket = {}
        self._apply = {}
        self._smode = {}
        self._straight = {0: LinComb.single(0)}
        self._dword = {0: _ZERO}
        self._delta = {0: LinComb.single((0, 0))}
        self._text = {}       # word id -> format_word's text

    # -- the word and mode tables -------------------------------------------------

    def mode_id(self, mode):
        """The id of a mode, given as a Mode or a (gen, n) pair (n read by mode_index)."""
        i = self._mode_ids.get(mode)
        if i is None:
            mode = Mode(mode[0], mode_index(*mode))
            wt = mode_weight(self.pres, mode)
            torsion, index = self.pres.is_torsion(mode.gen), self.pres.gen_index(mode.gen)
            t = _WORDS
            key = (mode, wt, torsion, index)
            i = t.mode_ids.get(key)
            if i is None:
                i = t.mode_ids[key] = len(t.modes)
                t.modes.append(mode)
                t.mkey.append((mode.n, torsion, index))
                t.mwt.append(wt)
                t.dead.append(torsion and mode.n != -1)
                t.after.append({})
            self._mode_ids[mode] = i
        return i

    def _prepend(self, mode, word):
        """The id of the word mode·word, for a mode id and a word id."""
        after = self._after[mode]
        i = after.get(word)
        if i is None:
            i = after[word] = len(self._words)
            self._words.append((self._modes[mode],) + self._words[word])
            self._head.append(mode)
            self._rest.append(word)
            self._wt.append(self._mwt[mode] + self._wt[word])
        return i

    def word_id(self, word):
        """The id of a word (a sequence of Modes, in any order), interning it
        and its suffixes."""
        i = 0
        for mode in reversed(tuple(word)):
            i = self._prepend(self.mode_id(mode), i)
        return i

    def word(self, word_id):
        """The word (a tuple of Modes) of an id."""
        return self._words[word_id]

    def pair_order(self, key):
        """The sort key of a Delta key (word id, word id): its two words."""
        return self._words[key[0]], self._words[key[1]]

    # -- basic structure ------------------------------------------------------

    def vacuum(self):
        return LinComb.single(0)

    def word_state(self, word):
        return LinComb.single(self.word_id(word))

    def embed(self, elt):
        """C -> V_C, an element to its state a(-1)|0>."""
        return mode_normalize(self.pres, elt, -1).map_keys(
            lambda m: self._prepend(self.mode_id(m), 0))

    def sort_key(self, mode):
        return self._mkey[self.mode_id(mode)]

    def word_weight(self, word_id):
        return self._wt[word_id]

    def state_weight(self, state):
        """Max weight over the words of a state; -1 for the zero state."""
        wt = self._wt
        return max((wt[w] for w in state.keys()), default=-1)

    def bracket(self, a, b):
        """[a, b] for two mode ids, as a LinComb over mode ids."""
        key = (a, b)
        out = self._bracket.get(key)
        if out is None:
            out = bracket(self.pres, self._modes[a], self._modes[b]).map_keys(self.mode_id)
            self._bracket[key] = out
        return out

    # -- mode action and straightening -------------------------------------------

    def _apply_word(self, mode, word):
        """A mode id acting on a basis word id; the mode may have either sign.  A
        creation mode that sorts first is prepended; otherwise the mode moves
        past the head h of the word: a(m) h w = h (a(m) w) + [a(m), h] w.  The
        suffixes it moves past are walked in a loop, longest first, and filled
        from the shortest up, so no call recurses over the word's length."""
        if self._dead[mode]:
            return _ZERO
        memo = self._apply
        out = memo.get((mode, word))
        if out is not None:  # most calls hit: return before the walk's set-up
            return out
        mkey, head, rest = self._mkey, self._head, self._rest
        creation, missing, w = mkey[mode][0] <= -1, [], word
        while True:
            out = memo.get((mode, w))
            if out is not None:
                break
            if creation and (not w or mkey[mode] <= mkey[head[w]]):
                out = memo[mode, w] = LinComb.single(self._prepend(mode, w))
                break
            if not w:
                out = memo[mode, w] = _ZERO
                break
            missing.append(w)
            w = rest[w]
        for w in reversed(missing):
            h, r = head[w], rest[w]
            # written out: as binds (and _state_mode_word's), heisenberg check --suite all: +9-14 %
            step = LinComb()
            for x, c in out.items():
                step.add_into(self._apply_word(h, x), c)
            for m, c in self.bracket(mode, h).items():
                step.add_into(self._apply_word(m, r), c)
            out = memo[mode, w] = step
        return out

    def _act(self, mode, state):
        return state.bind(partial(self._apply_word, mode))

    def _fill(self, memo, word, step):
        """memo[word] for a per-word map seeded at the empty word, with memo[h·w] =
        step(h, w, memo[w]) filled for the missing suffixes from the shortest up."""
        out = memo.get(word)
        if out is None:
            head, rest, missing, w = self._head, self._rest, [], word
            while w not in memo:
                missing.append(w)
                w = rest[w]
            for w in reversed(missing):
                out = memo[w] = step(head[w], rest[w], memo[rest[w]])
        return out

    def straighten(self, word):
        """Rewrite a word id (modes of either sign, in any order) into the PBW
        basis: its modes act on the vacuum from right to left."""
        return LinComb(self._fill(self._straight, word, lambda h, w, s: self._act(h, s)).terms)

    def mode_apply(self, gen, n, state):
        """The current-algebra action g(n) on a state."""
        return self._act(self.mode_id((gen, n)), state)

    def combo_apply(self, combo, state):
        """A mode combination (LinComb over Mode) acting on a state."""
        return combo.bind(lambda m: self._act(self.mode_id(m), state))

    # -- translation operator ------------------------------------------------

    def _d_word(self, word):
        """D of a PBW word id, [D, g(m)] = -m g(m-1); a torsion head's shift is dead."""
        def step(h, w, d_rest):
            g, m = self._modes[h]
            out = self._act(h, d_rest)
            out.add_into(self._apply_word(self.mode_id((g, m - 1)), w), -m)
            return out
        return self._fill(self._dword, word, step)

    def D(self, state, power=1):
        for _ in range(power):
            state = state.bind(self._d_word)
        return state

    # -- vertex operator modes -------------------------------------------------

    def _mode_runs(self, mode, down, up):
        """For the id of a mode g(m): the ids of g(m - i) for i < down and of g(i)
        for i < up, as two lists kept per mode and lengthened on demand."""
        runs = self._runs.get(mode)
        if runs is None:
            runs = self._runs[mode] = ([], [])
        lower, upper = runs
        if len(lower) < down or len(upper) < up:
            g, m = self._modes[mode]
            lower.extend(self.mode_id((g, m - i)) for i in range(len(lower), down))
            upper.extend(self.mode_id((g, i)) for i in range(len(upper), up))
        return runs

    def _state_mode_word(self, uw, n, vw):
        if not uw:
            return LinComb.single(vw) if n == -1 else _ZERO
        # Only in-range keys are stored, so a hit needs no weight arithmetic.
        key = (uw, n, vw)
        out = self._smode.get(key)
        if out is not None:
            return out
        wt = self._wt
        wv = wt[vw]
        if n > wt[uw] + wv - 1:
            return _ZERO
        head, rest = self._head[uw], self._rest[uw]
        g, m = self._modes[head]
        k = -1 - m
        apply_word = self._apply_word
        if not rest:
            # u = g(m)|0> = D^(k) g; the weight cut above keeps n - k below wt g + wt v
            c = sign_pow(k) * binom(n, k)
            out = self._smode[key] = apply_word(self.mode_id((g, n - k)), vw) * c if c else _ZERO
            return out
        down, up = wt[rest] + wv - n, self.pres.weight_of(g) + wv
        lower, upper = self._mode_runs(head, down, up)
        out = LinComb()
        # written out: as binds (and _apply_word's), heisenberg check --suite all: +9-14 %
        for i in range(0, down):
            inner = self._state_mode_word(rest, n + i, vw)
            if inner:
                c = binom(i + k, i)
                mi = lower[i]
                for w2, c2 in inner.items():
                    out.add_into(apply_word(mi, w2), c * c2)
        sk = sign_pow(k)
        for i in range(0, up):
            gv = apply_word(upper[i], vw)
            if gv:
                c = sk * binom(i + k, i)
                for w2, c2 in gv.items():
                    out.add_into(self._state_mode_word(rest, m + n - i, w2), c * c2)
        self._smode[key] = out
        return out

    def state_mode(self, u, n, v):
        """u_n v for states u, v and any integer n."""
        # written out: as u.tensor(v).bind(...), heisenberg check --suite all: +14-26 %
        out = LinComb()
        for uw, cu in u.items():
            for vw, cv in v.items():
                out.add_into(self._state_mode_word(uw, n, vw), cu * cv)
        return out

    def packed_mode(self, u, n, v, slots):
        """u_n v in packed form, its words numbered in slots (pack)."""
        return pack(self.state_mode(u, n, v), slots)

    # -- coproduct and counit ----------------------------------------------------

    def delta_word(self, word):
        """Coproduct of a PBW word id over pairs of word ids, every mode primitive:
        Delta(h·w) = (h(x)1 + 1(x)h)·Delta(w), h prepended to legs it sorts before."""
        def step(h, w, delta_rest):
            # written out: as a bind, Delta of h(-1)^1500|0> 4.1 s against 1.5 s; none cancels
            prepend, terms = self._prepend, {}
            for (a, b), c in delta_rest.items():
                for k in ((prepend(h, a), b), (a, prepend(h, b))):
                    terms[k] = terms.get(k, 0) + c
            return LinComb._raw(terms)
        return self._fill(self._delta, word, step)

    def delta(self, state):
        return state.bind(self.delta_word)

    def eps(self, state):
        return state.get(0)

    # -- graded basis -----------------------------------------------------------

    def _mode_menu(self, weight):
        menu = []
        for g in self.pres.generators:
            if g.torsion:
                menu.append((Mode(g.name, -1), g.weight))
            else:
                if g.weight == 0:
                    raise UnsupportedError(
                        f"free generator {g.name} has weight 0: graded pieces are "
                        "infinite-dimensional, basis enumeration unsupported")
                for w in range(g.weight, weight + 1):
                    menu.append((Mode(g.name, -(w - g.weight + 1)), w))
        menu.sort(key=lambda t: self.sort_key(t[0]))
        return menu

    def basis_words(self, weight, torsion_bound=0):
        """The ids of all PBW words of the given weight with <= torsion_bound
        torsion factors, in word order."""
        if weight < 0:
            return []
        menu = self._mode_menu(weight)
        out = []

        def rec(idx, left, quota, acc):
            if idx == len(menu):
                if left == 0:
                    out.append(tuple(acc))
                return
            mode, w = menu[idx]
            torsion = self.pres.is_torsion(mode.gen)
            if w == 0:
                mmax = quota
            else:
                mmax = left // w
                if torsion:
                    mmax = min(mmax, quota)
            for mult in range(0, mmax + 1):
                rec(idx + 1, left - mult * w,
                    quota - mult if torsion else quota, acc + [mode] * mult)

        rec(0, weight, torsion_bound, [])
        return [self.word_id(w) for w in sorted(out)]

    def graded_dimension(self, weight, torsion_bound=0):
        return len(self.basis_words(weight, torsion_bound))

    def basis_states(self, max_weight, torsion_bound=0):
        """The basis words of weight <= max_weight as states, by weight, then word."""
        return [LinComb.single(w) for d in range(max_weight + 1)
                for w in self.basis_words(d, torsion_bound)]

    # -- windowed sweeps -----------------------------------------------------------

    def check_vacuum_creation(self, max_weight=4, torsion_bound=1, window=4):
        states = self.basis_states(max_weight, torsion_bound)
        return vacuum_creation_sweep(ValidationReport(subject="vacuum-module"),
                                     "vacuum-creation", self, states, range(0, window + 1),
                                     range(-window, window + 1))

    def check_d_translation(self, max_weight=4, torsion_bound=1, window=4):
        """D u = u_{-2}|0> for every basis state u, then (D u)_n v = -n u_{n-1} v
        for every basis pair (u, v) and n in the window, as one check."""
        vac = self.vacuum()
        states = self.basis_states(max_weight, torsion_bound)

        def defect(u, v=None, n=None):
            if v is None:
                return self.D(u) != self.state_mode(u, -2, vac)
            return self.state_mode(self.D(u), n, v) != (-n) * self.state_mode(u, n - 1, v)

        def witness(u, v=None, n=None):
            if v is None:
                return f"Du != u(-2)|0> at {self.format_state(u)}"
            return f"(Du)({n}) != -n u({n - 1}) at {self.format_state(u)}"

        cases = chain(zip(states), iproduct(states, states, range(-window, window + 1)))
        return ValidationReport(subject="vacuum-module").tally("d-translation", cases, defect,
                                                               witness)

    def check_skew_symmetry(self, max_weight=3, window=3, torsion_bound=1):
        states = self.basis_states(max_weight, torsion_bound)
        fmt = self.format_state
        return ValidationReport(subject="vacuum-module").tally(
            "skew-symmetry", skew_sweep(self, states, range(-window, window + 1)), sweep_defect,
            lambda u, n, v, _: f"skew-symmetry fails at ({fmt(u)})_{n}({fmt(v)})")

    def check_commutator(self, max_weight=4, window=3, torsion_bound=1):
        states = self.basis_states(max_weight, torsion_bound)
        fmt = self.format_state
        return ValidationReport(subject="vacuum-module").tally(
            "borcherds-commutator", commutator_sweep(self, states, range(-window, window + 1)),
            sweep_defect,
            lambda u, m, v, n, w, _: (f"[u({m}),v({n})]w defect at "
                                      f"u={fmt(u)}, v={fmt(v)}, w={fmt(w)}"))

    def check_jacobi(self, max_weight=3, window=3, torsion_bound=1):
        states = self.basis_states(max_weight, torsion_bound)
        fmt = self.format_state
        return ValidationReport(subject="vacuum-module").tally(
            "jacobi-identity", jacobi_sweep(self, states, range(-window, window + 1)),
            sweep_defect,
            lambda u, v, w, p, q, r, _: (f"Jacobi coefficient ({p},{q},{r}) defect at "
                                         f"u={fmt(u)}, v={fmt(v)}, w={fmt(w)}"))

    # -- formatting ---------------------------------------------------------------

    def format_word(self, word_id):
        text = self._text.get(word_id)
        if text is None:
            text = self._text[word_id] = (
                "".join(f"{m.gen}({m.n})" for m in self._words[word_id]) + "|0⟩")
        return text

    def format_state(self, state):
        return state.format(self.format_word, self.word)


# -- identity defects, generic over mode algebras -------------------------------------
# A mode algebra (the vacuum module, V (x)_phi C[L], B_L, or a presentation for n >= 0)
# provides state_mode(u, n, v), state_weight(state) and (for skew) D(state, power);
# state_weight must bound truncation: u_n v = 0 once n > wt(u) + wt(v) - 1.  The Jacobi
# sweep also takes packed_mode(u, n, v, slots): u_n v packed, its keys numbered in slots
# (see pack).  The states swept are the model's basis_states(max_weight, torsion_bound=0,
# ...), the basis states of weight <= max_weight by weight, or a presentation's generators.


def skew_defect_on(alg, u, n, v):
    """u_n v - sum_j (-1)^(n+j+1)/j! D^j (v_{n+j} u); zero iff skew-symmetry holds."""
    out = alg.state_mode(u, n, v)
    bound = alg.state_weight(u) + alg.state_weight(v)
    for j in range(0, max(bound - n, 0) + 1):
        p = alg.state_mode(v, n + j, u)
        if p:
            out.add_into(alg.D(p, j), -sign_pow(n + j + 1) * inv_factorial(j))
    return out


def commutator_defect_on(alg, u, m, v, n, w):
    """[u_m, v_n]w - sum_j binom(m,j) (u_j v)_{m+n-j} w."""
    out = alg.state_mode(u, m, alg.state_mode(v, n, w))
    out.add_into(alg.state_mode(v, n, alg.state_mode(u, m, w)), -1)
    for j in range(0, alg.state_weight(u) + alg.state_weight(v)):
        b = binom(m, j)
        if b:
            ujv = alg.state_mode(u, j, v)
            if ujv:
                out.add_into(alg.state_mode(ujv, m + n - j, w), -b)
    return out


def jacobi_defect_on(alg, u, v, w, p, q, r):
    """Coefficient of x0^p x1^q x2^r in the three-term Jacobi identity on w.

    Returns (left tail) - (right side); zero iff the identity holds there.
    """
    wu, wv, ww = alg.state_weight(u), alg.state_weight(v), alg.state_weight(w)
    out = LinComb()
    for i in range(0, max(wv + ww + r, -1) + 1):
        inner = alg.state_mode(v, i - r - 1, w)
        if inner:
            out.add_into(alg.state_mode(u, -p - q - i - 2, inner),
                         sign_pow(i) * binom(-p - 1, i))
    for i in range(0, max(wu + ww + q, -1) + 1):
        inner = alg.state_mode(u, i - q - 1, w)
        if inner:
            out.add_into(alg.state_mode(v, -p - r - i - 2, inner),
                         sign_pow(p + i) * binom(-p - 1, i))
    for i in range(0, max(wu + wv + p, -1) + 1):
        uv = alg.state_mode(u, i - p - 1, v)
        if uv:
            out.add_into(alg.state_mode(uv, -q - r - i - 2, w),
                         -sign_pow(i) * binom(q + i, i))
    return out


# -- packed states ----------------------------------------------------------------------
# A packed form (den, P, top) is a state with integer numerators c_k over den, as one
# Python int P = sum_k c_k 2^(W slot(k)) (Kronecker substitution), and top >= max |c_k|.
# The slots number the keys in first-seen order in a dict that one sweep block owns, so
# P is as wide as the keys that block has met, and a merge is one big-integer
# multiply-add, not one dict update per key.

W = 64  # bits per slot of a packed state
_NIL = (1, 0, 0)  # the packed zero state


def pack(state, slots):
    """A state in packed form, its keys numbered in slots (key -> slot), where a key
    not yet there takes the next slot."""
    try:
        return 1, *_packed(state.terms, slots)
    except TypeError:   # a Fraction coefficient: over the common denominator
        den, ints = cleared(state)
        return den, *_packed(ints, slots)


def _packed(ints, slots, tag=None):
    """(sum_k c_k 2^(W slot(k)), max |c_k|) over ints (key -> int c_k), each key k, or
    (k, tag) given a tag, numbered in slots."""
    P, top, get = 0, 0, slots.get
    for k, c in ints.items():
        if tag is not None:
            k = (k, tag)
        s = get(k)
        if s is None:
            s = slots[k] = len(slots)
        P += c << W * s
        if c > top or -c > top:
            top = c if c > 0 else -c
    return P, top


class PackedSum:
    """An exact sum of packed terms scale * (den, P, top), each scale an int, kept as
    one integer num over a common denominator den, widened as terms come, with bound =
    sum |scale| * top over den.

    Its verdict is exact.  num != 0 means a nonzero sum.  Each base-2^W digit of num is
    a sum of numerators, so |digit| <= bound; while bound < 2^(W-1) the balanced digits
    are unique and num == 0 means the sum is zero.  Past the bound, exact() is False
    and the caller decides the sum by other means."""

    __slots__ = ("den", "num", "bound")

    def __init__(self):
        """Start from zero."""
        self.den, self.num, self.bound = _NIL

    def add(self, term, scale=1):
        """self += scale * term; returns self."""
        den, P, top = term
        if not self.bound:  # zero so far: take the term's denominator
            self.den, self.num, self.bound = den, scale * P, abs(scale) * top
            return self
        if den != self.den:
            D = self.den
            if D % den:
                f = den // gcd(D, den)
                D = self.den = D * f
                self.num *= f
                self.bound *= f
            scale *= D // den
        self.num += scale * P
        self.bound += abs(scale) * top
        return self

    def exact(self):
        """Whether num != 0 is the sum's verdict: num != 0, or a bound below 2^(W-1)."""
        return not self.bound >> (W - 1) or self.num != 0


# -- identity sweeps, generic over mode algebras ---------------------------------------
# Each sweep returns CaseBlocks, one block per outer state u = states[a], that yield every
# instance, in the loop order of the defect's arguments (states outermost, modes
# innermost), as the defect's argument tuple followed by its defect, for
# ValidationReport.tally to count with sweep_defect as the defect.  Subterms shared
# between instances are evaluated once, in functools.cache tables: prod(i, k, j) =
# states[i]_k states[j] for the whole sweep, the rest per block.  The skew and commutator
# sweeps sum each defect as a LinComb.  Only the Jacobi sweep packs (alg.packed_mode, one
# slots dict per block): each defect is the exact sum, in a fresh PackedSum, of the same
# terms with the same coefficients as jacobi_defect_on, less those whose coefficient is 0,
# and the sweep yields its num, or the reference itself where it cannot tell (not exact()).


def sweep_defect(*case):
    """The defect of a sweep's case: its last element."""
    return case[-1]


def _packed_mode(alg, x, k, y, slots):
    """x_k y in packed form, or the packed zero when x or y is zero."""
    return alg.packed_mode(x, k, y, slots) if x and y else _NIL


def skew_sweep(alg, states, modes):
    """skew_defect_on(alg, u, n, v) for u, v in states and n in modes, times J! for
    the largest j of its sum, J: each term is read by one instance only, so the
    defect is summed as a LinComb with integer scales, not packed."""
    prod = cache(lambda i, k, j: alg.state_mode(states[i], k, states[j]))
    weights = [alg.state_weight(s) for s in states]

    def block(a):
        u = states[a]
        for b, v in enumerate(states):
            bound = weights[a] + weights[b]
            # dpow(k, j) = D^j(v_k u)
            dpow = cache(lambda k, j: alg.D(dpow(k, j - 1)) if j else prod(b, k, a))
            for n in modes:
                J = max(bound - n, 0)
                defect = prod(a, n, b) * factorial(J)
                for j in range(0, J + 1):
                    k = n + j
                    if prod(b, k, a):
                        scale = -sign_pow(k + 1) * (factorial(J) // factorial(j))
                        defect.add_into(dpow(k, j), scale)
                yield u, n, v, defect
    return CaseBlocks(len(states), block)


def commutator_sweep(alg, states, modes):
    """[u_m, v_n]w - sum_j binom(m,j) (u_j v)_{m+n-j} w for u, v, w in states and m, n in modes."""
    prod = cache(lambda i, k, j: alg.state_mode(states[i], k, states[j]))
    weights = [alg.state_weight(s) for s in states]
    bm = {m: [binom(m, j) for j in range(2 * max(weights, default=0))] for m in modes}

    def block(a):
        u = states[a]
        for b, v in enumerate(states):
            jmax = weights[a] + weights[b]
            for c, w in enumerate(states):
                # iterates(j, k) = (u_j v)_k w, a shared entry: summed from, never into
                iterates = cache(lambda j, k: alg.state_mode(prod(a, j, b), k, w))
                for m in modes:
                    bmj = bm[m]
                    for n in modes:
                        defect = alg.state_mode(u, m, prod(b, n, c))
                        defect.add_into(alg.state_mode(v, n, prod(a, m, c)), -1)
                        for j in range(0, jmax):
                            bj = bmj[j]
                            if bj:
                                defect.add_into(iterates(j, m + n - j), -bj)
                        yield u, m, v, n, w, defect
    return CaseBlocks(len(states), block)


def jacobi_sweep(alg, states, modes):
    """jacobi_defect_on(alg, u, v, w, p, q, r) for u, v, w in states and p, q, r in modes."""
    prod = cache(lambda i, k, j: alg.state_mode(states[i], k, states[j]))
    weights = [alg.state_weight(s) for s in states]
    # the coefficient of the i-th term of each sum: ca[p][i], cb[p][i] and cc[q][i].
    # binom(-p-1, i) = 0 for p < 0 and i >= -p, and binom(q+i, i) = 0 for q < 0 and
    # i >= -q, so the sums over ca[p] and cb[p] stop before stop[p], that over cc[q]
    # before stop[q], and no table entry is filled for a zero coefficient.
    irange = range(2 * max(weights, default=0) + max(modes, default=0) + 1)
    ca = {p: [sign_pow(i) * binom(-p - 1, i) for i in irange] for p in modes}
    cb = {p: [sign_pow(p + i) * binom(-p - 1, i) for i in irange] for p in modes}
    cc = {q: [-sign_pow(i) * binom(q + i, i) for i in irange] for q in modes}
    stop = {p: -p if p < 0 else len(irange) for p in modes}

    def block(a):
        u, wu = states[a], weights[a]
        for b, v in enumerate(states):
            wv = weights[b]
            for c, w in enumerate(states):
                ww = weights[c]
                # Each table is keyed by the two modes it applies, (k1, k2):
                # ta(k1, k2) = u_k1(v_k2 w), tb(k1, k2) = v_k1(u_k2 w) and
                # tc(k1, k2) = (u_k1 v)_k2 w.
                slots = {}
                ta = cache(lambda k1, k2: _packed_mode(alg, u, k1, prod(b, k2, c), slots))
                tb = cache(lambda k1, k2: _packed_mode(alg, v, k1, prod(a, k2, c), slots))
                tc = cache(lambda k1, k2: _packed_mode(alg, prod(a, k1, b), k2, w, slots))
                for p in modes:
                    cap, cbp = ca[p], cb[p]
                    for q in modes:
                        ccq = cc[q]
                        for r in modes:
                            acc = PackedSum()
                            for i in range(min(wv + ww + r + 1, stop[p])):
                                t = ta(-p - q - i - 2, i - r - 1)
                                if t[2]:
                                    acc.add(t, cap[i])
                            for i in range(min(wu + ww + q + 1, stop[p])):
                                t = tb(-p - r - i - 2, i - q - 1)
                                if t[2]:
                                    acc.add(t, cbp[i])
                            for i in range(min(wu + wv + p + 1, stop[q])):
                                t = tc(i - p - 1, -q - r - i - 2)
                                if t[2]:
                                    acc.add(t, ccq[i])
                            yield u, v, w, p, q, r, (acc.num if acc.exact() else
                                                     jacobi_defect_on(alg, u, v, w, p, q, r))
    return CaseBlocks(len(states), block)


# -- vacuum axioms, generic over mode algebras ----------------------------------------


def vacuum_creation_sweep(rep, check_id, alg, states, nonneg, modes):
    """Tally into rep, as check_id, u_{-1}|0> = u, then u_n|0> = 0 for n in nonneg, then
    |0>_n u = delta_{n,-1} u for n in modes, for each u in states.  alg also provides
    vacuum() and format_state(state), which renders the witnesses."""
    vac = alg.vacuum()
    defects = (lambda u, n: alg.state_mode(u, n, vac) != u,
               lambda u, n: alg.state_mode(u, n, vac),
               lambda u, n: alg.state_mode(vac, n, u) != (u if n == -1 else _ZERO))
    witnesses = ("u(-1)|0> != u at {u}", "u({n})|0> != 0 at {u}", "|0>({n})u wrong at {u}")
    cases = ((law, u, n) for u in states
             for law, ns in enumerate(((-1,), nonneg, modes)) for n in ns)
    return rep.tally(check_id, cases, lambda law, u, n: defects[law](u, n),
                     lambda law, u, n: witnesses[law].format(u=alg.format_state(u), n=n))
